// Package transport provides message delivery between nodes with the
// exact guarantees the paper's proofs rely on: every message is received
// correctly, within finite time, and in the order sent between any
// ordered pair of nodes (§2.4 "We assume that messages ... are received
// in finite time in the order sent", and axiom P4). Three
// implementations share one interface: a deterministic simulated network
// driven by a discrete-event scheduler, a live in-process network built
// from goroutines and mailboxes, and a TCP network over real sockets.
package transport

import (
	"math/rand"

	"repro/internal/msg"
	"repro/internal/sim"
)

// NodeID names an endpoint on a transport. The basic model maps one
// process per node; the DDB model maps one controller per node.
type NodeID int32

// Handler receives messages delivered to a node. A transport invokes a
// node's handler sequentially — one message at a time — which realizes
// the paper's atomic-step requirement ("Each step ... once started must
// be completed before the process can send or receive other messages").
type Handler interface {
	HandleMessage(from NodeID, m msg.Message)
}

// HandlerFunc adapts a function to the Handler interface.
type HandlerFunc func(from NodeID, m msg.Message)

// HandleMessage implements Handler.
func (f HandlerFunc) HandleMessage(from NodeID, m msg.Message) { f(from, m) }

// MessageRetainer marks a Handler whose HandleMessage retains the
// delivered message past the call — typically by enqueuing it for an
// asynchronous consumer (the engine's shard ingress does this). The TCP
// transport decodes hot-path messages into pooled structs and recycles
// each one as soon as the handler returns; a retaining handler must
// implement this marker to take ownership instead, and then becomes
// responsible for calling msg.Recycle itself once the message has been
// consumed. Handlers that finish with the message inside HandleMessage
// (every synchronous protocol step) need nothing.
type MessageRetainer interface {
	// RetainsMessages is a marker; it is never called.
	RetainsMessages()
}

// StreamSink accepts the in-order deliveries of one inbound frame
// stream on a lock-free path, bypassing the dispatch mailbox. The
// transport calls DeliverStream under its per-stream resequencing lock,
// so calls for one sink are serialized and arrive in exact stream
// order; the sink must preserve that order per destination.
// DeliverStream takes ownership of m (the sink's consumer recycles
// pooled frames); a false return means the sink does not own the
// destination and the caller must deliver through its regular path —
// the verdict must be stable per destination, or per-pair FIFO breaks.
type StreamSink interface {
	DeliverStream(from, to NodeID, m msg.Message) bool
}

// SinkProvider is implemented by handlers (the engine Host's inbound
// shim) that can consume deliveries through a StreamSink. The TCP
// transport binds one sink per inbound stream, lazily at the stream's
// first sequenced frame, and keeps it for the stream's lifetime —
// across reconnects and sender epoch changes, whose frames must not
// race each other through different paths. Binding is skipped while
// transport observers are attached: observer callbacks fire on the
// dispatch path, and a sink would route around them.
type SinkProvider interface {
	BindStream() StreamSink
}

// SequencedHandler is an optional Handler extension for dispatch-path
// deliveries that carry stream sequencing. When a delivered frame was
// resequenced (seq != 0) and the handler implements this interface, the
// transport calls HandleSequenced instead of HandleMessage, so the
// handler can account the delivery against the write-ahead log's
// record stream (the engine Host's checkpoint cut relies on knowing
// every logged frame has been stepped). The MessageRetainer contract
// applies to both entry points alike.
type SequencedHandler interface {
	Handler
	HandleSequenced(from NodeID, m msg.Message, epoch, seq uint64)
}

// DeliveryLog is the durability hook of an inbox: when attached (see
// TCP.SetDeliveryLog), every sequenced frame is journaled at the moment
// the resequencer commits it for delivery — under the inbox lock, before
// the frame reaches a sink or mailbox and, crucially, before the
// acknowledgement covering it is written back to the sender. The
// journal's durability barrier therefore gives two write-ahead
// orderings: no frame is delivered before a barrier covering its record
// has returned, and no ack covering it leaves before that barrier —
// every acknowledged frame is on disk, and every frame not on disk is
// still in the sender's replay buffer.
//
// This one-method face is the per-frame contract: LogDelivery journals
// the frame AND runs the barrier before it returns, and the transport
// calls it once per frame, immediately before that frame's delivery. It
// is what a decorator wrapping a log implements (and therefore gets). A
// log that also implements GroupDeliveryLog gets the group barrier
// instead. LogDelivery may block (the checkpoint cut does, briefly); it
// must not call back into the transport. The message is only borrowed
// for the duration of the call.
type DeliveryLog interface {
	LogDelivery(stream NodeID, streamIsHost bool, epoch, seq uint64, from, to NodeID, m msg.Message)
}

// GroupDeliveryLog is the optional batched face of a DeliveryLog: the
// barrier is paid per group of frames instead of per frame. A socket
// reader calls AppendDelivery for every in-order frame it can decode
// without blocking, parks the deliveries on the inbox's stage, and then
// calls CommitDeliveries once; only after it returns are the staged
// frames handed to their sinks or mailbox, in stage order, and only
// then is an acknowledgement written (DESIGN.md §11).
//
// AppendDelivery journals one frame without making it durable. It must
// not block on anything that waits for staged frames to be delivered:
// when it cannot journal right now (the engine's checkpoint cut is
// closing) it journals nothing and returns false, and the transport
// commits and delivers its stage, then journals the frame through
// LogDelivery. CommitDeliveries is the durability barrier over every
// frame appended so far; when nothing is unsynced it costs nothing.
type GroupDeliveryLog interface {
	DeliveryLog
	AppendDelivery(stream NodeID, streamIsHost bool, epoch, seq uint64, from, to NodeID, m msg.Message) bool
	CommitDeliveries()
}

// PlacementResolver maps process ids to the hosts that own them and
// hosts to dialable addresses. The TCP transport consults it (see
// TCP.SetResolver) whenever its static tables — AssignNode/SetHostPeer
// wiring — have no answer, which is how the cluster layer's replicated
// routing directory replaces hand-wired pair-by-pair topology: host
// links are dialed on demand from whatever the member map currently
// says. Implementations must be safe for concurrent use; the transport
// calls them under its own locks, so they must not call back into the
// transport.
type PlacementResolver interface {
	// HostOf returns the host that owns node, or ok=false when the
	// node's placement is unknown (the transport then falls back to
	// per-node addressing).
	HostOf(node NodeID) (host NodeID, ok bool)
	// AddrOf returns the dial address of a host listener, or ok=false
	// when the host is not (or no longer) a member.
	AddrOf(host NodeID) (addr string, ok bool)
}

// StaticPlacement is a fixed PlacementResolver for topologies known at
// construction time. It is the directory-API replacement for per-pair
// AssignNode/SetHostPeer wiring: build the two maps once, install with
// SetResolver, and the transport resolves every node and dials every
// host link from them on demand. The maps must not be mutated after the
// resolver is installed.
type StaticPlacement struct {
	// Hosts maps node id → owning host id.
	Hosts map[NodeID]NodeID
	// Addrs maps host id → listener dial address.
	Addrs map[NodeID]string
}

// HostOf implements PlacementResolver.
func (s StaticPlacement) HostOf(node NodeID) (NodeID, bool) {
	h, ok := s.Hosts[node]
	return h, ok
}

// AddrOf implements PlacementResolver.
func (s StaticPlacement) AddrOf(host NodeID) (string, bool) {
	a, ok := s.Addrs[host]
	return a, ok
}

// HostSender is implemented by transports that can pin an outbound
// message onto a specific source host's frame stream regardless of the
// nominal sender. Live migration needs it: when host A forwards frames
// for a process that moved to host B, the original sender may live on a
// third host X — forwarding with X as the stream source would let A's
// copy collide with X's own (future) stream to B, so A pins forwarded
// frames to its own A→B stream instead. From/To still name the node
// endpoints; only the link and the envelope's SrcHost change.
type HostSender interface {
	SendFromHost(srcHost, from, to NodeID, m msg.Message)
}

// Transport routes messages between registered nodes.
type Transport interface {
	// Register attaches the handler for a node. It must be called
	// before any message is sent to that node.
	Register(id NodeID, h Handler)
	// Send routes m from one node to another. Delivery is reliable,
	// FIFO per ordered (from,to) pair, and asynchronous: Send never
	// invokes the destination handler synchronously.
	Send(from, to NodeID, m msg.Message)
}

// Observer is notified of message lifecycle events. Metrics counters and
// the FIFO-checking tracer attach through this interface.
type Observer interface {
	// OnSend fires when a message is handed to the transport.
	OnSend(from, to NodeID, m msg.Message)
	// OnDeliver fires immediately before the destination handler runs.
	OnDeliver(from, to NodeID, m msg.Message)
}

// Latency models per-message network delay for the simulated transport.
type Latency interface {
	// Sample draws one message delay.
	Sample(rng *rand.Rand) sim.Duration
}

// FixedLatency delays every message by the same amount.
type FixedLatency sim.Duration

// Sample implements Latency.
func (l FixedLatency) Sample(*rand.Rand) sim.Duration { return sim.Duration(l) }

// UniformLatency draws delays uniformly from [Min, Max].
type UniformLatency struct {
	Min, Max sim.Duration
}

// Sample implements Latency.
func (l UniformLatency) Sample(rng *rand.Rand) sim.Duration {
	if l.Max <= l.Min {
		return l.Min
	}
	return l.Min + sim.Duration(rng.Int63n(int64(l.Max-l.Min)+1))
}

// ExponentialLatency draws delays from an exponential distribution with
// the given mean, capped at 100x the mean to keep tails finite (the
// paper only requires "arbitrary, finite time").
type ExponentialLatency struct {
	Mean sim.Duration
}

// Sample implements Latency.
func (l ExponentialLatency) Sample(rng *rand.Rand) sim.Duration {
	d := sim.Duration(rng.ExpFloat64() * float64(l.Mean))
	if cap := 100 * l.Mean; d > cap {
		d = cap
	}
	if d < 1 {
		d = 1
	}
	return d
}

// Compile-time interface checks.
var (
	_ Latency = FixedLatency(0)
	_ Latency = UniformLatency{}
	_ Latency = ExponentialLatency{}
)
