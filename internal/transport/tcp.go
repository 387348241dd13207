package transport

import (
	"errors"
	"fmt"
	"io"
	"maps"
	"net"
	"sync"
	"sync/atomic"
	"time"

	"repro/internal/msg"
)

// TCP is a transport over real TCP sockets. Every endpoint is a host:
// a host owns one listener and one inbox, and a sender keeps one
// outbound link per ordered (source host, destination host) pair, each
// with its own goroutine, queue, mutex and encoder, so a slow or
// unreachable peer stalls only its own link. Frames are binary-encoded,
// sequence-numbered envelopes (see msg.Envelope and DESIGN.md §9):
// Envelope.SrcHost names the stream, the sequence numbers let the
// receiver drop duplicates and resequence frames replayed across a
// re-dialed connection, which preserves the per-ordered-pair FIFO
// guarantee the algorithm's proofs require even when connections fail.
// From/To still name the node endpoints; the receiving host
// demultiplexes by Envelope.To.
//
// Failure handling: dials retry with exponential backoff; write and
// read failures tear down only the affected connection and are
// surfaced through TCPOptions.OnError rather than panicking; every
// frame written on a link is retained and replayed on reconnect, so a
// peer that crashes and restarts receives the link's full history
// (its previous incarnation's state is gone) while a peer that merely
// lost the connection dedups the replay by sequence number.
//
// Placement: with no PlacementResolver installed, node n is its own
// host n — Register opens the node's loopback listener through
// ListenHost, and SetPeer records where a remote node listens. All
// nodes may live in one process (the livenet example and the
// integration tests) or on separate machines. SetPeer may also update
// an address: re-dial cycles re-read it, so a peer that restarts on a
// new port is reachable again once SetPeer records it.
//
// A deployment hosting many nodes per OS process calls ListenHost once
// (one listener for the whole host) and installs a PlacementResolver
// (SetResolver) that maps nodes to hosts and hosts to addresses.
// Register then only records the handler of a node placed on a local
// host, and every co-hosted node's traffic shares its host's links.
// Under a resolver a node it does not place is a configuration error:
// Register panics and Send reports it through OnError.
type TCP struct {
	opts TCPOptions

	mu sync.Mutex
	// listeners, addrs and inboxes are keyed by host: the local hosts'
	// listeners and inboxes, and the dial address of every host known
	// here — local listen addresses and SetPeer entries alike.
	listeners map[NodeID]net.Listener
	addrs     map[NodeID]string
	inboxes   map[NodeID]*inbox
	links     map[link]*outLink
	inConns   []net.Conn
	closed    bool

	// handlers is the node directory the host inboxes demultiplex into,
	// and observers the attached observers: snapshots a delivery reads
	// with atomic loads, never taking mu, which Send takes on every
	// frame. Observe republishes observers under mu. Register only
	// writes handlerMap and marks handlers stale, so registering n nodes
	// costs O(n) rather than a directory copy each; the first delivery
	// that sees the mark republishes the snapshot under handlerMu. Lock
	// order: mu or an inbox's mu, then handlerMu, which is held across
	// no other lock.
	handlerMu     sync.Mutex
	handlerMap    map[NodeID]Handler
	handlersStale atomic.Bool
	handlers      atomic.Pointer[map[NodeID]Handler]
	observers     atomic.Pointer[[]Observer]

	// resolver, when set, answers every placement question: node→host
	// from a routing directory, host→addr from a member map.
	resolver PlacementResolver

	// done unblocks backoff sleeps and dial attempts on Close.
	done  chan struct{}
	wg    sync.WaitGroup
	stats tcpCounters
}

// inbox is the receive side of one local host: the per-source-host
// resequencing state that survives connection drops (it must outlive
// any single inbound connection). Its lock also serializes the
// hand-off of in-order frames to the host's handlers (see dispatch).
//
// inc is the inbox's incarnation, drawn at registration and stamped on
// every acknowledgement: a sender comparing incarnations across acks
// can tell a receiver that restarted (fresh inc, resequencing state
// gone — the link must rebase its stream) from one that merely lost a
// connection (same inc — replay + dedup suffice).
type inbox struct {
	host NodeID
	inc  uint64

	mu    sync.Mutex
	pairs map[NodeID]*pairState
	// lg, when non-nil, journals every committed in-order delivery
	// before it leaves the resequencer (write-ahead of the delivery and
	// of the ack — see DeliveryLog). Set before traffic via
	// SetDeliveryLog. glg is lg's batched face when it has one: frames
	// are then journaled without a barrier and parked on stage until
	// flushLocked commits the group and hands them on.
	lg  DeliveryLog
	glg GroupDeliveryLog
	// stage holds journaled, not yet committed deliveries in resequencer
	// order. It belongs to the inbox, not to a reader: frames of one
	// stream arriving on overlapping connections join one stage under
	// ib.mu, so they cannot reorder, and whichever reader owes an ack
	// flushes everything the ack will cover first. A pooled message in
	// the stage is owned by the transport until the flush hands it on.
	// The backing array is reused across groups.
	stage []delivery
}

// delivery is one in-order frame on its way to a handler. seq and epoch
// are the sender-assigned frame sequencing; they let sequence-aware
// handlers and observers audit the reconnect protocol. to is the
// destination node the host demultiplexes by.
type delivery struct {
	from  NodeID
	to    NodeID
	m     msg.Message
	seq   uint64
	epoch uint64
}

// tcpGroupMax bounds how many frames one group commit covers: a stage
// this full is flushed even though the decoder still has complete frames
// buffered, which bounds the memory the stage pins and how long the
// first frame of a read waits behind the journaling of the rest. It is
// the ack stride, so a steady stream closes a group exactly where its
// cumulative ack falls due anyway.
const tcpGroupMax = tcpAckStride

// pairState resequences one source host's frame stream. Within an epoch,
// sequence numbers start at 1 and increase by 1 per frame; a frame
// below next is a duplicate from a replay, a frame above it is held
// until the gap fills. A new epoch (sender restarted) resets the
// expectation. acked is the highest sequence number already reported
// back to the sender in a cumulative acknowledgement.
type pairState struct {
	epoch uint64
	next  uint64
	acked uint64
	held  map[uint64]heldFrame
}

// heldFrame is one out-of-order frame parked until its gap fills. The
// endpoints ride along because frames of one host stream fan out from
// and to different co-hosted nodes.
type heldFrame struct {
	m        msg.Message
	from, to NodeID
}

// tcpAckStride is how many contiguously delivered frames may accumulate
// before the receiver volunteers a cumulative acknowledgement on a data
// frame (acks are also sent for every ping and for the first frame of a
// new sender epoch). A stride amortizes the ack write across a batch of
// deliveries so the ack protocol does not halve ingress throughput.
const tcpAckStride = 64

// NewTCP returns a TCP transport with default options.
func NewTCP() *TCP { return NewTCPWithOptions(TCPOptions{}) }

// NewTCPWithOptions returns a TCP transport with explicit
// failure-handling options.
func NewTCPWithOptions(o TCPOptions) *TCP {
	return &TCP{
		opts:       o.withDefaults(),
		listeners:  make(map[NodeID]net.Listener),
		addrs:      make(map[NodeID]string),
		inboxes:    make(map[NodeID]*inbox),
		links:      make(map[link]*outLink),
		handlerMap: make(map[NodeID]Handler),
		done:       make(chan struct{}),
	}
}

// Observe attaches an observer to all subsequent traffic. Observers
// that also implement SeqObserver additionally receive each delivered
// frame's (epoch, seq) sequencing. An observer attached mid-traffic
// sees every send and delivery that loads the list after it.
func (t *TCP) Observe(o Observer) {
	t.mu.Lock()
	defer t.mu.Unlock()
	var next []Observer
	if cur := t.observers.Load(); cur != nil {
		next = append(next, *cur...)
	}
	next = append(next, o)
	t.observers.Store(&next)
}

// observerList returns the current observer snapshot (possibly nil).
func (t *TCP) observerList() []Observer {
	if cur := t.observers.Load(); cur != nil {
		return *cur
	}
	return nil
}

// setHandlerLocked (t.mu held) adds node's handler to the directory
// and marks the delivery snapshot stale.
func (t *TCP) setHandlerLocked(node NodeID, h Handler) {
	t.handlerMu.Lock()
	t.handlerMap[node] = h
	t.handlersStale.Store(true)
	t.handlerMu.Unlock()
}

// handler resolves node's handler from the directory snapshot,
// republishing the snapshot first if a registration left it stale.
func (t *TCP) handler(node NodeID) Handler {
	if t.handlersStale.Load() {
		t.handlerMu.Lock()
		if t.handlersStale.Load() {
			next := maps.Clone(t.handlerMap)
			t.handlers.Store(&next)
			t.handlersStale.Store(false)
		}
		t.handlerMu.Unlock()
	}
	if cur := t.handlers.Load(); cur != nil {
		return (*cur)[node]
	}
	return nil
}

// SetPeer records (or updates) the dial address of a host elsewhere —
// with no resolver installed, the address of a remote node, which is
// its own host.
func (t *TCP) SetPeer(host NodeID, addr string) {
	t.mu.Lock()
	defer t.mu.Unlock()
	t.addrs[host] = addr
}

// Stats returns a snapshot of the failure-handling counters.
func (t *TCP) Stats() TCPStats { return t.stats.snapshot() }

// Register implements Transport. It records the node's handler; the
// node's host listener carries its ingress. The handler is called on
// the host's connection reader goroutines, under the inbox lock (see
// Handler): calls into one host's handlers never overlap, and a
// handler must not wait for a later frame into the same host. With no
// resolver installed the node is its own host, and Register opens that
// host's loopback listener unless ListenHost already did. Under a
// resolver, a node placed on a local host shares that host's listener,
// and a node the resolver does not place, or places on a host with no
// local listener, is a programming error and panics — except while
// this transport listens for some host: then a migration target may
// register a node the resolver still places elsewhere.
func (t *TCP) Register(id NodeID, h Handler) {
	t.mu.Lock()
	host, placed := t.hostOfLocked(id)
	if !placed {
		t.mu.Unlock()
		panic(fmt.Sprintf("tcp: register node %d: the placement resolver does not place it", id))
	}
	_, local := t.listeners[host]
	switch {
	case local:
	case t.resolver == nil:
		// Identity placement: the node opens its own host's listener.
		// The handler goes in first so no frame finds the host without it.
		t.setHandlerLocked(id, h)
		t.mu.Unlock()
		if err := t.ListenHost(host, "127.0.0.1:0"); err != nil {
			panic(fmt.Sprintf("tcp: register node %d: %v", id, err))
		}
		return
	case len(t.listeners) > 0:
		// Dynamic placement: a migration target registers its shell
		// process while the resolver still maps the node to the old host
		// (routes flip only after the cut). Inbound frames dispatch by
		// destination id, so the handler works regardless of which
		// placement outbound resolution reports; record it and let the
		// routing catch up.
	default:
		t.mu.Unlock()
		panic(fmt.Sprintf("tcp: register node %d: placed on host %d, which has no local listener (ListenHost first, or the node belongs on the remote host)", id, host))
	}
	t.setHandlerLocked(id, h)
	t.mu.Unlock()
}

// ListenHost starts the single listener for a local host: one accept
// loop and one inbox carry the ingress of every node placed on the
// host. Host ids are non-negative.
func (t *TCP) ListenHost(host NodeID, addr string) error {
	if host < 0 {
		return fmt.Errorf("listen host %d: host ids must be non-negative", host)
	}
	ln, err := net.Listen("tcp", addr)
	if err != nil {
		return fmt.Errorf("listen %s: %w", addr, err)
	}
	ib := &inbox{host: host, inc: newEpoch(), pairs: make(map[NodeID]*pairState)}

	t.mu.Lock()
	if t.closed {
		t.mu.Unlock()
		ln.Close()
		return errors.New("transport closed")
	}
	if _, dup := t.listeners[host]; dup {
		t.mu.Unlock()
		ln.Close()
		return fmt.Errorf("listen host %d: already listening", host)
	}
	t.listeners[host] = ln
	t.addrs[host] = ln.Addr().String()
	t.inboxes[host] = ib
	t.mu.Unlock()

	t.wg.Add(1)
	go t.acceptLoop(ln, ib)
	return nil
}

// SetResolver installs the placement resolver: every node→host and
// remote host→address question is put to it. Install it before traffic
// begins; the resolver is read on every Send and each dial cycle, so a
// live directory (the cluster layer's) re-routes links as membership
// changes without any per-pair wiring.
func (t *TCP) SetResolver(r PlacementResolver) {
	t.mu.Lock()
	defer t.mu.Unlock()
	t.resolver = r
}

// hostOfLocked (t.mu held) maps a node to its owning host: the
// resolver's answer when one is installed, else the node itself.
func (t *TCP) hostOfLocked(node NodeID) (NodeID, bool) {
	if t.resolver != nil {
		return t.resolver.HostOf(node)
	}
	return node, true
}

// HostAddr returns the address recorded for a host: a local host's
// listen address (see ListenHost), or one SetPeer recorded.
func (t *TCP) HostAddr(host NodeID) string {
	t.mu.Lock()
	defer t.mu.Unlock()
	return t.addrs[host]
}

// ListenerCount reports how many TCP listeners the transport holds
// open: one per local host. The co-hosting regression tests pin it.
func (t *TCP) ListenerCount() int {
	t.mu.Lock()
	defer t.mu.Unlock()
	return len(t.listeners)
}

// LinkCount reports how many outbound links exist. Co-hosted traffic
// between two hosts shares one link per direction regardless of how
// many node pairs converse.
func (t *TCP) LinkCount() int {
	t.mu.Lock()
	defer t.mu.Unlock()
	return len(t.links)
}

// acceptLoop accepts inbound connections for one host and spawns a
// reader per connection.
func (t *TCP) acceptLoop(ln net.Listener, ib *inbox) {
	defer t.wg.Done()
	for {
		conn, err := ln.Accept()
		if err != nil {
			return // listener closed
		}
		t.mu.Lock()
		if t.closed {
			t.mu.Unlock()
			conn.Close()
			return
		}
		t.inConns = append(t.inConns, conn)
		t.mu.Unlock()
		t.wg.Add(1)
		go t.readLoop(conn, ib)
	}
}

// readLoop decodes envelopes from one connection into the host's
// resequencer and writes acknowledgements back on the same connection
// (the return path of the sender's stream — its watch goroutine
// consumes them). A read failure closes only this connection and is
// counted and published as a ConnReadError — the link's sender will
// replay anything the failure swallowed on its next connection, so
// co-hosted nodes and other links keep running. A stream that stops
// inside a frame (peer crash, orderly close mid-write, TCP reset) is
// the network's doing and ends there; bytes that do not decode (bad
// version, length, tag or ctl, an oversize frame) are also surfaced
// through OnError, since they mean a peer that speaks another protocol.
// A failed ack write is ignored: the connection is already dying and the
// sender re-solicits acknowledgement with its next ping.
//
// With a group-capable delivery log attached, receive journals and
// stages in-order frames, and the group — one commit, then the staged
// deliveries — stays open only while the decoder holds another complete
// frame: the loop tells receive whether the next Decode could block, and
// flushes on its way out, so a staged frame is never stranded behind a
// blocked or dead reader. The other two group boundaries (an ack falling
// due, a full stage) also close inside receive, under the inbox lock.
func (t *TCP) readLoop(conn net.Conn, ib *inbox) {
	defer t.wg.Done()
	dec := msg.NewPooledDecoder(conn)
	var enc *msg.Encoder // created on first ack
	for {
		env, err := dec.Decode()
		if err != nil {
			t.flush(ib)
			if err != io.EOF && !t.isClosed() {
				t.stats.readErrors.Add(1)
				t.event(ConnEvent{Kind: ConnReadError, To: ib.host,
					Addr: conn.RemoteAddr().String(), Err: err.Error()})
				if !errors.Is(err, msg.ErrTruncatedFrame) {
					t.report(fmt.Errorf("tcp: read for node %d from %s: %w", ib.host, conn.RemoteAddr(), err))
				}
			}
			conn.Close()
			return
		}
		if ack, due := t.receive(ib, env, dec.FrameBuffered()); due {
			if enc == nil {
				enc = msg.NewEncoder(conn)
			}
			if werr := enc.Encode(ack); werr == nil {
				t.stats.acksSent.Add(1)
			}
		}
	}
}

// receive runs the dedup/resequencing protocol for one frame and
// delivers — or, with a group-capable delivery log, journals and stages
// — everything that is now in order. Both happen under ib.mu so frames
// of one pair arriving on overlapping connections (old one draining
// while the replacement is live) cannot interleave, and so the host's
// handler calls never overlap. The lock is held across the delivery
// log's barrier and the handlers themselves, which is why a handler
// must not wait for a frame into the same host.
//
// more reports that the reader's decoder already holds another complete
// frame. When it does not, the reader may block before it comes back, so
// the stage is committed and delivered before the lock is released — in
// the same critical section that staged the frame, which is why a solo
// frame costs one lock round trip, as it did before there was a stage.
//
// The return value is the acknowledgement due back to the sender, if
// any: every ping is answered (that is the lease heartbeat), the first
// frame of a new sender epoch is acknowledged immediately (so a sender
// talking to a restarted receiver learns the new incarnation fast),
// and after that a cumulative ack is volunteered once per tcpAckStride
// contiguous deliveries. Every acknowledgement is built by ackLocked,
// which commits and delivers the stage first: an ack never covers a
// frame whose journal record is not yet behind a barrier.
//
// A data frame with Seq 0 is not part of the protocol (every link stamps
// from 1). Delivered, it would bypass deliverLocked — no journal record,
// no dedup — so it is dropped and reported through OnError, outside the
// lock; the group in front of it still closes if it ends the read.
func (t *TCP) receive(ib *inbox, env msg.Envelope, more bool) (ack msg.Envelope, due bool) {
	unsequenced := env.Ctl == msg.CtlData && env.Seq == 0
	ib.mu.Lock()
	if !unsequenced {
		ack, due = t.receiveLocked(ib, env)
	}
	if !more {
		t.flushLocked(ib)
	}
	ib.mu.Unlock()
	if unsequenced {
		msg.Recycle(env.Msg)
		t.report(fmt.Errorf("tcp: host %d dropped an unsequenced data frame %d->%d", ib.host, env.From, env.To))
	}
	return ack, due
}

// receiveLocked (ib.mu held) is receive's protocol step.
func (t *TCP) receiveLocked(ib *inbox, env msg.Envelope) (msg.Envelope, bool) {
	from := NodeID(env.From)
	to := NodeID(env.To)
	// Every co-hosted sender shares its host's stream, so the
	// resequencer keys on the source host, not the node.
	key := NodeID(env.SrcHost)
	switch env.Ctl {
	case msg.CtlPing:
		return t.ackLocked(ib, key, env.Epoch), true
	case msg.CtlAck:
		return msg.Envelope{}, false // acks belong on outbound return paths; ignore
	}
	ps := ib.pairs[key]
	fresh := ps == nil || ps.epoch != env.Epoch
	if fresh {
		// First frame of a (possibly new) sender incarnation: expect its
		// stream from the beginning. Replays always restart at seq 1.
		// Frames the old incarnation left parked in the resequencer are
		// stale — the new epoch restarts the pair's sequence space, so
		// their gaps can never fill — and are purged here rather than
		// left to age out one MaxHeldPerStream eviction at a time (a
		// restart storm would otherwise pin a full parking lot per
		// stream, and a numerically colliding sequence number could
		// even replay a stale frame into the new epoch's stream).
		if ps != nil && len(ps.held) > 0 {
			for _, hf := range ps.held {
				msg.Recycle(hf.m)
			}
			t.stats.heldPurged.Add(int64(len(ps.held)))
		}
		ps = &pairState{epoch: env.Epoch, next: 1, held: make(map[uint64]heldFrame)}
		ib.pairs[key] = ps
	}
	switch {
	case env.Seq < ps.next:
		t.stats.duplicates.Add(1)
		msg.Recycle(env.Msg)
		return t.ackLocked(ib, key, env.Epoch), true
	case env.Seq > ps.next:
		switch _, dup := ps.held[env.Seq]; {
		case dup:
			// A replayed copy of a frame already parked: drop the copy.
			msg.Recycle(env.Msg)
		case len(ps.held) >= t.opts.MaxHeldPerStream:
			// The stream's parking lot is full — a buggy or hostile
			// sender far ahead of its own sequence space could
			// otherwise pin unbounded memory here. Dropping is safe:
			// the cumulative ack never covers this frame, so the
			// sender's replay buffer re-delivers it once the gap
			// actually fills (or the connection cycles).
			t.stats.heldDropped.Add(1)
			msg.Recycle(env.Msg)
			return msg.Envelope{}, false
		default:
			ps.held[env.Seq] = heldFrame{m: env.Msg, from: from, to: to}
			t.stats.resequenced.Add(1)
		}
		if fresh {
			return t.ackLocked(ib, key, env.Epoch), true
		}
		return msg.Envelope{}, false
	}
	t.deliverLocked(ib, key, delivery{from: from, to: to, m: env.Msg, seq: ps.next, epoch: ps.epoch})
	ps.next++
	for {
		hf, ok := ps.held[ps.next]
		if !ok {
			break
		}
		delete(ps.held, ps.next)
		t.deliverLocked(ib, key, delivery{from: hf.from, to: hf.to, m: hf.m, seq: ps.next, epoch: ps.epoch})
		ps.next++
	}
	if fresh || ps.next-1 >= ps.acked+tcpAckStride {
		return t.ackLocked(ib, key, env.Epoch), true
	}
	return msg.Envelope{}, false
}

// deliverLocked (ib.mu held) is the single choke point every in-order
// frame passes on its way out of the resequencer, and where the
// delivery log sees it. Without a log the frame is handed on at once. A
// plain DeliveryLog journals it durably (one barrier per frame) and then
// it is handed on. A GroupDeliveryLog journals it without a barrier and
// the frame waits on the stage for flushLocked; if the log refuses the
// deferred append, everything already staged is committed and delivered
// first and this frame falls back to the per-frame contract, so stage
// order is still resequencer order.
func (t *TCP) deliverLocked(ib *inbox, key NodeID, d delivery) {
	switch {
	case ib.glg != nil:
		if ib.glg.AppendDelivery(key, true, d.epoch, d.seq, d.from, d.to, d.m) {
			ib.stage = append(ib.stage, d)
			if len(ib.stage) >= tcpGroupMax {
				t.flushLocked(ib)
			}
			return
		}
		t.flushLocked(ib)
		ib.lg.LogDelivery(key, true, d.epoch, d.seq, d.from, d.to, d.m)
	case ib.lg != nil:
		ib.lg.LogDelivery(key, true, d.epoch, d.seq, d.from, d.to, d.m)
	}
	t.dispatch(ib, d)
}

// flushLocked (ib.mu held) closes the current group: one commit over
// every staged frame's journal record, then the frames, in stage order.
// The commit comes first and nothing is handed on or acknowledged until
// it has returned — that is both write-ahead orderings of DESIGN.md §11.
func (t *TCP) flushLocked(ib *inbox) {
	if len(ib.stage) == 0 {
		return
	}
	ib.glg.CommitDeliveries()
	for i := range ib.stage {
		t.dispatch(ib, ib.stage[i])
		ib.stage[i] = delivery{} // the reused array must not pin the message
	}
	ib.stage = ib.stage[:0]
}

// dispatch (ib.mu held) hands one in-order frame to its handler on the
// calling reader goroutine: observers first, then the handler, then
// the recycle unless the handler retains the message. The inbox lock
// is what orders a stream's frames across overlapping connections, so
// holding it here makes the resequencer's order the handlers' order
// and keeps one host's handler calls from overlapping. The handler and
// observers come from atomic snapshots: a delivery takes no t.mu.
func (t *TCP) dispatch(ib *inbox, d delivery) {
	h := t.handler(d.to)
	if h == nil {
		// A frame for a node the host never registered: droppable
		// misconfiguration, not a crash — the rest of the host's
		// traffic must keep flowing.
		t.report(fmt.Errorf("tcp: host %d received frame for unregistered node %d", ib.host, d.to))
		msg.Recycle(d.m)
		return
	}
	for _, o := range t.observerList() {
		o.OnDeliver(d.from, d.to, d.m)
		if so, ok := o.(SeqObserver); ok {
			so.OnSequencedDeliver(d.from, d.to, d.epoch, d.seq, d.m)
		}
	}
	if seqh, ok := h.(SequencedHandler); ok {
		seqh.HandleSequenced(d.from, d.m, d.epoch, d.seq)
	} else {
		h.HandleMessage(d.from, d.m)
	}
	if _, retains := h.(MessageRetainer); !retains {
		msg.Recycle(d.m)
	}
}

// flush closes the inbox's current group from outside the lock.
func (t *TCP) flush(ib *inbox) {
	ib.mu.Lock()
	t.flushLocked(ib)
	ib.mu.Unlock()
}

// ackLocked (ib.mu held) builds the cumulative acknowledgement for one
// sender epoch: the highest contiguously delivered sequence number of
// that epoch (0 if the inbox has no state for it), stamped with the
// inbox incarnation. The stage is flushed first, whichever reader
// staged it: ps.next counts staged frames, and the ack must cover only
// committed ones.
func (t *TCP) ackLocked(ib *inbox, key NodeID, epoch uint64) msg.Envelope {
	t.flushLocked(ib)
	var ackTo uint64
	if ps := ib.pairs[key]; ps != nil && ps.epoch == epoch {
		ackTo = ps.next - 1
		ps.acked = ackTo
	}
	return msg.Envelope{
		From: int32(ib.host), To: int32(key),
		Epoch: epoch, Ctl: msg.CtlAck, Ack: ackTo, Inc: ib.inc,
	}
}

// Send implements Transport. It stamps the message with the link's
// next sequence number and enqueues it on the link's sender goroutine;
// it never blocks on the network and never panics on peer failure
// (dial and write errors are retried and surfaced through OnError).
// The first send on an ordered host pair creates the link.
func (t *TCP) Send(from, to NodeID, m msg.Message) {
	t.send(0, from, to, m)
}

// SendFromHost implements HostSender: the frame rides srcHost's own
// outbound stream to the destination's host, regardless of which host
// the nominal sender resolves to. Migration forwarding is the one
// caller: host A relays frames for a moved process on A's own stream so
// they can never interleave with the original sender's future direct
// stream to the new host. Only cluster hosts call it, and their ids
// are positive.
func (t *TCP) SendFromHost(srcHost, from, to NodeID, m msg.Message) {
	if srcHost <= 0 {
		panic(fmt.Sprintf("tcp: send from host %d: host ids must be positive", srcHost))
	}
	t.send(srcHost, from, to, m)
}

// send stamps the message with the link's next sequence number and
// enqueues it; pinnedSrc, when nonzero, overrides the sender-side host
// resolution (see SendFromHost). A frame whose endpoint the resolver
// does not place is reported and dropped: no link could ever dial it.
func (t *TCP) send(pinnedSrc, from, to NodeID, m msg.Message) {
	if m == nil {
		panic("tcp: send of nil message")
	}
	t.mu.Lock()
	if t.closed {
		t.mu.Unlock()
		return
	}
	src, srcPlaced := pinnedSrc, true
	if pinnedSrc == 0 {
		src, srcPlaced = t.hostOfLocked(from)
	}
	dst, dstPlaced := t.hostOfLocked(to)
	if !srcPlaced || !dstPlaced {
		t.mu.Unlock()
		msg.Recycle(m)
		t.report(fmt.Errorf("tcp: send %d->%d: the placement resolver does not place both nodes", from, to))
		return
	}
	k := link{from: src, to: dst}
	l, ok := t.links[k]
	if !ok {
		l = newOutLink(t, src, dst)
		t.links[k] = l
		t.wg.Add(1)
		go l.run()
		if t.opts.LeaseInterval > 0 {
			t.wg.Add(1)
			go l.leaseLoop()
		}
	}
	t.mu.Unlock()

	// Enqueue and notify observers under the link lock so the observed
	// send order matches the sequence numbers on the wire.
	l.mu.Lock()
	if l.closed {
		l.mu.Unlock()
		return
	}
	l.seq++
	l.queue = append(l.queue, msg.Envelope{
		From: int32(from), To: int32(to), SrcHost: int32(src), Seq: l.seq, Epoch: l.epoch, Msg: m,
	})
	for _, o := range t.observerList() {
		o.OnSend(from, to, m)
	}
	l.cond.Broadcast()
	l.mu.Unlock()
}

// ReplayBufferLen reports how many written-but-unacknowledged frames
// the (from,to) host link currently retains for replay (0 if the link
// does not exist). The acceptance bound for the ack protocol — history
// length never exceeds the unacked window after an ack exchange — is
// asserted against this.
func (t *TCP) ReplayBufferLen(from, to NodeID) int {
	t.mu.Lock()
	l := t.links[link{from: from, to: to}]
	t.mu.Unlock()
	if l == nil {
		return 0
	}
	l.mu.Lock()
	defer l.mu.Unlock()
	return len(l.sent)
}

// DropConnections forcibly closes every established connection, both
// inbound and outbound, without closing the transport — simulating a
// network blip. Links re-dial and replay; receivers dedup; the FIFO
// contract holds across the drop. Intended for tests and fault drills.
func (t *TCP) DropConnections() {
	t.mu.Lock()
	conns := t.inConns
	t.inConns = nil
	links := make([]*outLink, 0, len(t.links))
	for _, l := range t.links {
		links = append(links, l)
	}
	t.mu.Unlock()
	for _, c := range conns {
		c.Close()
	}
	for _, l := range links {
		l.breakConn()
	}
}

// Drain blocks until every link has flushed its accepted frames to the
// wire, or the timeout elapses; it reports whether the transport fully
// drained. Graceful shutdown uses it so batched writes still queued on
// link goroutines reach the peers before Close tears the links down
// (Close itself drops queued frames — the transport is exiting).
// Frames queued toward an unreachable peer keep the transport
// undrained until the deadline; callers decide whether that is worth
// reporting.
func (t *TCP) Drain(timeout time.Duration) bool {
	deadline := time.Now().Add(timeout)
	for {
		t.mu.Lock()
		links := make([]*outLink, 0, len(t.links))
		for _, l := range t.links {
			links = append(links, l)
		}
		closed := t.closed
		t.mu.Unlock()
		if closed {
			return false
		}
		idle := true
		for _, l := range links {
			l.mu.Lock()
			if !l.closed && len(l.queue) > 0 {
				idle = false
			}
			l.mu.Unlock()
			if !idle {
				break
			}
		}
		if idle {
			return true
		}
		if time.Now().After(deadline) {
			return false
		}
		select {
		case <-time.After(2 * time.Millisecond):
		case <-t.done:
			return false
		}
	}
}

// report surfaces a transport error through the configured callback.
func (t *TCP) report(err error) {
	if cb := t.opts.OnError; cb != nil {
		cb(err)
	}
}

// event publishes a connection-lifecycle event.
func (t *TCP) event(ev ConnEvent) {
	if cb := t.opts.OnConnEvent; cb != nil {
		cb(ev)
	}
}

// peerAddr looks up the current dial address of a host: a local
// listener or a SetPeer entry, else the resolver's member map.
func (t *TCP) peerAddr(host NodeID) (string, bool) {
	t.mu.Lock()
	defer t.mu.Unlock()
	if addr, ok := t.addrs[host]; ok {
		return addr, true
	}
	if t.resolver != nil {
		return t.resolver.AddrOf(host)
	}
	return "", false
}

// isClosed reports whether Close has begun.
func (t *TCP) isClosed() bool {
	t.mu.Lock()
	defer t.mu.Unlock()
	return t.closed
}

// Close shuts down listeners, links and connections and waits for
// every goroutine to exit.
func (t *TCP) Close() {
	t.mu.Lock()
	if t.closed {
		t.mu.Unlock()
		return
	}
	t.closed = true
	close(t.done)
	lns := make([]net.Listener, 0, len(t.listeners))
	for _, ln := range t.listeners {
		lns = append(lns, ln)
	}
	conns := t.inConns
	links := make([]*outLink, 0, len(t.links))
	for _, l := range t.links {
		links = append(links, l)
	}
	t.mu.Unlock()

	for _, ln := range lns {
		ln.Close()
	}
	for _, l := range links {
		l.close()
	}
	for _, c := range conns {
		c.Close()
	}
	t.wg.Wait()
}

var (
	_ Transport  = (*TCP)(nil)
	_ HostSender = (*TCP)(nil)
)
