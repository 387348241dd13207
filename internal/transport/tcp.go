package transport

import (
	"errors"
	"fmt"
	"io"
	"net"
	"sync"
	"time"

	"repro/internal/msg"
)

// TCP is a transport over real TCP sockets. Each registered node gets
// its own listener; a sender keeps one outbound link per ordered
// (from,to) pair, each with its own goroutine, queue, mutex and
// encoder, so a slow or unreachable peer stalls only its own link.
// Frames are binary-encoded, sequence-numbered envelopes (see
// msg.Envelope and DESIGN.md §9; TCPOptions.Codec can select the
// legacy gob format for mixed-version interop): the sequence numbers
// let the receiver drop duplicates
// and resequence frames replayed across a re-dialed connection, which
// preserves the per-ordered-pair FIFO guarantee the algorithm's proofs
// require even when connections fail.
//
// Failure handling: dials retry with exponential backoff; write and
// read failures tear down only the affected connection and are
// surfaced through TCPOptions.OnError rather than panicking; every
// frame written on a link is retained and replayed on reconnect, so a
// peer that crashes and restarts receives the link's full history
// (its previous incarnation's state is gone) while a peer that merely
// lost the connection dedups the replay by sequence number.
//
// All nodes may live in one process (the default, used by the livenet
// example and the integration tests) or the directory can be primed
// with remote addresses via SetPeer for genuinely distributed runs.
// SetPeer may also update an address: re-dial cycles re-read the
// directory, so a peer that restarts on a new port is reachable again
// once SetPeer records it.
//
// Host-level multiplexing: a deployment hosting many nodes per OS
// process calls ListenHost once (one listener for the whole host) and
// AssignNode for each node it hosts or knows to be hosted remotely.
// Register then skips the per-node loopback listener for assigned
// nodes, Send routes their traffic over one shared link per ordered
// host pair (Envelope.SrcHost names the stream; From/To still name the
// node endpoints), and the receiving host demultiplexes by Envelope.To.
// Unassigned nodes keep the legacy per-node addressing; both coexist
// on one transport.
type TCP struct {
	opts TCPOptions

	mu        sync.Mutex
	listeners map[NodeID]net.Listener
	addrs     map[NodeID]string
	links     map[link]*outLink
	inConns   []net.Conn
	inboxes   map[NodeID]*inbox
	observers []Observer
	closed    bool

	// Host-multiplexing state: one listener+inbox per local host, an
	// address directory per remote host, the node→host assignment and
	// the handler directory the host inboxes demultiplex into.
	hostLns   map[NodeID]net.Listener
	hostAddrs map[NodeID]string
	hostOf    map[NodeID]NodeID
	handlers  map[NodeID]Handler
	hostBoxes map[NodeID]*inbox

	// resolver, when set, answers placement and address questions the
	// static tables above cannot: node→host from a routing directory,
	// host→addr from a member map. Static entries win, so hand-wired
	// shims and the directory can coexist during the migration window.
	resolver PlacementResolver

	// done unblocks backoff sleeps and dial attempts on Close.
	done  chan struct{}
	wg    sync.WaitGroup
	stats tcpCounters
}

// inbox is the receive side of one registered node: the dispatch
// mailbox plus the per-sender resequencing state that survives
// connection drops (it must outlive any single inbound connection).
//
// inc is the inbox's incarnation, drawn at registration and stamped on
// every acknowledgement: a sender comparing incarnations across acks
// can tell a receiver that restarted (fresh inc, resequencing state
// gone — the link must rebase its stream) from one that merely lost a
// connection (same inc — replay + dedup suffice).
type inbox struct {
	node NodeID
	box  *mailbox
	inc  uint64

	mu    sync.Mutex
	pairs map[streamKey]*pairState
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
	stage []stagedDelivery
	// sinks memoizes the per-stream lock-free delivery sink (nil when
	// the stream's handler does not provide one, or observers were
	// attached at bind time). Keyed per stream — NOT per pairState —
	// so a sender epoch change keeps its session: frames of the new
	// epoch must flow through the same rings as the old one's, or the
	// two could race each other into the shards.
	sinks map[streamKey]StreamSink
}

// stagedDelivery is one journaled frame awaiting its group's commit.
type stagedDelivery struct {
	key streamKey
	d   delivery
}

// tcpGroupMax bounds how many frames one group commit covers: a stage
// this full is flushed even though the decoder still has complete frames
// buffered, which bounds the memory the stage pins and how long the
// first frame of a read waits behind the journaling of the rest. It is
// the ack stride, so a steady stream closes a group exactly where its
// cumulative ack falls due anyway.
const tcpGroupMax = tcpAckStride

// streamKey identifies one inbound frame stream: a sending host (host
// true — every co-hosted node shares the stream) or a single legacy
// sender node. The flag keeps a host id and a node id that happen to
// be numerically equal from aliasing each other's resequencing state.
type streamKey struct {
	id   NodeID
	host bool
}

// pairState resequences one sender's frame stream. Within an epoch,
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
		opts:      o.withDefaults(),
		listeners: make(map[NodeID]net.Listener),
		addrs:     make(map[NodeID]string),
		links:     make(map[link]*outLink),
		inboxes:   make(map[NodeID]*inbox),
		hostLns:   make(map[NodeID]net.Listener),
		hostAddrs: make(map[NodeID]string),
		hostOf:    make(map[NodeID]NodeID),
		handlers:  make(map[NodeID]Handler),
		hostBoxes: make(map[NodeID]*inbox),
		done:      make(chan struct{}),
	}
}

// Observe attaches an observer to all subsequent traffic. Observers
// that also implement SeqObserver additionally receive each delivered
// frame's (epoch, seq) sequencing. Attach observers before traffic
// begins: an inbound stream whose handler provides a lock-free
// StreamSink binds it at the stream's first frame when no observers
// are attached, and a stream already bound stays on the sink path —
// which bypasses delivery callbacks — for its lifetime.
func (t *TCP) Observe(o Observer) {
	t.mu.Lock()
	defer t.mu.Unlock()
	t.observers = append(t.observers, o)
}

// SetPeer records (or updates) the address of a node hosted elsewhere.
func (t *TCP) SetPeer(id NodeID, addr string) {
	t.mu.Lock()
	defer t.mu.Unlock()
	t.addrs[id] = addr
}

// Addr returns the listen address of a locally registered node.
func (t *TCP) Addr(id NodeID) string {
	t.mu.Lock()
	defer t.mu.Unlock()
	return t.addrs[id]
}

// Stats returns a snapshot of the failure-handling counters.
func (t *TCP) Stats() TCPStats {
	s := t.stats.snapshot()
	t.mu.Lock()
	for _, ib := range t.inboxes {
		if p := int64(ib.box.peakDepth()); p > s.MailboxPeak {
			s.MailboxPeak = p
		}
	}
	for _, ib := range t.hostBoxes {
		if p := int64(ib.box.peakDepth()); p > s.MailboxPeak {
			s.MailboxPeak = p
		}
	}
	t.mu.Unlock()
	return s
}

// Register implements Transport. A node assigned to a local host (see
// AssignNode/ListenHost) only records its handler — the host's single
// listener already carries its ingress, so co-hosted nodes do not each
// open a loopback listener. An unassigned node keeps the legacy
// behaviour: its own listener and accept loop.
func (t *TCP) Register(id NodeID, h Handler) {
	t.mu.Lock()
	if host, hosted := t.resolveHostLocked(id); hosted {
		if _, local := t.hostLns[host]; !local {
			if t.resolver != nil && len(t.hostLns) > 0 {
				// Dynamic placement: a migration target registers its
				// shell process while the resolver still maps the node to
				// the old host (routes flip only after the cut). Inbound
				// frames dispatch by destination id, so the handler works
				// regardless of which placement outbound resolution
				// reports; record it and let the routing catch up.
				t.handlers[id] = h
				t.mu.Unlock()
				return
			}
			t.mu.Unlock()
			panic(fmt.Sprintf("tcp: register node %d: assigned to host %d, which has no local listener (ListenHost first, or the node belongs on the remote host)", id, host))
		}
		t.handlers[id] = h
		t.mu.Unlock()
		return
	}
	t.mu.Unlock()
	if err := t.RegisterAddr(id, "127.0.0.1:0", h); err != nil {
		panic(fmt.Sprintf("tcp: register node %d: %v", id, err))
	}
}

// RegisterAddr registers a node listening on an explicit address.
func (t *TCP) RegisterAddr(id NodeID, addr string, h Handler) error {
	ln, err := net.Listen("tcp", addr)
	if err != nil {
		return fmt.Errorf("listen %s: %w", addr, err)
	}
	ib := &inbox{node: id, inc: newEpoch(), pairs: make(map[streamKey]*pairState), sinks: make(map[streamKey]StreamSink)}
	_, retains := h.(MessageRetainer)
	seqh, _ := h.(SequencedHandler)
	ib.box = newMailbox(h, func(d delivery) {
		t.mu.Lock()
		obs := t.observers
		t.mu.Unlock()
		for _, o := range obs {
			o.OnDeliver(d.from, id, d.m)
			if so, ok := o.(SeqObserver); ok && d.seq != 0 {
				so.OnSequencedDeliver(d.from, id, d.epoch, d.seq, d.m)
			}
		}
		if seqh != nil && d.seq != 0 {
			seqh.HandleSequenced(d.from, d.m, d.epoch, d.seq)
		} else {
			h.HandleMessage(d.from, d.m)
		}
		if !retains {
			msg.Recycle(d.m)
		}
	}, mailboxConfig{
		highWater: t.opts.MailboxHighWater,
		onPressure: func(engaged bool, depth int) {
			kind := ConnBackpressureOff
			if engaged {
				kind = ConnBackpressureOn
				t.stats.backpressure.Add(1)
			}
			t.event(ConnEvent{Kind: kind, To: id, Depth: depth})
		},
	})

	t.mu.Lock()
	if t.closed {
		t.mu.Unlock()
		ln.Close()
		ib.box.close()
		return errors.New("transport closed")
	}
	t.listeners[id] = ln
	t.addrs[id] = ln.Addr().String()
	t.inboxes[id] = ib
	t.handlers[id] = h
	t.mu.Unlock()

	t.wg.Add(1)
	go t.acceptLoop(ln, ib)
	return nil
}

// ListenHost starts the single listener for a local host: one accept
// loop and one inbox carry the ingress of every node later assigned to
// the host via AssignNode. Host ids must be positive (0 is the wire's
// legacy-addressing sentinel) and live in a namespace of their own —
// a host id never collides with a node id even when numerically equal.
func (t *TCP) ListenHost(host NodeID, addr string) error {
	if host <= 0 {
		return fmt.Errorf("listen host %d: host ids must be positive", host)
	}
	ln, err := net.Listen("tcp", addr)
	if err != nil {
		return fmt.Errorf("listen %s: %w", addr, err)
	}
	ib := &inbox{node: host, inc: newEpoch(), pairs: make(map[streamKey]*pairState), sinks: make(map[streamKey]StreamSink)}
	ib.box = newMailbox(nil, func(d delivery) {
		t.mu.Lock()
		h := t.handlers[d.to]
		obs := t.observers
		t.mu.Unlock()
		if h == nil {
			// A frame for a node the host never registered: droppable
			// misconfiguration, not a crash — the rest of the host's
			// traffic must keep flowing.
			t.report(fmt.Errorf("tcp: host %d received frame for unregistered node %d", host, d.to))
			msg.Recycle(d.m)
			return
		}
		for _, o := range obs {
			o.OnDeliver(d.from, d.to, d.m)
			if so, ok := o.(SeqObserver); ok && d.seq != 0 {
				so.OnSequencedDeliver(d.from, d.to, d.epoch, d.seq, d.m)
			}
		}
		if seqh, ok := h.(SequencedHandler); ok && d.seq != 0 {
			seqh.HandleSequenced(d.from, d.m, d.epoch, d.seq)
		} else {
			h.HandleMessage(d.from, d.m)
		}
		if _, retains := h.(MessageRetainer); !retains {
			msg.Recycle(d.m)
		}
	}, mailboxConfig{
		highWater: t.opts.MailboxHighWater,
		onPressure: func(engaged bool, depth int) {
			kind := ConnBackpressureOff
			if engaged {
				kind = ConnBackpressureOn
				t.stats.backpressure.Add(1)
			}
			t.event(ConnEvent{Kind: kind, To: host, Depth: depth})
		},
	})

	t.mu.Lock()
	if t.closed {
		t.mu.Unlock()
		ln.Close()
		ib.box.close()
		return errors.New("transport closed")
	}
	if _, dup := t.hostLns[host]; dup {
		t.mu.Unlock()
		ln.Close()
		ib.box.close()
		return fmt.Errorf("listen host %d: already listening", host)
	}
	t.hostLns[host] = ln
	t.hostAddrs[host] = ln.Addr().String()
	t.hostBoxes[host] = ib
	t.mu.Unlock()

	t.wg.Add(1)
	go t.acceptLoop(ln, ib)
	return nil
}

// SetResolver installs the placement resolver consulted whenever the
// static AssignNode/SetHostPeer tables have no entry for a node or
// host. Install it before traffic begins; the resolver is read on every
// Send and each dial cycle, so a live directory (the cluster layer's)
// re-routes links as membership changes without any per-pair wiring.
func (t *TCP) SetResolver(r PlacementResolver) {
	t.mu.Lock()
	defer t.mu.Unlock()
	t.resolver = r
}

// resolveHostLocked (t.mu held) maps a node to its owning host: the
// static AssignNode table first, then the placement resolver. ok=false
// means the node uses legacy per-node addressing.
func (t *TCP) resolveHostLocked(node NodeID) (NodeID, bool) {
	if h, ok := t.hostOf[node]; ok {
		return h, true
	}
	if t.resolver != nil {
		return t.resolver.HostOf(node)
	}
	return 0, false
}

// SetHostPeer records (or updates) the address of a host running
// elsewhere. Nodes assigned to that host become reachable through its
// one multiplexed link.
//
// Deprecated: hand-wired host directories are superseded by the
// directory API — install a PlacementResolver (transport.StaticPlacement
// or the cluster layer's Directory) via SetResolver instead. The shim
// remains for one release; static entries still take precedence.
func (t *TCP) SetHostPeer(host NodeID, addr string) {
	t.mu.Lock()
	defer t.mu.Unlock()
	t.hostAddrs[host] = addr
}

// HostAddr returns the listen address of a host (local or learned via
// SetHostPeer).
func (t *TCP) HostAddr(host NodeID) string {
	t.mu.Lock()
	defer t.mu.Unlock()
	return t.hostAddrs[host]
}

// AssignNode pins a node to a host. Outbound traffic to the node rides
// the shared per-host-pair link, and a local Register of the node skips
// the per-node listener. Assign before registering or sending; the
// assignment of a remote node routes sends, the assignment of a local
// node additionally suppresses its loopback listener.
//
// Deprecated: per-node pinning is superseded by the directory API —
// install a PlacementResolver (transport.StaticPlacement or the cluster
// layer's Directory) via SetResolver instead. The shim remains for one
// release; static assignments still take precedence over the resolver.
func (t *TCP) AssignNode(node, host NodeID) {
	if host <= 0 {
		panic(fmt.Sprintf("tcp: assign node %d: host ids must be positive, got %d", node, host))
	}
	t.mu.Lock()
	defer t.mu.Unlock()
	t.hostOf[node] = host
}

// ListenerCount reports how many TCP listeners the transport holds open
// (per-node legacy listeners plus per-host multiplexed ones). The
// co-hosting regression tests pin this to one per host.
func (t *TCP) ListenerCount() int {
	t.mu.Lock()
	defer t.mu.Unlock()
	return len(t.listeners) + len(t.hostLns)
}

// LinkCount reports how many outbound links exist. Co-hosted traffic
// between two hosts shares one link per direction regardless of how
// many node pairs converse.
func (t *TCP) LinkCount() int {
	t.mu.Lock()
	defer t.mu.Unlock()
	return len(t.links)
}

// acceptLoop accepts inbound connections for one node and spawns a
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

// readLoop decodes envelopes from one connection into the node's
// resequencer and writes acknowledgements back on the same connection
// (the return path of the sender's stream — its watch goroutine
// consumes them). A decode failure (peer crash, TCP reset, corrupt
// frame) closes only this connection and is surfaced through OnError —
// the link's sender will replay anything the failure swallowed on its
// next connection, so co-hosted nodes and other links keep running. A
// failed ack write is ignored: the connection is already dying and the
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
				t.event(ConnEvent{Kind: ConnReadError, To: ib.node,
					Addr: conn.RemoteAddr().String(), Err: err.Error()})
				t.report(fmt.Errorf("tcp: read for node %d from %s: %w", ib.node, conn.RemoteAddr(), err))
			}
			conn.Close()
			return
		}
		if ack, due := t.receive(ib, env, dec.FrameBuffered()); due {
			if enc == nil {
				// Answer in whatever format the sender speaks (sniffed
				// from its stream), so a legacy gob peer understands the
				// acknowledgements during the migration window.
				enc = msg.NewEncoderFormat(conn, dec.Format())
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
// while the replacement is live) cannot interleave; mailbox.put never
// blocks, so the only slow work the lock is ever held across is the
// delivery log's own barrier.
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
func (t *TCP) receive(ib *inbox, env msg.Envelope, more bool) (msg.Envelope, bool) {
	ib.mu.Lock()
	defer ib.mu.Unlock()
	ack, due := t.receiveLocked(ib, env)
	if !more {
		t.flushLocked(ib)
	}
	return ack, due
}

// receiveLocked (ib.mu held) is receive's protocol step.
func (t *TCP) receiveLocked(ib *inbox, env msg.Envelope) (msg.Envelope, bool) {
	from := NodeID(env.From)
	to := NodeID(env.To)
	// A nonzero SrcHost marks a host stream: every co-hosted sender
	// shares it, so the resequencer keys on the host, not the node.
	key := streamKey{id: from}
	if env.SrcHost != 0 {
		key = streamKey{id: NodeID(env.SrcHost), host: true}
	}
	switch env.Ctl {
	case msg.CtlPing:
		return t.ackLocked(ib, key, env.Epoch), true
	case msg.CtlAck:
		return msg.Envelope{}, false // acks belong on outbound return paths; ignore
	}
	if env.Seq == 0 { // unsequenced sender: deliver as-is, nothing to journal or ack
		ib.box.put(delivery{from: from, to: to, m: env.Msg})
		return msg.Envelope{}, false
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

// sinkLocked (ib.mu held) resolves the stream's lock-free delivery
// sink, binding it on first use. A stream binds at its first sequenced
// data frame: if the destination's handler provides sinks and no
// observers are attached, every subsequent in-order frame of the
// stream bypasses the dispatch mailbox. The nil verdict is memoized
// too — a stream is either on the sink path or the mailbox path for
// its whole life, never both, so the two can never reorder against
// each other. Streams whose first frame targets a not-yet-registered
// node stay unmemoized and retry the bind on the next frame.
func (t *TCP) sinkLocked(ib *inbox, key streamKey, to NodeID) StreamSink {
	if sink, resolved := ib.sinks[key]; resolved {
		return sink
	}
	t.mu.Lock()
	h := t.handlers[to]
	observed := len(t.observers) > 0
	t.mu.Unlock()
	if h == nil {
		return nil
	}
	var sink StreamSink
	if sp, ok := h.(SinkProvider); ok && !observed {
		sink = sp.BindStream()
	}
	ib.sinks[key] = sink
	return sink
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
func (t *TCP) deliverLocked(ib *inbox, key streamKey, d delivery) {
	switch {
	case ib.glg != nil:
		if ib.glg.AppendDelivery(key.id, key.host, d.epoch, d.seq, d.from, d.to, d.m) {
			ib.stage = append(ib.stage, stagedDelivery{key: key, d: d})
			if len(ib.stage) >= tcpGroupMax {
				t.flushLocked(ib)
			}
			return
		}
		t.flushLocked(ib)
		ib.lg.LogDelivery(key.id, key.host, d.epoch, d.seq, d.from, d.to, d.m)
	case ib.lg != nil:
		ib.lg.LogDelivery(key.id, key.host, d.epoch, d.seq, d.from, d.to, d.m)
	}
	t.handOffLocked(ib, key, d)
}

// handOffLocked (ib.mu held) gives one frame to the stream's sink when
// it has one, else to the dispatch mailbox; ownership of a pooled
// message passes with it.
func (t *TCP) handOffLocked(ib *inbox, key streamKey, d delivery) {
	if sink := t.sinkLocked(ib, key, d.to); sink != nil && sink.DeliverStream(d.from, d.to, d.m) {
		return
	}
	ib.box.put(d)
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
		sd := &ib.stage[i]
		t.handOffLocked(ib, sd.key, sd.d)
		*sd = stagedDelivery{} // the reused array must not pin the message
	}
	ib.stage = ib.stage[:0]
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
func (t *TCP) ackLocked(ib *inbox, key streamKey, epoch uint64) msg.Envelope {
	t.flushLocked(ib)
	var ackTo uint64
	if ps := ib.pairs[key]; ps != nil && ps.epoch == epoch {
		ackTo = ps.next - 1
		ps.acked = ackTo
	}
	return msg.Envelope{
		From: int32(ib.node), To: int32(key.id),
		Epoch: epoch, Ctl: msg.CtlAck, Ack: ackTo, Inc: ib.inc,
	}
}

// Send implements Transport. It stamps the message with the link's
// next sequence number and enqueues it on the link's sender goroutine;
// it never blocks on the network and never panics on peer failure
// (dial and write errors are retried and surfaced through OnError).
// The first send on an ordered pair creates the link.
func (t *TCP) Send(from, to NodeID, m msg.Message) {
	t.send(0, from, to, m)
}

// SendFromHost implements HostSender: the frame rides srcHost's own
// outbound stream to the destination's host, regardless of which host
// the nominal sender resolves to. Migration forwarding is the one
// caller: host A relays frames for a moved process on A's own stream so
// they can never interleave with the original sender's future direct
// stream to the new host.
func (t *TCP) SendFromHost(srcHost, from, to NodeID, m msg.Message) {
	if srcHost <= 0 {
		panic(fmt.Sprintf("tcp: send from host %d: host ids must be positive", srcHost))
	}
	t.send(srcHost, from, to, m)
}

// send stamps the message with the link's next sequence number and
// enqueues it; pinnedSrc, when nonzero, overrides the sender-side host
// resolution (see SendFromHost).
func (t *TCP) send(pinnedSrc, from, to NodeID, m msg.Message) {
	if m == nil {
		panic("tcp: send of nil message")
	}
	t.mu.Lock()
	if t.closed {
		t.mu.Unlock()
		return
	}
	obs := t.observers
	// Resolve the link endpoints through the host assignment: traffic
	// from/to a hosted node rides the per-host-pair link (one shared
	// stream, stamped with SrcHost), everything else keeps the legacy
	// per-node-pair link.
	srcKey, srcHost := from, int32(0)
	if pinnedSrc != 0 {
		srcKey, srcHost = pinnedSrc, int32(pinnedSrc)
	} else if h, hosted := t.resolveHostLocked(from); hosted {
		srcKey, srcHost = h, int32(h)
	}
	dstKey, dstIsHost := to, false
	if h, hosted := t.resolveHostLocked(to); hosted {
		dstKey, dstIsHost = h, true
	}
	k := link{from: srcKey, to: dstKey}
	l, ok := t.links[k]
	if !ok {
		l = newOutLink(t, srcKey, dstKey, srcHost, dstIsHost)
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
		From: int32(from), To: int32(to), SrcHost: srcHost, Seq: l.seq, Epoch: l.epoch, Msg: m,
	})
	for _, o := range obs {
		o.OnSend(from, to, m)
	}
	l.cond.Broadcast()
	l.mu.Unlock()
}

// ReplayBufferLen reports how many written-but-unacknowledged frames
// the (from,to) link currently retains for replay (0 if the link does
// not exist). The acceptance bound for the ack protocol — history
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

// peerAddr looks up the current directory entry for a link target —
// the host directory for multiplexed links, the node directory for
// legacy ones.
func (t *TCP) peerAddr(id NodeID, host bool) (string, bool) {
	t.mu.Lock()
	defer t.mu.Unlock()
	if host {
		if addr, ok := t.hostAddrs[id]; ok {
			return addr, ok
		}
		if t.resolver != nil {
			return t.resolver.AddrOf(id)
		}
		return "", false
	}
	addr, ok := t.addrs[id]
	return addr, ok
}

// isClosed reports whether Close has begun.
func (t *TCP) isClosed() bool {
	t.mu.Lock()
	defer t.mu.Unlock()
	return t.closed
}

// Close shuts down listeners, links, connections and mailboxes and
// waits for every goroutine to exit.
func (t *TCP) Close() {
	t.mu.Lock()
	if t.closed {
		t.mu.Unlock()
		return
	}
	t.closed = true
	close(t.done)
	lns := make([]net.Listener, 0, len(t.listeners)+len(t.hostLns))
	for _, ln := range t.listeners {
		lns = append(lns, ln)
	}
	for _, ln := range t.hostLns {
		lns = append(lns, ln)
	}
	conns := t.inConns
	links := make([]*outLink, 0, len(t.links))
	for _, l := range t.links {
		links = append(links, l)
	}
	boxes := make([]*mailbox, 0, len(t.inboxes)+len(t.hostBoxes))
	for _, ib := range t.inboxes {
		boxes = append(boxes, ib.box)
	}
	for _, ib := range t.hostBoxes {
		boxes = append(boxes, ib.box)
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
	for _, b := range boxes {
		b.close()
	}
}

var (
	_ Transport  = (*TCP)(nil)
	_ HostSender = (*TCP)(nil)
)
