package engine

import (
	"fmt"
	"maps"
	"sort"
	"sync"
	"sync/atomic"
	"time"

	"repro/internal/msg"
	"repro/internal/transport"
	"repro/internal/wal"
)

// Options configures a Host. The zero value is valid: one shard, no
// underlying transport (intra-host traffic only).
type Options struct {
	// Shards is the number of single-writer event loops. Processes are
	// pinned to shards by id (stable affinity: node % Shards), so two
	// messages to the same process always execute on the same
	// goroutine. Default 1.
	Shards int
	// Transport is the underlying wire transport for processes not
	// hosted here. nil means the Host is self-contained: a send to an
	// unhosted node panics, matching the in-process transports'
	// contract.
	Transport transport.Transport
	// HostID names this engine's host in a host-multiplexed topology
	// (0 when unhosted). Migration forwarding needs it: frames relayed
	// for a moved process are pinned to this host's own outbound stream
	// (transport.HostSender) so they cannot interleave with the original
	// sender's future direct stream to the new host.
	HostID transport.NodeID
	// ShardOf overrides the default node%Shards pinning — the hook the
	// cluster layer uses to let placement decide shard affinity. It must
	// be a pure function of the id; an out-of-range return falls back to
	// the default.
	ShardOf func(node transport.NodeID) int
}

// Host multiplexes many engine processes onto N single-writer shards
// and (optionally) one underlying transport endpoint. It implements
// transport.Transport, so engines register on it exactly as they would
// on a wire transport, and RunnerProvider, so registered engines
// serialize their public API through the owning shard instead of a
// private mutex.
//
// The paper's atomic-step property ("a process acts on one message at
// a time") was previously enforced twice per process: a dispatcher
// goroutine per transport node plus a mutex per process. The Host
// enforces it once: every step of a process — message delivery, public
// API call, recovery verdict — executes on its shard's loop goroutine.
// One goroutine per shard, thousands of processes per goroutine, no
// lock on the delivery path.
//
// Intra-host sends append straight to the destination shard's queue:
// no wire, no encode, no dispatcher handoff. Sends to unhosted nodes
// forward to the underlying transport; inbound frames from it are
// enqueued on the owning shard via the registered shim.
type Host struct {
	under   transport.Transport
	shards  []*shard
	hostID  transport.NodeID
	shardOf func(node transport.NodeID) int
	epoch   time.Time // zero of the shard wheels' clock (wheel.go)

	mu     sync.RWMutex
	procs  map[transport.NodeID]*proc
	closed bool

	// pendingPark (h.mu) marks nodes whose next Register must land
	// parked — the migration target's shell registration (see
	// PrepareMigration in migrate.go).
	pendingPark map[transport.NodeID]bool

	// gates is the outbound send-gate table of the migration flush
	// protocol (migrate.go): nil on the hot path, one atomic load per
	// send otherwise. gateMu serializes copy-on-write republishes.
	gates  atomic.Pointer[map[transport.NodeID]*sendGate]
	gateMu sync.Mutex

	// ctlHook, when set, intercepts msg.Cluster frames addressed to
	// hosted processes on the delivery path — the cluster agent's
	// flush markers ride the data streams of the very processes they
	// fence (migrate.go).
	ctlHook atomic.Pointer[func(from, to transport.NodeID, c msg.Cluster)]

	migsOut      atomic.Uint64
	migsIn       atomic.Uint64
	migForwarded atomic.Uint64
	migReplayed  atomic.Uint64

	// procsA is the lock-free read side of procs: a snapshot Send
	// resolves a destination from with atomic loads instead of an RLock
	// per message. Register only marks it stale (procsStale), so
	// registering n processes costs O(n) rather than a copy each; the
	// first reader that sees the mark republishes it under mu.
	procsA     atomic.Pointer[map[transport.NodeID]*proc]
	procsStale atomic.Bool
	closedA    atomic.Bool

	// observers is read once per send/delivery on the hot path, so it
	// is published with an atomic pointer instead of taking h.mu.
	observers atomic.Pointer[[]transport.Observer]

	intraSends  atomic.Uint64
	remoteSends atomic.Uint64
	remoteRecvs atomic.Uint64

	// Durability state (checkpoint.go). walLog is nil until AttachWAL;
	// every field below is idle — and off the hot path — without it.
	// walGate is the checkpoint cut: journal holds it shared per frame,
	// Checkpoint exclusively while marshaling. walMu serializes appends
	// (walScratch is shared) and guards walOpen, the records appended
	// since the last commit — what a failed commit loses. walLogged and
	// walStepped count journaled frames and their completed steps; the
	// cut waits for equality, which is what makes a checkpoint a
	// consistent prefix of the log. replaying marks the restore window:
	// observers are bypassed (they would double-count the original
	// deliveries) and remote sends are muted (their frames are already
	// on the wire or covered by a peer's replay buffer).
	walLog     atomic.Pointer[wal.Log]
	walGen     atomic.Uint64
	walHooks   DurabilityHooks
	walGate    sync.RWMutex
	walMu      sync.Mutex
	walScratch []byte
	walOpen    uint64
	walLogged  atomic.Uint64
	walStepped atomic.Uint64
	walErrs    atomic.Uint64
	replaying  atomic.Bool
	mutedSends atomic.Uint64
	ckpts      atomic.Uint64
	replayed   atomic.Uint64
	staleGen   atomic.Uint64

	wg sync.WaitGroup
}

// proc is one hosted process: its handler, the optional fast-path and
// recovery faces of that handler, and its pinned shard.
type proc struct {
	node  transport.NodeID
	h     transport.Handler
	logic Logic
	rec   RecoveryLogic
	ann   ReannouncingLogic
	snap  Snapshotter
	tl    TimerLogic
	sh    *shard
	// mig is non-nil while the process is migrating (parked or
	// forwarding). It is written only before the proc is published
	// (Register of a migration shell) or on the owning shard's loop
	// goroutine (Park/Extract/Install), and read on that same
	// goroutine by deliver — nil on every non-migrating hot path.
	mig *migration
}

// HostStats is a snapshot of a Host's traffic counters.
type HostStats struct {
	// IntraSends counts messages delivered hosted-process to
	// hosted-process without touching the underlying transport.
	IntraSends uint64
	// RemoteSends counts messages forwarded to the underlying
	// transport; RemoteRecvs counts inbound deliveries from it.
	RemoteSends uint64
	RemoteRecvs uint64
	// Batches counts shard queue drains; MaxBatch is the largest single
	// drain. Events counts everything the shards executed through their
	// queues (deliveries, API calls, recovery steps).
	Batches  uint64
	Events   uint64
	MaxBatch int
	// RingEvents and RingSpills are always 0. They counted the
	// per-stream SPSC rings, a second shard ingress that has been
	// removed: every wire frame now reaches its shard through the
	// transport's socket reader and the inbound shim. The fields stay
	// because the repo benchmark still reads them (engine.ring_share,
	// engine.ring_spills_per_kframe).
	RingEvents uint64
	RingSpills uint64
	// Migration counters (migrate.go). MigrationsOut/In count completed
	// extract/install handoffs; FramesForwarded counts frames relayed
	// to a process's new host; FramesReplayed counts parked frames
	// stepped by an install (shipped plus shell-parked).
	MigrationsOut   uint64
	MigrationsIn    uint64
	FramesForwarded uint64
	FramesReplayed  uint64
	// Durability counters, all zero without an attached WAL.
	// CheckpointsTaken counts completed checkpoints; RecordsAppended
	// counts envelope frames journaled to the WAL; TailReplayed counts
	// frames re-delivered from the log by Restore; TornRecordsDropped
	// counts corrupt/torn log regions truncated at open;
	// StaleGenDropped counts replayed records fenced for carrying a
	// stale durability generation; MutedReplaySends counts remote
	// sends suppressed during replay; WALErrors counts frames delivered
	// without a journal record known to be durable: append/encode
	// failures one by one, and every frame of a group whose commit
	// failed.
	CheckpointsTaken   uint64
	RecordsAppended    uint64
	TailReplayed       uint64
	TornRecordsDropped uint64
	StaleGenDropped    uint64
	MutedReplaySends   uint64
	WALErrors          uint64
}

// NewHost starts the shard loops and returns the Host. Close must be
// called to stop them.
func NewHost(opts Options) *Host {
	n := opts.Shards
	if n <= 0 {
		n = 1
	}
	h := &Host{
		under:   opts.Transport,
		hostID:  opts.HostID,
		shardOf: opts.ShardOf,
		epoch:   time.Now(),
		procs:   make(map[transport.NodeID]*proc),
	}
	h.shards = make([]*shard, n)
	for i := range h.shards {
		s := newShard(h)
		s.idx = i
		h.shards[i] = s
		h.wg.Add(1)
		go s.loop()
	}
	return h
}

// proc resolves a hosted destination through the snapshot — atomic
// loads, no lock once the snapshot is current.
func (h *Host) proc(node transport.NodeID) *proc {
	return h.procSnapshot()[node]
}

// procSnapshot returns the current snapshot of procs, republishing it
// first if a Register since the last one left it stale. It takes mu
// then, so no caller may hold mu.
func (h *Host) procSnapshot() map[transport.NodeID]*proc {
	if h.procsStale.Load() {
		h.mu.Lock()
		if h.procsStale.Load() {
			snap := maps.Clone(h.procs)
			h.procsA.Store(&snap)
			h.procsStale.Store(false)
		}
		h.mu.Unlock()
	}
	if mp := h.procsA.Load(); mp != nil {
		return *mp
	}
	return nil
}

// ShardOf returns the index of the shard that owns node. Affinity is a
// pure function of the id (the Options.ShardOf override or the default
// node%Shards), so it is stable across registration order, peer churn,
// and restarts.
func (h *Host) ShardOf(node transport.NodeID) int {
	if h.shardOf != nil {
		if i := h.shardOf(node); i >= 0 && i < len(h.shards) {
			return i
		}
	}
	return int(uint32(node) % uint32(len(h.shards)))
}

// Shards returns the number of shard loops.
func (h *Host) Shards() int { return len(h.shards) }

// Runner implements RunnerProvider: public API calls of node serialize
// through its owning shard's loop.
func (h *Host) Runner(node transport.NodeID) Runner {
	return shardRunner{s: h.shards[h.ShardOf(node)]}
}

// Observe attaches an Observer. OnSend fires for every message a
// hosted process sends (intra-host and forwarded alike); OnDeliver
// fires on the owning shard immediately before the destination
// process's step. Together they give metrics.Counters the same
// sent==delivered quiescence invariant the wire transports provide.
func (h *Host) Observe(o transport.Observer) {
	h.mu.Lock()
	defer h.mu.Unlock()
	var next []transport.Observer
	if cur := h.observers.Load(); cur != nil {
		next = append(next, *cur...)
	}
	next = append(next, o)
	h.observers.Store(&next)
}

// observerList returns the current observer slice (possibly nil).
func (h *Host) observerList() []transport.Observer {
	if cur := h.observers.Load(); cur != nil {
		return *cur
	}
	return nil
}

// Register pins node to its shard and installs h as its handler. If
// the handler implements Logic, shards call Step directly (the
// lock-free hot path); otherwise they fall back to HandleMessage. When
// an underlying transport is present, a shim is registered there so
// wire frames for node are enqueued on the owning shard.
func (h *Host) Register(node transport.NodeID, handler transport.Handler) {
	p := &proc{node: node, h: handler, sh: h.shards[h.ShardOf(node)]}
	p.logic, _ = handler.(Logic)
	p.rec, _ = handler.(RecoveryLogic)
	p.ann, _ = handler.(ReannouncingLogic)
	p.snap, _ = handler.(Snapshotter)
	p.tl, _ = handler.(TimerLogic)
	h.mu.Lock()
	if h.pendingPark[node] {
		// The registration is a migration shell: it parks every delivery
		// until InstallMigration replays the shipped state into it.
		p.mig = &migration{}
		delete(h.pendingPark, node)
	}
	h.procs[node] = p
	h.procsStale.Store(true)
	h.mu.Unlock()
	if h.under != nil {
		h.under.Register(node, inboundShim{h: h, p: p})
	}
}

// inboundShim enqueues wire deliveries for one hosted process on its
// owning shard.
type inboundShim struct {
	h *Host
	p *proc
}

func (s inboundShim) HandleMessage(from transport.NodeID, m msg.Message) {
	s.h.remoteRecvs.Add(1)
	s.p.sh.enqueue(event{p: s.p, from: from, m: m})
}

// HandleSequenced implements transport.SequencedHandler: a dispatch-
// path delivery that went through the resequencer — and therefore
// through the write-ahead log when one is attached — is flagged so
// deliver can account its step against the log (the checkpoint cut
// waits for logged == stepped).
func (s inboundShim) HandleSequenced(from transport.NodeID, m msg.Message, epoch, seq uint64) {
	s.h.remoteRecvs.Add(1)
	s.p.sh.enqueue(event{p: s.p, from: from, m: m, seqd: true})
}

// RetainsMessages marks the shim as taking ownership of delivered
// messages (transport.MessageRetainer): HandleMessage enqueues the
// message for the shard loop, so the transport must not recycle it on
// return — Host.deliver recycles after the process's step instead.
func (s inboundShim) RetainsMessages() {}

// Send implements transport.Transport. A destination hosted here is a
// direct append to its shard's queue — the intra-host fast path; any
// other destination forwards to the underlying transport.
func (h *Host) Send(from, to transport.NodeID, m msg.Message) {
	if h.closedA.Load() {
		return
	}
	p := h.proc(to)
	if h.replaying.Load() {
		// WAL tail replay: intra-host cascades re-derive deterministic
		// local state, but remote sends are muted — their originals
		// left on the wire before the crash (or are re-sent by the
		// peer's replay buffer), and observers never see replay
		// traffic, or quiescence counters would double-count.
		if p != nil {
			h.intraSends.Add(1)
			p.sh.enqueue(event{p: p, from: from, m: m})
			return
		}
		h.mutedSends.Add(1)
		return
	}
	if h.gateSend(from, to, m) {
		return
	}
	for _, o := range h.observerList() {
		o.OnSend(from, to, m)
	}
	if p != nil {
		h.intraSends.Add(1)
		p.sh.enqueue(event{p: p, from: from, m: m})
		return
	}
	if h.under == nil {
		panic(fmt.Sprintf("engine: send to unhosted node %d with no underlying transport", to))
	}
	h.remoteSends.Add(1)
	h.under.Send(from, to, m)
}

// PeerDown routes a liveness verdict to every hosted process as one
// serialized recovery step each, on the owning shard. Processes whose
// handlers do not implement RecoveryLogic are skipped.
func (h *Host) PeerDown(peer transport.NodeID) {
	h.eachRecovery(func(p *proc) {
		p.sh.enqueue(event{cmd: stepFunc(func() { p.rec.StepPeerDown(peer) })})
	})
}

// PeerUp routes a recovery verdict to every hosted process. When
// reannounce is true (the transport observed a restarted incarnation)
// processes implementing ReannouncingLogic additionally re-announce
// surviving state to the peer.
func (h *Host) PeerUp(peer transport.NodeID, reannounce bool) {
	h.eachRecovery(func(p *proc) {
		ann := p.ann
		p.sh.enqueue(event{cmd: stepFunc(func() {
			p.rec.StepPeerUp(peer)
			if reannounce && ann != nil {
				ann.StepReannounce(peer)
			}
		})})
	})
}

func (h *Host) eachRecovery(visit func(p *proc)) {
	for _, p := range h.procsWhere(func(p *proc) bool { return p.rec != nil }) {
		visit(p)
	}
}

// procsWhere returns the hosted processes keep accepts, sorted by node,
// so a recovery fan-out enqueues on each shard in the same order every
// run rather than in map order.
func (h *Host) procsWhere(keep func(p *proc) bool) []*proc {
	h.mu.RLock()
	procs := make([]*proc, 0, len(h.procs))
	for _, p := range h.procs {
		if keep(p) {
			procs = append(procs, p)
		}
	}
	h.mu.RUnlock()
	sort.Slice(procs, func(i, j int) bool { return procs[i].node < procs[j].node })
	return procs
}

// deliver runs one queued delivery on the shard goroutine: observers
// first, then the process's step, then the recycle that completes the
// pooled frame's ownership chain (a no-op for value messages, which is
// everything intra-host senders produce).
func (h *Host) deliver(ev event) {
	if mg := ev.p.mig; mg != nil {
		// The process is migrating: park the frame (pre-snapshot, or a
		// shell awaiting install) or relay it to the new host. Neither
		// path steps the process here, and observers stay silent — the
		// frame's one OnDeliver fires where it is finally stepped.
		h.deliverMigrating(ev, mg)
		return
	}
	if hook := h.ctlHook.Load(); hook != nil {
		if c, ok := ev.m.(msg.Cluster); ok {
			// A cluster control frame riding the process's data stream (a
			// migration flush marker): consumed by the agent, invisible to
			// the process and the observers.
			(*hook)(ev.from, ev.p.node, c)
			if ev.seqd {
				h.walStepped.Add(1)
			}
			return
		}
	}
	if !h.replaying.Load() {
		for _, o := range h.observerList() {
			o.OnDeliver(ev.from, ev.p.node, ev.m)
		}
	}
	if ev.p.logic != nil {
		ev.p.logic.Step(ev.from, ev.m)
	} else {
		ev.p.h.HandleMessage(ev.from, ev.m)
	}
	msg.Recycle(ev.m)
	if ev.seqd {
		// Counted after the step so the checkpoint cut's
		// logged == stepped equality means "fully applied".
		h.walStepped.Add(1)
	}
}

// Stats returns a snapshot of the Host's counters.
func (h *Host) Stats() HostStats {
	st := HostStats{
		IntraSends:       h.intraSends.Load(),
		RemoteSends:      h.remoteSends.Load(),
		RemoteRecvs:      h.remoteRecvs.Load(),
		MigrationsOut:    h.migsOut.Load(),
		MigrationsIn:     h.migsIn.Load(),
		FramesForwarded:  h.migForwarded.Load(),
		FramesReplayed:   h.migReplayed.Load(),
		CheckpointsTaken: h.ckpts.Load(),
		RecordsAppended:  h.walLogged.Load(),
		TailReplayed:     h.replayed.Load(),
		StaleGenDropped:  h.staleGen.Load(),
		MutedReplaySends: h.mutedSends.Load(),
		WALErrors:        h.walErrs.Load(),
	}
	if w := h.walLog.Load(); w != nil {
		st.TornRecordsDropped = w.Stats().TornRecordsDropped
	}
	for _, s := range h.shards {
		b, e, m := s.counters()
		st.Batches += b
		st.Events += e
		if m > st.MaxBatch {
			st.MaxBatch = m
		}
	}
	return st
}

// Drain blocks until every shard queue is empty and idle. It is a test
// and benchmark aid; quiescence of the protocol itself is still judged
// by observer counters.
func (h *Host) Drain() {
	for _, s := range h.shards {
		s.drain()
	}
}

// Close stops the shard loops after draining their queues. The
// underlying transport is not closed (the caller owns it).
func (h *Host) Close() {
	h.mu.Lock()
	if h.closed {
		h.mu.Unlock()
		return
	}
	h.closed = true
	h.closedA.Store(true)
	h.mu.Unlock()
	for _, s := range h.shards {
		s.close()
	}
	h.wg.Wait()
}

// event is one unit of shard work: a message delivery (p/from/m) or a
// command step (cmd). A command posted through Effects.Post carries the
// posting process's fx and runs through fx.Run, its callbacks after it;
// any other (a query's rendezvous, a recovery verdict) runs bare. seqd
// marks a delivery that arrived through the transport's resequencer —
// journaled by the WAL when one is attached — so deliver can count its
// step for the checkpoint cut. The fields are ordered so the event
// stays seven words.
type event struct {
	p    *proc
	fx   *Effects
	m    msg.Message
	cmd  Command
	from transport.NodeID
	seqd bool
}

// stepFunc is a function step as a Command. A func value is one pointer,
// so boxing it allocates nothing beyond the closure itself.
type stepFunc func()

func (f stepFunc) Step() { f() }

// rendezvous is Exec's command: the step, and the channel its caller
// waits on. The channel has room for the one signal Step sends, so the
// loop never blocks on it and a rendezvous is pooled with its channel.
type rendezvous struct {
	fn   func()
	done chan struct{}
}

var rendezvousPool = sync.Pool{New: func() any { return &rendezvous{done: make(chan struct{}, 1)} }}

func (r *rendezvous) Step() {
	r.fn()
	r.done <- struct{}{}
}

// shard is one single-writer event loop. All state of every process
// pinned to the shard is read and written only by the loop goroutine;
// the mutex guards the queue handoff, never process state.
type shard struct {
	h    *Host
	idx  int
	mu   sync.Mutex
	cond *sync.Cond
	// straggler serializes post-close Exec calls against each other
	// (the loop is gone by then); it is separate from mu so a straggler
	// step may still enqueue (which is a clean no-op) without
	// self-deadlocking.
	straggler sync.Mutex
	// queue/spare double-buffer: producers append to queue while the
	// loop walks the previously swapped-out batch.
	queue  []event
	spare  []event
	closed bool
	idle   bool
	// closedA mirrors closed for readers that do not take mu.
	closedA atomic.Bool
	// gid is the loop goroutine's id and stepping is raised by the loop
	// around each batch: what shardRunner.Exec needs to run a nested call
	// inline instead of self-deadlocking.
	gid      atomic.Uint64
	stepping atomic.Bool
	// wheel holds the timers hosted processes arm (wheel.go); only the
	// loop goroutine touches it. tick is the one reusable time.Timer that
	// ends a park at the next boundary a pending entry can fall due at;
	// tickAt (mu) is the boundary it is armed for, 0 when none, and
	// tickDue (mu) tells the parked loop that a boundary has passed.
	wheel    timerWheel
	tick     *time.Timer
	tickAt   int64
	tickDue  bool
	batches  uint64
	events   uint64
	maxBatch int
}

func newShard(h *Host) *shard {
	s := &shard{h: h}
	s.cond = sync.NewCond(&s.mu)
	return s
}

// enqueue appends one event, reporting false if the shard is closed.
// Broadcast rather than Signal: drain waiters share the condition
// variable with the loop, and waking one of them instead of the loop
// would strand the queue.
func (s *shard) enqueue(ev event) bool {
	s.mu.Lock()
	if s.closed {
		s.mu.Unlock()
		return false
	}
	s.queue = append(s.queue, ev)
	s.cond.Broadcast()
	s.mu.Unlock()
	return true
}

// loop drains the queue in batches until closed and empty. One
// goroutine, so every event it executes is serialized with every other
// — the single-writer invariant.
func (s *shard) loop() {
	defer s.h.wg.Done()
	s.gid.Store(curGID())
	for {
		s.mu.Lock()
		s.idle = true
		for len(s.queue) == 0 && !s.closed && !s.tickDue {
			if s.wheel.n > 0 {
				s.armTickLocked()
			}
			s.cond.Broadcast() // wake drain waiters
			s.cond.Wait()
		}
		s.tickDue = false
		if len(s.queue) == 0 && s.closed {
			if s.tick != nil {
				s.tick.Stop()
				s.tickAt = 0
			}
			s.cond.Broadcast()
			s.mu.Unlock()
			return
		}
		s.idle = false
		batch := s.queue
		s.queue = s.spare[:0]
		s.spare = batch
		if len(batch) > 0 {
			s.batches++
			s.events += uint64(len(batch))
			if len(batch) > s.maxBatch {
				s.maxBatch = len(batch)
			}
		}
		s.mu.Unlock()
		s.stepping.Store(true)
		for i := range batch {
			ev := batch[i]
			batch[i] = event{} // release refs promptly
			if ev.cmd != nil {
				if ev.fx != nil {
					ev.fx.Run(ev.cmd.Step)
				} else {
					ev.cmd.Step()
				}
				continue
			}
			s.h.deliver(ev)
		}
		if s.wheel.n > 0 {
			s.expireTimers()
		}
		s.stepping.Store(false)
	}
}

// expireTimers runs every wheel entry that is due, on the loop goroutine
// with stepping raised. An entry whose process was registered anew or is
// migrating (parked, or moved to another host, which re-arms from the
// shipped state) is dropped. Expired entries are not counted as events:
// nearly all of them find their wait ended and do nothing.
func (s *shard) expireTimers() {
	due := s.wheel.expire(s.h.now())
	for i := range due {
		e := due[i]
		due[i] = timerEntry{} // release the proc promptly
		if e.p.mig != nil || s.h.proc(e.p.node) != e.p {
			continue
		}
		e.p.tl.StepTimer(e.a, e.b)
	}
}

// armTickLocked (s.mu held, loop goroutine, entries pending) makes sure
// the tick timer will end the coming park by the next boundary at which
// an entry can fall due; a wake already armed for that boundary or an
// earlier one is left alone, so a park costs no timer call in the common
// case.
func (s *shard) armTickLocked() {
	t := s.wheel.nextTick()
	if s.tickAt != 0 && s.tickAt <= t {
		return
	}
	d := time.Duration(t*wheelTick - s.h.now())
	if s.tick == nil {
		s.tick = time.AfterFunc(d, s.onTick)
	} else {
		s.tick.Reset(d)
	}
	s.tickAt = t
}

// onTick is the tick timer's callback: it wakes the parked loop.
func (s *shard) onTick() {
	s.mu.Lock()
	s.tickAt = 0
	s.tickDue = true
	s.cond.Broadcast()
	s.mu.Unlock()
}

// drain blocks until the queue is empty and the loop is parked (or the
// shard is closed).
func (s *shard) drain() {
	s.mu.Lock()
	for !(s.closed || (s.idle && len(s.queue) == 0)) {
		s.cond.Wait()
	}
	s.mu.Unlock()
}

func (s *shard) counters() (batches, events uint64, maxBatch int) {
	s.mu.Lock()
	defer s.mu.Unlock()
	return s.batches, s.events, s.maxBatch
}

// shardEvents sums the events every shard loop has executed — the
// fixpoint detector for the drain loops in the checkpoint cut and the
// restore replay (a full Drain pass that executes nothing proves every
// cross-shard cascade has settled).
func (h *Host) shardEvents() uint64 {
	var n uint64
	for _, s := range h.shards {
		_, e, _ := s.counters()
		n += e
	}
	return n
}

// close marks the shard closed and wakes the loop; queued events are
// still drained before the loop exits (enqueue refuses later ones).
func (s *shard) close() {
	s.mu.Lock()
	s.closed = true
	s.closedA.Store(true)
	s.cond.Broadcast()
	s.mu.Unlock()
}

// shardRunner serializes public API calls of a process through its
// owning shard. Post queues a command step and returns; the engines
// use it (through Effects.Post) for commands, whose callers read
// nothing back. Exec is the rendezvous queries need: a call made from
// the shard's own loop goroutine (an engine callback re-entering the
// API) runs inline; any other caller enqueues a command step and waits
// for the loop to execute it.
type shardRunner struct {
	s *shard
}

// Post enqueues cmd as a step of fx's process without waiting for it. A
// Post from the shard's own loop goroutine joins the queue like any
// other, so it runs after the current batch. It reports false, queuing
// nothing, once the shard is closed.
func (r shardRunner) Post(fx *Effects, cmd Command) bool {
	return r.s.enqueue(event{fx: fx, cmd: cmd})
}

// Exec tells the two apart by goroutine id, but parses it (curGID walks
// the stack) only when the shard is mid-batch. That is sound: a nested
// caller is on the loop goroutine inside a batch, so it reads the
// stepping flag that same goroutine raised; a caller that reads it
// lowered therefore cannot be nested.
func (r shardRunner) Exec(fn func()) {
	if r.s.stepping.Load() && curGID() == r.s.gid.Load() {
		fn()
		return
	}
	rv := rendezvousPool.Get().(*rendezvous)
	rv.fn = fn
	queued := r.s.enqueue(event{cmd: rv})
	if queued {
		<-rv.done
	}
	rv.fn = nil
	rendezvousPool.Put(rv)
	if !queued {
		// Shard closed: the loop is gone, so serialize stragglers
		// against each other.
		r.s.straggler.Lock()
		defer r.s.straggler.Unlock()
		fn()
	}
}
