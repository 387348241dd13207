// Package commdl implements the communication-model (OR-request)
// deadlock detector that the PODC 1982 paper cites as its companion
// work ([1], Chandy, Misra and Haas — the message model where "a
// process which is waiting to communicate with other processes cannot
// proceed until it communicates with one of the processes it is
// waiting for", §1). The paper notes that "the any/all difference in
// these models results in completely different algorithms"; this
// package is that other algorithm, included as the natural §7
// future-work extension ("developing algorithms for different types of
// distributed systems").
//
// A blocked process here waits on a *dependent set* and resumes when
// ANY member sends it work. A process is deadlocked iff no active
// process is reachable from it through dependent edges. Detection is a
// diffusing computation (in the Dijkstra–Scholten sense the authors
// acknowledge): the initiator floods queries through blocked processes;
// each blocked process replies once all its own queries have been
// answered; if the initiator collects replies for all its queries, the
// whole reachable set was continuously blocked — deadlock.
//
// Like core and ddb, the process owns no lock: all steps run through an
// engine.Runner (a Host shard loop when co-hosted, the inline fallback
// stand-alone), ingress frames pass through the shared validated-ingress
// layer, and liveness verdicts arrive through the shared PeerDown/PeerUp
// recovery surface.
package commdl

import (
	"fmt"
	"sort"

	"repro/internal/engine"
	"repro/internal/id"
	"repro/internal/msg"
	"repro/internal/transport"
)

// Timers schedules delayed callbacks (nanoseconds).
type Timers interface {
	After(d int64, fn func())
}

// ProtocolErrorReason classifies why an ingress frame was rejected; see
// the engine-runtime taxonomy (internal/engine/ingress.go).
type ProtocolErrorReason = engine.Reason

// Ingress rejection reasons for the communication model.
const (
	// ReasonForgedQueryTag: a query or reply carried this process's own
	// initiator id with a sequence number it never issued — only a
	// forged frame can be "ahead" of its own initiator.
	ReasonForgedQueryTag = engine.ReasonForgedQueryTag
	// ReasonSelfAddressed: the frame claims this process as its own
	// sender. No conforming process depends on itself (Block rejects
	// self-dependencies), so the frame is forged or misrouted.
	ReasonSelfAddressed = engine.ReasonSelfAddressed
	// ReasonUnknownType: the decoded message is of a type the
	// communication model does not speak (a basic-model or DDB frame,
	// or a type unknown altogether).
	ReasonUnknownType = engine.ReasonUnknownType
)

// ProtocolError describes one ingress frame rejected by a Process
// (Node/From are the transport identities of the rejecting process and
// the claimed sender). It is delivered through Config.OnProtocolError
// after the offending frame has been dropped.
type ProtocolError = engine.ProtocolError

// WaitAborted describes one OR-wait dependency edge severed because the
// waited-on peer was declared down.
type WaitAborted = engine.WaitAborted

// Config configures a communication-model process.
type Config struct {
	// ID is the process identity.
	ID id.Proc
	// Transport delivers messages; the process registers on the node id
	// equal to its process id.
	Transport transport.Transport
	// Delay, when positive (and Timers is set), applies §4.3's timer
	// rule to the OR model: a process that has been blocked
	// continuously for Delay nanoseconds initiates a diffusing
	// computation automatically.
	Delay int64
	// Timers schedules the Delay; required when Delay > 0.
	Timers Timers
	// OnDeadlock fires at most once per blocking episode, when the
	// process determines it is deadlocked.
	OnDeadlock func(seq uint64)
	// OnUnblocked fires when a work message releases the process.
	OnUnblocked func(from id.Proc)
	// OnProtocolError fires after an ingress frame has been rejected and
	// dropped.
	OnProtocolError func(ProtocolError)
	// OnWaitAborted fires after PeerDown severed a dependency edge.
	OnWaitAborted func(WaitAborted)
	// OnWaitEmptied fires when PeerDown severed the *last* dependency
	// edge of a blocking episode: the OR-wait can no longer resolve
	// (no surviving dependent can send work), so the process abandons
	// the episode and becomes active again.
	OnWaitEmptied func()
}

// compState is per-initiator state of one diffusing computation.
type compState struct {
	latest  uint64  // newest sequence number seen from this initiator
	engager id.Proc // who pulled this process into the computation
	wait    bool    // still engaged (not unblocked since)
	num     int     // outstanding queries of this computation
}

// Process is one vertex of the communication model. All mutable state
// is confined to the Runner's serialized steps; the struct has no lock.
type Process struct {
	cfg      Config
	run      engine.Runner
	ingress  engine.Ingress
	recovery engine.Recovery

	blocked    bool
	episode    uint64 // increments at every block/unblock transition
	dependents map[id.Proc]struct{}
	comps      map[id.Proc]*compState // keyed by initiator
	nextSeq    uint64
	declared   bool

	queriesSent  uint64
	repliesSent  uint64
	computations uint64
}

// New creates a process and registers it on its transport.
func New(cfg Config) (*Process, error) {
	if cfg.Transport == nil {
		return nil, fmt.Errorf("comm process %v: nil transport", cfg.ID)
	}
	if cfg.Delay > 0 && cfg.Timers == nil {
		return nil, fmt.Errorf("comm process %v: Delay requires Timers", cfg.ID)
	}
	node := transport.NodeID(cfg.ID)
	p := &Process{
		cfg:        cfg,
		run:        engine.RunnerFor(cfg.Transport, node),
		ingress:    engine.NewIngress(node, cfg.OnProtocolError),
		recovery:   engine.NewRecovery(node, cfg.OnWaitAborted),
		dependents: make(map[id.Proc]struct{}),
		comps:      make(map[id.Proc]*compState),
	}
	cfg.Transport.Register(node, p)
	return p, nil
}

// ID returns the process identity.
func (p *Process) ID() id.Proc { return p.cfg.ID }

// Block enters the OR-wait: the process is blocked until any member of
// deps sends it work. It is an error to block an already blocked
// process, to block on an empty set, or to depend on oneself.
func (p *Process) Block(deps ...id.Proc) error {
	var err error
	p.run.Exec(func() { err = p.blockStep(deps) })
	return err
}

func (p *Process) blockStep(deps []id.Proc) error {
	if p.blocked {
		return fmt.Errorf("comm process %v: already blocked", p.cfg.ID)
	}
	if len(deps) == 0 {
		return fmt.Errorf("comm process %v: empty dependent set", p.cfg.ID)
	}
	for _, d := range deps {
		if d == p.cfg.ID {
			return fmt.Errorf("comm process %v: self-dependency", p.cfg.ID)
		}
	}
	p.blocked = true
	p.declared = false
	p.episode++
	p.dependents = make(map[id.Proc]struct{}, len(deps))
	for _, d := range deps {
		p.dependents[d] = struct{}{}
	}
	if p.cfg.Delay > 0 {
		// §4.3's timer rule: initiate only if this blocking episode is
		// still in progress after Delay.
		episode := p.episode
		p.cfg.Timers.After(p.cfg.Delay, func() {
			p.run.Exec(func() {
				if p.blocked && p.episode == episode {
					p.startDetectionStep()
				}
			})
		})
	}
	return nil
}

// SendWork sends an application message to another process; if the
// receiver is blocked with this process in its dependent set, it
// unblocks.
func (p *Process) SendWork(to id.Proc) {
	p.send(to, msg.CommWork{})
}

// StartDetection initiates one diffusing computation. It returns the
// computation's sequence number and false if the process is active
// (nothing to detect).
func (p *Process) StartDetection() (uint64, bool) {
	var seq uint64
	var ok bool
	p.run.Exec(func() { seq, ok = p.startDetectionStep() })
	return seq, ok
}

// startDetectionStep initiates one diffusing computation from within
// the serialized step.
func (p *Process) startDetectionStep() (uint64, bool) {
	if !p.blocked {
		return 0, false
	}
	p.nextSeq++
	p.computations++
	seq := p.nextSeq
	me := p.cfg.ID
	p.comps[me] = &compState{latest: seq, engager: me, wait: true, num: len(p.dependents)}
	for _, d := range p.sortedDependentsStep() {
		p.send(d, msg.CommQuery{Init: me, Seq: seq})
		p.queriesSent++
	}
	return seq, true
}

// HandleMessage implements transport.Handler: serialize through the
// Runner, then run deferred callbacks outside the step.
func (p *Process) HandleMessage(from transport.NodeID, m msg.Message) {
	var after []func()
	p.run.Exec(func() { after = p.step(id.Proc(from), m) })
	runAfter(after)
}

// Step implements engine.Logic: the Host invokes it on the owning
// shard, already serialized, so only the deferred callbacks remain.
func (p *Process) Step(from transport.NodeID, m msg.Message) {
	runAfter(p.step(id.Proc(from), m))
}

// step is the validated ingress switch; it runs within the serialized
// step and returns callbacks to fire after it.
func (p *Process) step(sender id.Proc, m msg.Message) []func() {
	var after []func()
	if sender == p.cfg.ID {
		return p.ingress.Reject(transport.NodeID(sender), engine.KindOf(m),
			engine.ReasonSelfAddressed, "frame names the receiver as sender", after)
	}
	if msg.IsNilPtr(m) {
		return p.ingress.Reject(transport.NodeID(sender), engine.KindOf(m),
			engine.ReasonUnknownType, fmt.Sprintf("nil %T frame", m), after)
	}
	switch mm := m.(type) {
	case msg.CommWork:
		after = p.handleWorkStep(sender, after)
	case msg.CommQuery:
		after = p.handleQueryStep(sender, mm, after)
	case *msg.CommQuery:
		// Pooled pointer form from a zero-allocation transport decode;
		// dereferenced here so the handler copies the fields it needs
		// before the frame is recycled.
		after = p.handleQueryStep(sender, *mm, after)
	case msg.CommReply:
		after = p.handleReplyStep(sender, mm, after)
	case *msg.CommReply:
		after = p.handleReplyStep(sender, *mm, after)
	default:
		after = p.ingress.Reject(transport.NodeID(sender), engine.KindOf(m),
			engine.ReasonUnknownType, fmt.Sprintf("%T is not a communication-model message", m), after)
	}
	return after
}

// handleWorkStep processes an application message: if it comes from a
// dependent while blocked, the process resumes and abandons every
// engagement (its wait flags clear, so stale queries and replies die
// here).
func (p *Process) handleWorkStep(sender id.Proc, after []func()) []func() {
	if !p.blocked {
		return after
	}
	if _, ok := p.dependents[sender]; !ok {
		return after
	}
	p.unblockStep()
	if cb := p.cfg.OnUnblocked; cb != nil {
		after = append(after, func() { cb(sender) })
	}
	return after
}

// unblockStep ends the current blocking episode: the process becomes
// active, and every computation passing through it is invalidated (the
// OR-wait it was engaged for no longer exists).
func (p *Process) unblockStep() {
	p.blocked = false
	p.episode++
	p.dependents = make(map[id.Proc]struct{})
	for _, cs := range p.comps {
		cs.wait = false
	}
}

// handleQueryStep implements the query rule.
func (p *Process) handleQueryStep(sender id.Proc, q msg.CommQuery, after []func()) []func() {
	if q.Init == p.cfg.ID && q.Seq > p.nextSeq {
		// Only a forged frame can carry our initiator id with a sequence
		// number ahead of any we issued.
		return p.ingress.Reject(transport.NodeID(sender), msg.KindCommQuery,
			engine.ReasonForgedQueryTag,
			fmt.Sprintf("query seq %d ahead of initiator's own %d", q.Seq, p.nextSeq), after)
	}
	if !p.blocked {
		return after // active processes discard queries
	}
	cs, seen := p.comps[q.Init]
	if !seen || q.Seq > cs.latest {
		// Engaging query: propagate to the whole dependent set.
		p.comps[q.Init] = &compState{
			latest:  q.Seq,
			engager: sender,
			wait:    true,
			num:     len(p.dependents),
		}
		for _, d := range p.sortedDependentsStep() {
			p.send(d, msg.CommQuery{Init: q.Init, Seq: q.Seq})
			p.queriesSent++
		}
		return after
	}
	if cs.wait && q.Seq == cs.latest {
		// Re-visit within the same computation: reply immediately (this
		// process is already engaged and continuously blocked).
		p.send(sender, msg.CommReply{Init: q.Init, Seq: q.Seq})
		p.repliesSent++
	}
	// Older sequence numbers are superseded and dropped (§4.3's rule
	// carries over unchanged).
	return after
}

// handleReplyStep implements the reply rule.
func (p *Process) handleReplyStep(sender id.Proc, r msg.CommReply, after []func()) []func() {
	if r.Init == p.cfg.ID && r.Seq > p.nextSeq {
		return p.ingress.Reject(transport.NodeID(sender), msg.KindCommReply,
			engine.ReasonForgedQueryTag,
			fmt.Sprintf("reply seq %d ahead of initiator's own %d", r.Seq, p.nextSeq), after)
	}
	cs, seen := p.comps[r.Init]
	if !seen || !cs.wait || r.Seq != cs.latest || cs.num == 0 {
		return after
	}
	cs.num--
	if cs.num > 0 {
		return after
	}
	if r.Init == p.cfg.ID {
		// Every query of our own computation was answered: the entire
		// reachable set was blocked throughout — deadlock.
		if !p.declared {
			p.declared = true
			if cb := p.cfg.OnDeadlock; cb != nil {
				seq := r.Seq
				after = append(after, func() { cb(seq) })
			}
		}
		return after
	}
	p.send(cs.engager, msg.CommReply{Init: r.Init, Seq: r.Seq})
	p.repliesSent++
	return after
}

// PeerDown tells the process that peer is presumed dead. The OR-model
// translation of the verdict: the dependency edge to the corpse is
// severed (it can never send work) and reported as WaitAborted; if it
// was the LAST edge of the episode the whole wait is abandoned — no
// surviving dependent can release the process, so staying blocked would
// be a wait on nothing — and OnWaitEmptied fires. Detection state
// learned from the dead incarnation is fenced: computations it
// initiated are dropped (a restarted incarnation renumbers from 1, and
// a stale latest mark would suppress its fresh queries), and
// engagements it engaged us into are abandoned (the reply would go to a
// corpse).
//
// PeerDown is idempotent and safe to call for peers this process never
// interacted with.
func (p *Process) PeerDown(peer id.Proc) {
	var after []func()
	p.run.Exec(func() { after = p.peerDownStep(peer) })
	runAfter(after)
}

// StepPeerDown implements engine.RecoveryLogic: the Host invokes it on
// the owning shard, already serialized.
func (p *Process) StepPeerDown(peer transport.NodeID) {
	runAfter(p.peerDownStep(id.Proc(peer)))
}

func (p *Process) peerDownStep(peer id.Proc) []func() {
	var after []func()
	if _, dep := p.dependents[peer]; dep && p.blocked {
		delete(p.dependents, peer)
		after = p.recovery.Abort(transport.NodeID(peer), after)
		if len(p.dependents) == 0 {
			p.unblockStep()
			if cb := p.cfg.OnWaitEmptied; cb != nil {
				after = append(after, func() { cb() })
			}
		}
	}
	// Fence the dead incarnation's detection state: its own computations
	// vanish (sequence numbering restarts at 1 on the other side)...
	delete(p.comps, peer)
	// ...and computations it engaged us into are abandoned — the reply
	// would be addressed to a corpse.
	for _, cs := range p.comps {
		if cs.engager == peer {
			cs.wait = false
		}
	}
	return after
}

// PeerUp tells the process that peer is reachable again — either an
// outage ended or a restarted incarnation joined. The per-initiator
// freshness mark for the peer is cleared so the fresh incarnation's
// queries (renumbered from 1) are not suppressed by the previous
// incarnation's high-water mark.
func (p *Process) PeerUp(peer id.Proc) {
	p.run.Exec(func() { p.peerUpStep(peer) })
}

// StepPeerUp implements engine.RecoveryLogic.
func (p *Process) StepPeerUp(peer transport.NodeID) {
	p.peerUpStep(id.Proc(peer))
}

func (p *Process) peerUpStep(peer id.Proc) {
	delete(p.comps, peer)
}

// send hands a message to the transport. Safe within a step: transports
// never deliver synchronously.
func (p *Process) send(to id.Proc, m msg.Message) {
	p.cfg.Transport.Send(transport.NodeID(p.cfg.ID), transport.NodeID(to), m)
}

// runAfter fires callbacks deferred out of the serialized step.
func runAfter(after []func()) {
	for _, fn := range after {
		fn()
	}
}

// Blocked reports whether the process is in an OR-wait.
func (p *Process) Blocked() bool {
	var out bool
	p.run.Exec(func() { out = p.blocked })
	return out
}

// Deadlocked reports whether the process has declared deadlock in its
// current blocking episode.
func (p *Process) Deadlocked() bool {
	var out bool
	p.run.Exec(func() { out = p.declared })
	return out
}

// Dependents returns the sorted current dependent set.
func (p *Process) Dependents() []id.Proc {
	var out []id.Proc
	p.run.Exec(func() { out = p.sortedDependentsStep() })
	return out
}

// sortedDependentsStep returns the dependent set in ascending order.
// Every send loop over it uses this order: under a latency model that
// draws each send's delay from the scheduler's RNG, map order would
// make a seeded run differ from run to run.
func (p *Process) sortedDependentsStep() []id.Proc {
	out := make([]id.Proc, 0, len(p.dependents))
	for d := range p.dependents {
		out = append(out, d)
	}
	sort.Slice(out, func(i, j int) bool { return out[i] < out[j] })
	return out
}

// Stats reports the detector traffic of this process.
func (p *Process) Stats() Stats {
	var out Stats
	p.run.Exec(func() {
		out = Stats{
			QueriesSent:    p.queriesSent,
			RepliesSent:    p.repliesSent,
			Computations:   p.computations,
			ProtocolErrors: p.ingress.Errors(),
			WaitsAborted:   p.recovery.WaitsAborted(),
		}
	})
	return out
}

// Stats holds communication-model detector counters.
type Stats struct {
	QueriesSent  uint64
	RepliesSent  uint64
	Computations uint64
	// ProtocolErrors counts ingress frames rejected by the validated
	// ingress layer.
	ProtocolErrors uint64
	// WaitsAborted counts dependency edges severed by PeerDown.
	WaitsAborted uint64
}

var (
	_ transport.Handler    = (*Process)(nil)
	_ engine.Logic         = (*Process)(nil)
	_ engine.RecoveryLogic = (*Process)(nil)
)
