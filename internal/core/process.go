// Package core implements the paper's primary contribution for the
// basic model of §2: a process engine that exchanges requests and
// replies under the graph axioms G1–G4, runs the probe computation of
// §3.4 (steps A0, A1, A2), applies the initiation rules of §4.2–4.3,
// and runs the WFGD deadlocked-set propagation of §5.
//
// A Process only ever consults local state, exactly as axiom P3
// permits: it knows which outgoing edges exist (requests it has sent
// and not yet seen answered) and which incoming edges are black
// (requests it has received and not yet answered). It never learns an
// outgoing edge's colour. The global coloured graph exists only in the
// test oracle (package wfg).
//
// The process carries no lock of its own: every step — message
// delivery, public API call, recovery verdict — is serialized by the
// engine runtime (an engine.Host shard when hosted, an inline Runner
// when stand-alone), which is what yields the paper's atomic-step
// property.
package core

import (
	"fmt"
	"sort"

	"repro/internal/engine"
	"repro/internal/id"
	"repro/internal/msg"
	"repro/internal/transport"
)

// Timers schedules delayed callbacks; the simulated scheduler and a
// real-time adapter both implement it. Durations are nanoseconds.
type Timers interface {
	After(d int64, fn func())
}

// InitiationPolicy selects when a process starts probe computations.
type InitiationPolicy int

// Initiation policies (§4.2–4.3).
const (
	// InitiateOnBlock starts a probe computation whenever an outgoing
	// edge is added (§4.2's rule).
	InitiateOnBlock InitiationPolicy = iota + 1
	// InitiateAfterDelay starts a probe computation only if an outgoing
	// edge has existed continuously for the timer period T (§4.3's
	// refinement); requires Timers.
	InitiateAfterDelay
	// InitiateManually leaves initiation to explicit StartProbe calls.
	InitiateManually
)

// Config configures a Process.
type Config struct {
	// ID is the process identity (vertex in the wait-for graph).
	ID id.Proc
	// Transport delivers messages; the process registers itself on the
	// node id equal to its process id.
	Transport transport.Transport
	// Policy selects the initiation rule; default InitiateOnBlock.
	Policy InitiationPolicy
	// Delay is the timer T for InitiateAfterDelay, in nanoseconds.
	Delay int64
	// Timers is required for InitiateAfterDelay.
	Timers Timers

	// OnRequest is called after a request from another process arrives
	// (the incoming edge just turned black).
	OnRequest func(from id.Proc)
	// OnActive is called when the process transitions from blocked to
	// active (its last outstanding request was answered).
	OnActive func()
	// OnDeadlock is called when the process declares "I am on a black
	// cycle" (step A1) — at most once per declaration epoch: the latch
	// resets only when PeerDown withdraws a declaration because a crash
	// may have broken the declared cycle, after which a surviving cycle
	// is re-detected and re-declared.
	OnDeadlock func(tag id.Tag)
	// OnWFGD is called whenever the process's permanent-black-path set
	// S grows (§5); edges is the updated full set.
	OnWFGD func(edges []id.Edge)
	// OnProtocolError is called after an ingress frame was rejected by
	// the validation layer (dropped and counted, never applied). nil
	// ignores rejections; they remain visible in Stats.ProtocolErrors.
	OnProtocolError func(ProtocolError)
	// OnWaitAborted is called when PeerDown severs an outgoing wait
	// edge because the waited-on peer is presumed dead — the wait's
	// typed failure outcome, distinct from both a grant and a deadlock.
	OnWaitAborted func(WaitAborted)
}

// Process is one vertex of the basic model. All methods are safe for
// concurrent use; every step is serialized by the engine runtime,
// which yields the paper's atomic-step property.
type Process struct {
	cfg Config

	// run serializes every step of this process (see package comment).
	run engine.Runner
	// ingress and recovery are the runtime's shared rejection and
	// crash-recovery accounting; both are touched only inside steps.
	ingress  engine.Ingress
	recovery engine.Recovery

	// waitingFor is the set of outgoing edges: processes this one has
	// requested and not yet been answered by (P3: existence is local
	// knowledge, colour is not).
	waitingFor map[id.Proc]struct{}
	// edgeInstance counts, per target, how many times the outgoing edge
	// to that target has been created. The §4.3 delay timer captures the
	// instance at creation so that a timer armed for an edge that was
	// granted and re-requested inside the delay window cannot initiate a
	// probe on behalf of the newer edge instance (which has not yet
	// existed continuously for T).
	edgeInstance map[id.Proc]uint64
	// pendingIn is the set of incoming black edges: processes whose
	// requests this one has received and not yet answered (P3).
	pendingIn map[id.Proc]struct{}

	// nextN numbers this process's own probe computations (§3.2).
	nextN uint64
	// latest tracks, per initiator, the newest computation number this
	// process has propagated; older tags are ignored (§4.3: every
	// vertex keeps only the latest computation per initiator, so the
	// table is bounded by N entries).
	latest map[id.Proc]uint64
	// deadlocked latches once the process declares (a dark cycle
	// persists forever, §2.4, so there is no way back).
	deadlocked  bool
	declaredTag id.Tag

	// blackPaths is S_j of §5: edges this process knows to lie on
	// permanent black paths leading from it.
	blackPaths map[id.Edge]struct{}
	// sentWFGD records, per neighbour, the canonical keys of WFGD
	// messages already sent, implementing "if it has not already sent
	// the same message M' to v_k".
	sentWFGD map[id.Proc]map[string]struct{}

	// stats
	probesSent       uint64
	probesMeaningful uint64
	probesDiscarded  uint64
	computations     uint64
}

// NewProcess creates a process and registers it on its transport.
func NewProcess(cfg Config) (*Process, error) {
	if cfg.Transport == nil {
		return nil, fmt.Errorf("process %v: nil transport", cfg.ID)
	}
	if cfg.Policy == 0 {
		cfg.Policy = InitiateOnBlock
	}
	if cfg.Policy == InitiateAfterDelay {
		if cfg.Timers == nil {
			return nil, fmt.Errorf("process %v: InitiateAfterDelay requires Timers", cfg.ID)
		}
		if cfg.Delay <= 0 {
			return nil, fmt.Errorf("process %v: InitiateAfterDelay requires positive Delay", cfg.ID)
		}
	}
	node := transport.NodeID(cfg.ID)
	p := &Process{
		cfg:          cfg,
		run:          engine.RunnerFor(cfg.Transport, node),
		ingress:      engine.NewIngress(node, cfg.OnProtocolError),
		recovery:     engine.NewRecovery(node, cfg.OnWaitAborted),
		waitingFor:   make(map[id.Proc]struct{}),
		edgeInstance: make(map[id.Proc]uint64),
		pendingIn:    make(map[id.Proc]struct{}),
		latest:       make(map[id.Proc]uint64),
		blackPaths:   make(map[id.Edge]struct{}),
		sentWFGD:     make(map[id.Proc]map[string]struct{}),
	}
	cfg.Transport.Register(node, p)
	return p, nil
}

// ID returns the process identity.
func (p *Process) ID() id.Proc { return p.cfg.ID }

// Request sends requests to each target, creating grey outgoing edges
// (G1). It is an error to request from oneself or to request from a
// target an edge to which already exists. Per the initiation policy, a
// probe computation may be started (§4.2: "a vertex initiates a probe
// computation when any outgoing edge is added").
func (p *Process) Request(targets ...id.Proc) error {
	var err error
	p.run.Exec(func() { err = p.requestStep(targets) })
	return err
}

// requestStep is Request's serialized body.
func (p *Process) requestStep(targets []id.Proc) error {
	for _, t := range targets {
		if t == p.cfg.ID {
			return fmt.Errorf("process %v: request to self", p.cfg.ID)
		}
		if _, dup := p.waitingFor[t]; dup {
			return fmt.Errorf("process %v: edge to %v already exists (G1)", p.cfg.ID, t)
		}
	}
	for _, t := range targets {
		p.waitingFor[t] = struct{}{}
		p.edgeInstance[t]++
		p.send(t, msg.Request{})
	}
	switch p.cfg.Policy {
	case InitiateOnBlock:
		p.startProbeStep()
	case InitiateAfterDelay:
		// One timer per added edge: initiate only if that edge instance
		// has existed continuously for T (§4.3). Membership alone is not
		// enough — the edge may have been granted and re-requested
		// inside the window, in which case the current instance is
		// younger than T — so the timer also checks the instance counter
		// captured at creation.
		for _, t := range targets {
			target := t
			instance := p.edgeInstance[target]
			p.cfg.Timers.After(p.cfg.Delay, func() {
				p.run.Exec(func() {
					if _, still := p.waitingFor[target]; still && p.edgeInstance[target] == instance {
						p.startProbeStep()
					}
				})
			})
		}
	}
	return nil
}

// Grant answers a pending request from the given process, whitening the
// edge (G3). Only an active process may reply: Grant returns an error
// if this process has outstanding requests of its own, enforcing G3
// locally.
func (p *Process) Grant(to id.Proc) error {
	var err error
	p.run.Exec(func() {
		if len(p.waitingFor) != 0 {
			err = fmt.Errorf("process %v: blocked process may not reply (G3)", p.cfg.ID)
			return
		}
		if _, ok := p.pendingIn[to]; !ok {
			err = fmt.Errorf("process %v: no pending request from %v", p.cfg.ID, to)
			return
		}
		delete(p.pendingIn, to)
		p.send(to, msg.Reply{})
	})
	return err
}

// GrantAll answers every pending request; it returns the number granted
// or an error if the process is blocked.
func (p *Process) GrantAll() (int, error) {
	var (
		n   int
		err error
	)
	p.run.Exec(func() {
		if len(p.waitingFor) != 0 {
			err = fmt.Errorf("process %v: blocked process may not reply (G3)", p.cfg.ID)
			return
		}
		for _, from := range sortedProcs(p.pendingIn) {
			delete(p.pendingIn, from)
			p.send(from, msg.Reply{})
			n++
		}
	})
	return n, err
}

// StartProbe explicitly initiates a probe computation (step A0): send
// probes along all outgoing edges. It returns the computation's tag and
// false if the process is active (an active vertex is on no cycle, so
// there is nothing to probe).
func (p *Process) StartProbe() (id.Tag, bool) {
	var (
		tag id.Tag
		ok  bool
	)
	p.run.Exec(func() { tag, ok = p.startProbeStep() })
	return tag, ok
}

// startProbeStep implements step A0. Caller is on the process's
// serialized step.
func (p *Process) startProbeStep() (id.Tag, bool) {
	if len(p.waitingFor) == 0 {
		return id.Tag{}, false
	}
	p.nextN++
	p.computations++
	tag := id.Tag{Initiator: p.cfg.ID, N: p.nextN}
	for _, t := range sortedProcs(p.waitingFor) {
		p.send(t, msg.Probe{Tag: tag})
		p.probesSent++
	}
	return tag, true
}

// HandleMessage implements transport.Handler for stand-alone
// transports: it serializes through the Runner and runs one step.
// Hosted processes skip this path — the shard loop calls Step
// directly, already serialized.
//
// Every frame is validated against local protocol state before it is
// applied. A frame a conforming peer could never have sent — a stray
// reply, a duplicate request, a probe ahead of its own initiator, a
// self-addressed or unknown-typed message — is dropped, counted, and
// reported through OnProtocolError; it never panics and never mutates
// state, so a remote peer cannot crash or corrupt the detection plane.
func (p *Process) HandleMessage(from transport.NodeID, m msg.Message) {
	var after []func() // callbacks deferred past the critical section
	p.run.Exec(func() { after = p.step(id.Proc(from), m) })
	runAfter(after)
}

// Step implements engine.Logic: one atomic protocol step, invoked by
// the runtime already serialized (the Host shard's loop goroutine).
func (p *Process) Step(from transport.NodeID, m msg.Message) {
	runAfter(p.step(id.Proc(from), m))
}

// step applies one delivered message and returns the callbacks to run
// after the step.
func (p *Process) step(sender id.Proc, m msg.Message) []func() {
	var after []func()
	if sender == p.cfg.ID {
		return p.ingress.Reject(transport.NodeID(sender), engine.KindOf(m), engine.ReasonSelfAddressed,
			fmt.Sprintf("frame of type %T claims this process as its sender", m), after)
	}
	switch mm := m.(type) {
	case msg.Request:
		if _, dup := p.pendingIn[sender]; dup {
			if mm.Rejoin {
				// A crash-recovery re-announcement for an edge we still
				// hold: the sender could not know whether we survived the
				// outage with the edge intact, so this is the legitimate
				// idempotent case, not a G1 violation.
				break
			}
			// G1 forbids re-requesting an existing edge, so a second
			// request before our reply is duplicated or forged.
			after = p.ingress.Reject(transport.NodeID(sender), mm.Kind(), engine.ReasonDuplicateRequest,
				"request while the previous one is still unanswered", after)
			break
		}
		// The incoming edge (sender, me) just turned black (G2).
		p.pendingIn[sender] = struct{}{}
		// §5 "thereafter sends M": a predecessor that blocks on an
		// already-deadlocked vertex must still be informed, so WFGD
		// propagation re-runs when a new incoming edge turns black.
		// The per-target duplicate suppression keeps this idempotent.
		if p.deadlocked || len(p.blackPaths) > 0 {
			after = p.propagateWFGDStep(after)
		}
		if cb := p.cfg.OnRequest; cb != nil {
			after = append(after, func() { cb(sender) })
		}

	case msg.Reply:
		if _, ok := p.waitingFor[sender]; !ok {
			after = p.ingress.Reject(transport.NodeID(sender), mm.Kind(), engine.ReasonStrayReply,
				"reply without an outstanding request", after)
			break
		}
		// The outgoing edge (me, sender) just disappeared (G4).
		delete(p.waitingFor, sender)
		if len(p.waitingFor) == 0 {
			if cb := p.cfg.OnActive; cb != nil {
				after = append(after, func() { cb() })
			}
		}

	case msg.Probe:
		after = p.handleProbeStep(sender, mm.Tag, after)

	case *msg.Probe:
		// Pooled pointer form from a zero-allocation transport decode;
		// the tag is copied out here, so the frame may be recycled the
		// moment this step returns. A typed nil (a decoder bug's
		// worst-case product) is rejected like any alien frame.
		if mm == nil {
			after = p.ingress.Reject(transport.NodeID(sender), engine.KindOf(m), engine.ReasonUnknownType,
				"nil probe frame", after)
			break
		}
		after = p.handleProbeStep(sender, mm.Tag, after)

	case msg.WFGD:
		after = p.handleWFGDStep(sender, mm, after)

	default:
		after = p.ingress.Reject(transport.NodeID(sender), engine.KindOf(m), engine.ReasonUnknownType,
			fmt.Sprintf("message type %T is not part of the basic model", m), after)
	}
	return after
}

// runAfter executes callbacks deferred past a critical section.
func runAfter(fns []func()) {
	for _, fn := range fns {
		fn()
	}
}

// handleProbeStep implements steps A1 and A2.
func (p *Process) handleProbeStep(sender id.Proc, tag id.Tag, after []func()) []func() {
	// A probe is meaningful iff the edge (sender, me) exists and is
	// black at receipt — locally: I hold an unanswered request from the
	// sender (P3, §3.2).
	if _, black := p.pendingIn[sender]; !black {
		p.probesDiscarded++
		return after
	}
	if tag.Initiator == p.cfg.ID && tag.N > p.nextN {
		// Only a forged frame can carry our initiator id with a
		// computation number we never issued.
		return p.ingress.Reject(transport.NodeID(sender), msg.Probe{}.Kind(), engine.ReasonForgedProbeTag,
			fmt.Sprintf("probe for computation %v never initiated here", tag), after)
	}
	p.probesMeaningful++

	if tag.Initiator == p.cfg.ID {
		// Step A1: the initiator received a meaningful probe of its own
		// computation — by Theorem 2 it is on a black cycle right now.
		if !p.deadlocked {
			p.deadlocked = true
			p.declaredTag = tag
			if cb := p.cfg.OnDeadlock; cb != nil {
				after = append(after, func() { cb(tag) })
			}
			// §5: after declaring, send M = {(vj, vi)} to every vj with
			// a black incoming edge (vj, vi) — those edges are
			// permanently black because a deadlocked vi never replies.
			after = p.propagateWFGDStep(after)
		}
		return after
	}

	// Step A2: a non-initiator forwards probes on all outgoing edges
	// upon its FIRST meaningful probe of this computation. Keeping only
	// the latest computation number per initiator both implements the
	// first-probe rule and the §4.3 supersession of stale computations.
	if last, seen := p.latest[tag.Initiator]; seen && last >= tag.N {
		return after
	}
	p.latest[tag.Initiator] = tag.N
	for _, t := range sortedProcs(p.waitingFor) {
		p.send(t, msg.Probe{Tag: tag})
		p.probesSent++
	}
	return after
}

// handleWFGDStep implements the receive rule of §5's WFGD computation.
func (p *Process) handleWFGDStep(_ id.Proc, m msg.WFGD, after []func()) []func() {
	grew := false
	for _, e := range m.Edges {
		if _, dup := p.blackPaths[e]; !dup {
			p.blackPaths[e] = struct{}{}
			grew = true
		}
	}
	if !grew {
		// S_j unchanged: every message we could send now has been sent
		// already (send-set is a function of S_j), so stop here. This
		// is what makes the computation terminate.
		return after
	}
	if cb := p.cfg.OnWFGD; cb != nil {
		edges := p.blackPathEdgesStep()
		after = append(after, func() { cb(edges) })
	}
	return p.propagateWFGDStep(after)
}

// propagateWFGDStep sends M' = {(vk, vj)} ∪ S_j to every vk with a
// black incoming edge (vk, vj), suppressing duplicates.
func (p *Process) propagateWFGDStep(after []func()) []func() {
	for _, k := range sortedProcs(p.pendingIn) {
		out := msg.WFGD{Edges: append(p.blackPathEdgesStep(), id.Edge{From: k, To: p.cfg.ID})}
		canon, key := out.Canonical()
		sent, ok := p.sentWFGD[k]
		if !ok {
			sent = make(map[string]struct{})
			p.sentWFGD[k] = sent
		}
		if _, dup := sent[key]; dup {
			continue
		}
		sent[key] = struct{}{}
		p.send(k, canon)
	}
	return after
}

// blackPathEdgesStep returns S_j as a slice, sorted by (From, To) so
// OnWFGD sees the same order on every run.
func (p *Process) blackPathEdgesStep() []id.Edge {
	out := make([]id.Edge, 0, len(p.blackPaths))
	for e := range p.blackPaths {
		out = append(out, e)
	}
	sort.Slice(out, func(i, j int) bool {
		if out[i].From != out[j].From {
			return out[i].From < out[j].From
		}
		return out[i].To < out[j].To
	})
	return out
}

// send hands a message to the transport. Every transport's Send is
// non-blocking and never calls back into the process synchronously, so
// no step cycle is possible.
func (p *Process) send(to id.Proc, m msg.Message) {
	p.cfg.Transport.Send(transport.NodeID(p.cfg.ID), transport.NodeID(to), m)
}

// Blocked reports whether the process has outstanding requests.
func (p *Process) Blocked() bool {
	var out bool
	p.run.Exec(func() { out = len(p.waitingFor) > 0 })
	return out
}

// Deadlocked reports whether the process has declared itself on a black
// cycle, and the tag of the computation that detected it.
func (p *Process) Deadlocked() (id.Tag, bool) {
	var (
		tag id.Tag
		ok  bool
	)
	p.run.Exec(func() { tag, ok = p.declaredTag, p.deadlocked })
	return tag, ok
}

// WaitingFor returns the sorted targets of outstanding requests.
func (p *Process) WaitingFor() []id.Proc {
	var out []id.Proc
	p.run.Exec(func() { out = sortedProcs(p.waitingFor) })
	return out
}

// PendingIn returns the sorted sources of unanswered incoming requests
// (the incoming black edges of P3).
func (p *Process) PendingIn() []id.Proc {
	var out []id.Proc
	p.run.Exec(func() { out = sortedProcs(p.pendingIn) })
	return out
}

// BlackPaths returns S_j, the sorted set of edges this process knows to
// lie on permanent black paths leading from it (§5).
func (p *Process) BlackPaths() []id.Edge {
	var out []id.Edge
	p.run.Exec(func() { out = p.blackPathEdgesStep() })
	sort.Slice(out, func(i, j int) bool {
		if out[i].From != out[j].From {
			return out[i].From < out[j].From
		}
		return out[i].To < out[j].To
	})
	return out
}

// TagTableSize returns the number of per-initiator entries currently
// tracked — the O(N) state bound measured by experiment E2.
func (p *Process) TagTableSize() int {
	var n int
	p.run.Exec(func() { n = len(p.latest) })
	return n
}

// Stats reports detection-traffic counters for this process.
func (p *Process) Stats() Stats {
	var st Stats
	p.run.Exec(func() {
		st = Stats{
			ProbesSent:       p.probesSent,
			ProbesMeaningful: p.probesMeaningful,
			ProbesDiscarded:  p.probesDiscarded,
			Computations:     p.computations,
			ProtocolErrors:   p.ingress.Errors(),
			WaitsAborted:     p.recovery.WaitsAborted(),
		}
	})
	return st
}

// Stats holds per-process detection counters.
type Stats struct {
	ProbesSent       uint64
	ProbesMeaningful uint64
	ProbesDiscarded  uint64
	Computations     uint64
	// ProtocolErrors counts ingress frames rejected by the validation
	// layer (see ProtocolError).
	ProtocolErrors uint64
	// WaitsAborted counts outgoing wait edges severed by PeerDown.
	WaitsAborted uint64
}

// sortedProcs returns the members of s in ascending order. Every
// fan-out loop sends in this order, not map order: under a seeded
// simulator each send draws its latency from the scheduler's RNG, so
// the destination order is part of the run.
func sortedProcs(s map[id.Proc]struct{}) []id.Proc {
	out := make([]id.Proc, 0, len(s))
	for v := range s {
		out = append(out, v)
	}
	sort.Slice(out, func(i, j int) bool { return out[i] < out[j] })
	return out
}

var (
	_ transport.Handler    = (*Process)(nil)
	_ engine.Logic         = (*Process)(nil)
	_ engine.RecoveryLogic = (*Process)(nil)
)
