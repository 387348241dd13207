package core

import (
	"repro/internal/engine"
	"repro/internal/id"
	"repro/internal/msg"
	"repro/internal/transport"
)

// This file is the crash-recovery surface of the process engine. The
// paper's model has no process failures — axioms P1–P4 assume every
// process keeps running and every sent message is delivered — so the
// engine cannot derive failure handling from the protocol itself.
// Instead the layer below (the transport's lease-based failure
// detector, an engine.Host routing connection events, or the
// fault-injection harness) tells the process when a peer is presumed
// dead (PeerDown) and when it is reachable again (PeerUp), and the
// process translates those verdicts into the only sound moves
// available:
//
//   - A wait on a dead peer cannot resolve — the peer will never
//     reply — and it also cannot count toward a deadlock in the
//     paper's sense: a dark cycle needs its edges to persist, and the
//     dead peer's outgoing edges vanished with its state. The edge is
//     therefore converted into a typed WaitAborted outcome: the waiter
//     unblocks and the application decides whether to retry.
//
//   - Everything learned from or about the dead peer's incarnation is
//     fenced: its unanswered request (our incoming black edge), its
//     computation numbers, our WFGD duplicate-suppression record for
//     it, and any permanent-black-path knowledge involving it. A
//     restarted incarnation starts from a blank slate on both sides.
//
//   - A deadlock declaration is withdrawn and re-derived. The paper's
//     latch ("a dark cycle persists forever", §2.4) is sound only
//     while no process dies; a crash may have broken the declared
//     cycle. Withdrawing and immediately re-initiating a probe
//     computation keeps both directions honest: a genuinely surviving
//     cycle is re-detected (the probe laps it again), while a broken
//     one is never reported as a phantom.
//
// The WaitAborted outcome type and its accounting are shared runtime
// plumbing (internal/engine/recovery.go); the fencing below is the
// basic model's own translation of the verdicts.

// WaitAborted describes one outgoing wait edge severed because the
// waited-on peer was declared down (Waiter/Peer are transport
// identities, numerically equal to the id.Proc values).
type WaitAborted = engine.WaitAborted

// PeerDown tells the process that peer is presumed dead (lease expiry,
// ConnPeerDown, or a fault-injection schedule). It severs the outgoing
// wait edge to the peer (reporting it through OnWaitAborted), fences
// every piece of state learned from the dead incarnation, and — if a
// deadlock had been declared — withdraws the declaration and restarts
// detection, since the crash may have broken the declared cycle.
//
// PeerDown is idempotent and safe to call for peers this process never
// interacted with.
func (p *Process) PeerDown(peer id.Proc) {
	p.fx.Exec(p.run, func() { p.peerDownStep(peer) })
}

// StepPeerDown implements engine.RecoveryLogic: the Host invokes it on
// the owning shard, already serialized.
func (p *Process) StepPeerDown(peer transport.NodeID) {
	p.fx.Run(func() { p.peerDownStep(id.Proc(peer)) })
}

func (p *Process) peerDownStep(peer id.Proc) {
	if _, waiting := p.waitingFor[peer]; waiting {
		delete(p.waitingFor, peer)
		// Invalidate §4.3 delay timers armed for the severed edge: the
		// instance check in Request's timer closure fails against the
		// bumped counter.
		p.edgeInstance[peer]++
		p.recovery.Abort(&p.fx, transport.NodeID(peer))
		if len(p.waitingFor) == 0 {
			if cb := p.cfg.OnActive; cb != nil {
				p.fx.Defer(cb)
			}
		}
	}
	// The dead incarnation's unanswered request no longer represents a
	// waiting process; keeping the black edge would let its stale
	// probes look meaningful (§3.2) and could manufacture a phantom
	// cycle through a corpse.
	delete(p.pendingIn, peer)
	// Fence the dead incarnation's detection state: computation numbers
	// it issued and the duplicate-suppression record of WFGD messages
	// we sent it (the restarted incarnation has seen none of them).
	delete(p.latest, peer)
	delete(p.sentWFGD, peer)
	// Permanent-black-path knowledge is only permanent while every
	// process on the path lives (§5 relies on §2.4's persistence). Any
	// path through the dead peer may be gone; edges not incident to it
	// may equally have depended on it upstream, so the whole set is
	// re-derived by the re-initiated computation rather than patched.
	if p.deadlocked || len(p.blackPaths) > 0 {
		p.deadlocked = false
		p.declaredTag = id.Tag{}
		p.blackPaths = make(map[id.Edge]struct{})
		p.sentWFGD = make(map[id.Proc]map[string]struct{})
		if len(p.waitingFor) > 0 {
			p.startProbeStep()
		}
	}
}

// PeerUp tells the process that peer is reachable again — either an
// outage ended or a restarted incarnation joined. All per-peer fencing
// state is cleared so the fresh incarnation starts from a blank slate:
// in particular its computation numbering restarts at 1, which a stale
// latest-table entry from the previous incarnation would wrongly
// suppress (§4.3 keeps only the newest computation per initiator).
func (p *Process) PeerUp(peer id.Proc) {
	p.run.Exec(func() { p.peerUpStep(peer) })
}

// StepPeerUp implements engine.RecoveryLogic.
func (p *Process) StepPeerUp(peer transport.NodeID) {
	p.peerUpStep(id.Proc(peer))
}

func (p *Process) peerUpStep(peer id.Proc) {
	delete(p.latest, peer)
	delete(p.sentWFGD, peer)
}

// Reannounce re-sends the request for a still-outstanding wait edge to
// a peer that restarted (detected via the transport's incarnation
// change, surfaced as ConnPeerUp). The restarted incarnation lost the
// pending-request entry our original request created; without the
// re-announcement its dependent-set stays empty, probes we initiate
// are discarded as non-meaningful on arrival, and a genuinely
// surviving cycle is never re-detected. The request is marked Rejoin
// so a receiver that *did* keep the edge (the outage was a partition,
// not a crash) treats it as an idempotent no-op instead of a
// duplicate-request protocol error. It reports whether an edge to the
// peer existed to re-announce.
func (p *Process) Reannounce(peer id.Proc) bool {
	var ok bool
	p.run.Exec(func() { ok = p.reannounceStep(peer) })
	return ok
}

// StepReannounce implements engine.ReannouncingLogic.
func (p *Process) StepReannounce(peer transport.NodeID) bool {
	return p.reannounceStep(id.Proc(peer))
}

func (p *Process) reannounceStep(peer id.Proc) bool {
	if _, waiting := p.waitingFor[peer]; !waiting {
		return false
	}
	p.send(peer, msg.Request{Rejoin: true})
	return true
}
