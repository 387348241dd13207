package engine

import (
	"strconv"

	"repro/internal/transport"
)

// The paper's model has no process failures — axioms P1–P4 assume
// every process keeps running — so failure handling cannot be derived
// from the protocol itself. The layer below (the transport's
// lease-based failure detector, or the fault-injection harness) issues
// liveness verdicts, and each engine translates them into the only
// sound protocol moves (see the engines' PeerDown methods). What *is*
// common to every engine is the outcome type and its accounting: a
// wait on a dead peer cannot resolve and cannot count toward a
// deadlock (a dark cycle needs its edges to persist, and the dead
// peer's edges vanished with its state), so it is severed and reported
// as a typed WaitAborted. That shared piece lives here.

// WaitAborted describes one outgoing wait edge severed because the
// waited-on peer was declared down.
type WaitAborted struct {
	// Waiter is the process whose wait was severed (the one reporting).
	Waiter transport.NodeID
	// Peer is the presumed-dead process the edge pointed at.
	Peer transport.NodeID
}

// String renders the outcome compactly.
func (w WaitAborted) String() string {
	return "wait p" + strconv.Itoa(int(w.Waiter)) + "->p" + strconv.Itoa(int(w.Peer)) + " aborted: peer down"
}

// Recovery is the per-process crash-recovery accounting every engine
// embeds. Like Ingress, its methods must be called from within the
// process's serialized step.
type Recovery struct {
	node          transport.NodeID
	waitsAborted  uint64
	onWaitAborted func(WaitAborted)
}

// NewRecovery returns the accounting state for one process.
// onWaitAborted may be nil.
func NewRecovery(node transport.NodeID, onWaitAborted func(WaitAborted)) Recovery {
	return Recovery{node: node, onWaitAborted: onWaitAborted}
}

// Abort records one severed wait edge to peer and defers the report
// callback on fx past the end of the step.
func (r *Recovery) Abort(fx *Effects, peer transport.NodeID) {
	r.waitsAborted++
	if cb := r.onWaitAborted; cb != nil {
		ev := WaitAborted{Waiter: r.node, Peer: peer}
		fx.Defer(func() { cb(ev) })
	}
}

// WaitsAborted returns how many wait edges this process has severed.
func (r *Recovery) WaitsAborted() uint64 { return r.waitsAborted }
