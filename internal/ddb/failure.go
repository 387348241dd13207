package ddb

import (
	"slices"
	"sort"

	"repro/internal/id"
	"repro/internal/transport"
)

// This file is the DDB layer's crash-recovery surface, mirroring the
// core engine's (see internal/core/failure.go). A controller learns of
// a peer site's crash from the failure detector (the TCP lease layer or
// the fault-injection harness) and must undo every piece of protocol
// state that depends on the corpse, in both directions:
//
//   - Remote agents homed at the dead site died with their home
//     controller: whatever they hold here is released (cascading grants
//     unblock local waiters) and whatever they wait for here is
//     cancelled. Without this, a lock held by a dead transaction blocks
//     survivors forever — a wait the oracle no longer counts.
//
//   - Home transactions with an in-flight acquisition at the dead site
//     can never be granted (the request died with the lock table that
//     queued it), so they abort — the DDB analogue of the core engine's
//     severed wait. Remote holds at the dead site simply vanish: the
//     resource's lock table is gone, there is nothing to release.
//
//   - Probe computations initiated by the dead site are moot, and its
//     per-initiator freshness window must reset: a restarted controller
//     numbers computations from 1 again, which a stale high-water mark
//     would discard as superseded (§4.3 applied across incarnations).

// PeerDown severs every dependency on a crashed site. Safe to call for
// sites the controller never interacted with; idempotent for repeats.
// On a Host it is posted to the controller's shard, like Submit.
func (c *Controller) PeerDown(dead id.Site) {
	cmd := c.newCommand(opPeerDown, 0)
	cmd.site = dead
	c.post(cmd)
}

// StepPeerDown implements engine.RecoveryLogic: the Host invokes it on
// the owning shard, already serialized.
func (c *Controller) StepPeerDown(peer transport.NodeID) {
	c.fx.Run(func() { c.peerDownStep(id.Site(peer)) })
}

func (c *Controller) peerDownStep(dead id.Site) {
	// Remote agents homed at the dead site: release holds, cancel waits.
	// Sorted iteration — the grant cascade order must be a pure function
	// of state, exactly as in releaseAllStep.
	var orphans []id.Txn
	for txn, a := range c.agents {
		if a.home == dead {
			orphans = append(orphans, txn)
		}
	}
	sort.Slice(orphans, func(i, j int) bool { return orphans[i] < orphans[j] })
	for _, txn := range orphans {
		a := c.agents[txn]
		if a.hasWaiting {
			c.cancelLocalWaitStep(a)
		}
		for _, h := range a.held {
			c.releaseLocalStep(h.key, txn)
		}
		c.dropAgentStep(a)
		c.agentsPurged++
	}

	// Home transactions touching the dead site: strip the dead entries
	// first so no release is addressed to the corpse, then abort the
	// ones whose pending acquisition can never complete.
	var stuck []id.Txn
	for txn, ts := range c.txns {
		if ts.status != TxnRunning {
			continue
		}
		dropSite(&ts.heldRemote, dead)
		if dropSite(&ts.pendingRemote, dead) {
			stuck = append(stuck, txn)
		}
	}
	sort.Slice(stuck, func(i, j int) bool { return stuck[i] < stuck[j] })
	for _, txn := range stuck {
		c.waitEndStep(c.agents[txn])
		c.abortStep(c.txns[txn])
		c.peerAborts++
	}

	// Computations the dead initiator started can never declare usefully
	// here, and keeping them would let a restarted incarnation's reused
	// (site, n) keys inherit stale labeled/probed sets.
	if dead != c.cfg.Site {
		delete(c.windows, dead)
	}
}

// dropSite removes a transaction's entries at the dead site and reports
// whether there were any.
func dropSite(m *assoc[id.Resource, id.Site], dead id.Site) bool {
	n := len(*m)
	*m = slices.DeleteFunc(*m, func(e assocEntry[id.Resource, id.Site]) bool { return e.val == dead })
	return len(*m) < n
}

// PeerUp clears the per-initiator freshness fencing for a restarted
// site, so its fresh incarnation's computations (numbered from 1) are
// tracked rather than discarded as stale.
func (c *Controller) PeerUp(peer id.Site) {
	c.run.Exec(func() { c.peerUpStep(peer) })
}

// StepPeerUp implements engine.RecoveryLogic.
func (c *Controller) StepPeerUp(peer transport.NodeID) {
	c.peerUpStep(id.Site(peer))
}

func (c *Controller) peerUpStep(peer id.Site) {
	if w := c.windows[peer]; w != nil && peer != c.cfg.Site {
		w.latest = 0
		if len(w.comps) == 0 {
			delete(c.windows, peer)
		}
	}
}
