package ddb

import (
	"sort"

	"repro/internal/id"
)

// This file derives the wait-for edges a controller knows locally
// (axiom P3 for the DDB model): intra-controller edges from the lock
// table, outgoing acquisition edges from pendingRemote, and
// holder-home edges (see the package comment) from waits on resources
// held by remote agents. Deriving edges on demand from the lock table
// means the edge set can never drift out of sync with lock state.

// intraSuccessorsStep returns the transactions whose agents the given
// agent waits for through the local lock table: the holders of the
// resource it is queued on.
func (c *Controller) intraSuccessorsStep(txn id.Txn) []id.Txn {
	a, ok := c.agents[txn]
	if !ok || !a.hasWaiting {
		return nil
	}
	var out []id.Txn
	for _, h := range c.locks.holders(a.waiting) {
		if _, present := c.agents[h.key]; present {
			out = append(out, h.key)
		}
	}
	return out
}

// interEdgesStep returns the inter-controller edges leaving the given
// agent: the acquisition edges of §6.4 if it is a home agent with
// remote acquisitions in flight, and holder-home edges if it waits on a
// resource held locally by a remote agent of another transaction.
func (c *Controller) interEdgesStep(txn id.Txn) []id.AgentEdge {
	a, ok := c.agents[txn]
	if !ok {
		return nil
	}
	self := id.Agent{Txn: txn, Site: c.cfg.Site}
	var out []id.AgentEdge
	if ts, home := c.txns[txn]; home && ts.status == TxnRunning {
		// One edge per target site, in site order.
		var sites assoc[id.Site, struct{}]
		for _, p := range ts.pendingRemote {
			sites.put(p.val, struct{}{})
		}
		for _, s := range sites {
			out = append(out, id.AgentEdge{From: self, To: id.Agent{Txn: txn, Site: s.key}})
		}
	}
	if a.hasWaiting && !c.cfg.PaperEdgesOnly {
		for _, h := range c.locks.holders(a.waiting) {
			holder, present := c.agents[h.key]
			if !present || holder.home == c.cfg.Site {
				continue
			}
			out = append(out, id.AgentEdge{From: self, To: id.Agent{Txn: h.key, Site: holder.home}})
		}
	}
	return out
}

// labelReachableStep walks every agent reachable from start along
// current intra-controller edges. It labels the visited agents into
// comp.labeled and returns (a) the transactions labeled for the first
// time — only their inter-controller edges still need probes — and (b)
// whether the walk reached watch through at least one edge (or, when
// watchStart is true, by being the start itself). The walk is a fresh
// BFS every time: the declaration condition of steps A0/A1 is about
// reachability over the edges as they stand at this atomic step, not
// about the accumulated label set. The visited set and the queue are the
// controller's scratch, reused by every walk, and each resource's
// holders are read from the lock table without a copy.
func (c *Controller) labelReachableStep(comp *probeComp, start, watch id.Txn, watchStart bool) (newly []id.Txn, watchReached bool) {
	if _, present := c.agents[start]; !present {
		return nil, false
	}
	if watchStart && start == watch {
		watchReached = true
	}
	seen, queue := c.walkSeen, append(c.walkQueue, start)
	seen[start] = true
	if !comp.labeled[start] {
		comp.label(start)
		newly = append(newly, start)
	}
	for i := 0; i < len(queue); i++ {
		// Every queued agent is present. Its successors are the present
		// holders of the resource it waits on, read in place.
		a := c.agents[queue[i]]
		if !a.hasWaiting {
			continue
		}
		for _, h := range c.locks.holders(a.waiting) {
			succ := h.key
			if _, present := c.agents[succ]; !present {
				continue
			}
			if succ == watch {
				watchReached = true
			}
			if seen[succ] {
				continue
			}
			seen[succ] = true
			if !comp.labeled[succ] {
				comp.label(succ)
				newly = append(newly, succ)
			}
			queue = append(queue, succ)
		}
	}
	// The queue holds every visited agent once: empty the scratch.
	for _, t := range queue {
		delete(seen, t)
	}
	c.walkQueue = queue[:0]
	return newly, watchReached
}

// LocalEdges returns every wait-for edge this controller currently
// knows about — intra-controller edges plus outgoing inter-controller
// edges. The centralized baseline ships exactly this set to its
// coordinator; note the acquisition edges include grey (in-flight)
// edges because the home controller cannot observe colour (P3), which
// is one root of the phantom-deadlock problem the baseline exhibits.
func (c *Controller) LocalEdges() []id.AgentEdge {
	var out []id.AgentEdge
	c.run.Exec(func() {
		for txn, a := range c.agents {
			self := id.Agent{Txn: txn, Site: c.cfg.Site}
			if a.hasWaiting {
				for _, h := range c.intraSuccessorsStep(txn) {
					out = append(out, id.AgentEdge{From: self, To: id.Agent{Txn: h, Site: c.cfg.Site}})
				}
			}
			out = append(out, c.interEdgesStep(txn)...)
		}
	})
	sortAgentEdges(out)
	return out
}

// WaitingAgents returns this controller's agents that are currently
// blocked (queued locally or awaiting a remote acquisition).
func (c *Controller) WaitingAgents() []id.Agent {
	var out []id.Agent
	c.run.Exec(func() {
		for txn, a := range c.agents {
			blocked := a.hasWaiting
			if ts, home := c.txns[txn]; home && ts.status == TxnRunning && len(ts.pendingRemote) > 0 {
				blocked = true
			}
			if blocked {
				out = append(out, id.Agent{Txn: txn, Site: c.cfg.Site})
			}
		}
	})
	sort.Slice(out, func(i, j int) bool { return out[i].Txn < out[j].Txn })
	return out
}

func sortAgentEdges(edges []id.AgentEdge) {
	sort.Slice(edges, func(i, j int) bool {
		a, b := edges[i], edges[j]
		if a.From.Txn != b.From.Txn {
			return a.From.Txn < b.From.Txn
		}
		if a.From.Site != b.From.Site {
			return a.From.Site < b.From.Site
		}
		if a.To.Txn != b.To.Txn {
			return a.To.Txn < b.To.Txn
		}
		return a.To.Site < b.To.Site
	})
}
