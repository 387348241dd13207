package ddb

import (
	"fmt"
	"slices"
	"sort"

	"repro/internal/id"
	"repro/internal/msg"
)

// This file implements the controller-level probe computation of §6.5
// and §6.6: step A0 (initiation), A1 (initiator receive) and A2
// (non-initiator receive), plus the §6.7 batch-initiation optimization.
//
// Per §4.3 every controller keeps only recent computations per
// initiator. The paper's strict "latest only" rule assumes one
// computation at a time per initiator; a controller running the §6.7
// optimization initiates Q computations concurrently, so we retain a
// window of recent computation numbers per initiator instead — stale
// tags outside the window are dropped exactly like superseded ones.
// Each initiator's window is its own: a computation (j, n) is kept while
// n >= latest_j - compWindow, so between restarts of j a controller
// holds at most compWindow+1 of j's computations, and opening or
// evicting one costs O(log compWindow) whatever the other windows hold.
const compWindow = 256

// initWindow is this controller's window of computations for one
// initiator j: the computations it tracks, keyed by n; latest_j, the
// highest n it has tracked since j last restarted (0 for none); and a
// min-heap of the keys, which eviction pops in n order.
type initWindow struct {
	latest uint64
	comps  map[uint64]*probeComp
	order  []uint64
}

// put tracks comp as computation n.
func (w *initWindow) put(n uint64, comp *probeComp) {
	if _, ok := w.comps[n]; !ok {
		w.order = append(w.order, n)
		for i := len(w.order) - 1; i > 0; {
			parent := (i - 1) / 2
			if w.order[parent] <= w.order[i] {
				break
			}
			w.order[parent], w.order[i] = w.order[i], w.order[parent]
			i = parent
		}
	}
	w.comps[n] = comp
}

// advance raises latest to n and evicts the computations the window
// no longer covers.
func (w *initWindow) advance(n uint64) {
	if n > w.latest {
		w.latest = n
	}
	if w.latest <= compWindow {
		return
	}
	for len(w.order) > 0 && w.order[0] < w.latest-compWindow {
		delete(w.comps, w.order[0])
		last := len(w.order) - 1
		w.order[0] = w.order[last]
		w.order = w.order[:last]
		for i := 0; ; {
			small, l := i, 2*i+1
			if l < last && w.order[l] < w.order[small] {
				small = l
			}
			if r := l + 1; r < last && w.order[r] < w.order[small] {
				small = r
			}
			if small == i {
				break
			}
			w.order[i], w.order[small] = w.order[small], w.order[i]
			i = small
		}
	}
}

// probeComp is this controller's state for one computation: the agents
// it has labeled here and the inter-controller edges it has already
// sent probes along (A2's "if such a probe has not already been sent").
// Both sets are made on first insertion.
type probeComp struct {
	tag    id.CtrlTag
	own    bool
	target id.Agent // set when own
	// targetInc pins the incarnation of the target at initiation: a
	// computation that completes after its target aborted and restarted
	// is about a process that no longer exists, so its verdict is
	// discarded rather than declared.
	targetInc uint32
	labeled   map[id.Txn]bool
	probed    map[id.AgentEdge]bool
	declared  bool
}

func (comp *probeComp) label(t id.Txn) {
	if comp.labeled == nil {
		comp.labeled = make(map[id.Txn]bool)
	}
	comp.labeled[t] = true
}

func (comp *probeComp) markProbed(e id.AgentEdge) {
	if comp.probed == nil {
		comp.probed = make(map[id.AgentEdge]bool)
	}
	comp.probed[e] = true
}

// CheckAgent runs step A0 for one of this controller's processes:
// determine whether (txn, site) is on a dark cycle. It returns the
// computation tag and whether a purely local (intra-controller) cycle
// was declared immediately.
func (c *Controller) CheckAgent(txn id.Txn) (id.CtrlTag, bool) {
	var (
		tag      id.CtrlTag
		declared bool
	)
	c.fx.Exec(c.run, func() { tag, declared = c.checkAgentStep(txn) })
	return tag, declared
}

// checkAgentStep implements step A0.
func (c *Controller) checkAgentStep(txn id.Txn) (id.CtrlTag, bool) {
	agent, present := c.agents[txn]
	if !present {
		return id.CtrlTag{}, false
	}
	c.nextN++
	c.computations++
	tag := id.CtrlTag{Initiator: c.cfg.Site, N: c.nextN}
	comp := &probeComp{
		tag:       tag,
		own:       true,
		target:    id.Agent{Txn: txn, Site: c.cfg.Site},
		targetInc: agent.inc,
	}
	c.trackCompStep(c.cfg.Site, c.nextN, comp)

	// A0: the target is "reached" only if the walk re-enters it through
	// at least one intra edge — a purely local cycle.
	newly, localCycle := c.labelReachableStep(comp, txn, txn, false)
	if localCycle {
		// "If (Ti,Sj) is labelled, declare that it is on a black cycle
		// of intra-controller edges."
		c.declareStep(comp, nil)
		return tag, true
	}
	c.sendProbesStep(comp, newly)
	return tag, false
}

// CheckAll implements the §6.7 optimization: first look for purely
// intra-controller cycles, then initiate one computation per
// constituent process with an incoming black inter-controller edge
// (pending remote acquisitions). It returns Q, the number of
// computations initiated.
func (c *Controller) CheckAll() int {
	q := 0
	c.fx.Exec(c.run, func() {
		// Sorted iteration: initiation order assigns computation numbers
		// and emits probes, so it must be a pure function of state for
		// replay-based exploration and seeded reproducibility.
		txns := make([]id.Txn, 0, len(c.agents))
		for txn, a := range c.agents {
			if a.hasPendingAck {
				txns = append(txns, txn)
			}
		}
		sort.Slice(txns, func(i, j int) bool { return txns[i] < txns[j] })
		for _, txn := range txns {
			q++
			c.checkAgentStep(txn)
		}
	})
	return q
}

// sendProbesStep sends probes along every not-yet-probed
// inter-controller edge leaving the newly labeled agents.
func (c *Controller) sendProbesStep(comp *probeComp, newly []id.Txn) {
	for _, txn := range newly {
		for _, e := range c.interEdgesStep(txn) {
			if comp.probed[e] {
				continue
			}
			comp.markProbed(e)
			c.probesSent++
			c.send(e.To.Site, msg.NewCtrlProbe(msg.CtrlProbe{Tag: comp.tag, Edge: e}))
		}
	}
}

// handleProbeStep implements steps A1 and A2.
func (c *Controller) handleProbeStep(from id.Site, m msg.CtrlProbe) {
	if m.Edge.To.Site != c.cfg.Site {
		// A conforming controller sends a probe only along an edge to the
		// edge's destination site (sendProbesStep), so this frame was
		// forged or misrouted.
		c.rejectStep(from, m.Kind(), ReasonMisroutedProbe,
			fmt.Sprintf("probe along %v -> %v does not end at this site", m.Edge.From, m.Edge.To))
		return
	}
	if !c.meaningfulStep(m.Edge) {
		c.probesDropped++
		return
	}
	comp, ok := c.compForStep(m.Tag)
	if !ok {
		c.probesDropped++
		return
	}
	// A1/A2 labeling pass: a fresh walk from the probe's entry process.
	// At the initiator, declaration requires this walk to reach the
	// target — including the case where the probe lands directly on it.
	newly, reached := c.labelReachableStep(comp, m.Edge.To.Txn, comp.target.Txn, comp.own)
	if comp.own && !comp.declared && reached {
		// Step A1: the returning probe chain closes on the target — it
		// is on a black cycle (Theorem 2 carries over, §6.6).
		c.declareStep(comp, &m.Edge)
		return
	}
	// Step A2 (and the initiator's continued A0 sending rule): forward
	// along unprobed inter-controller edges of the newly labeled set.
	c.sendProbesStep(comp, newly)
}

// meaningfulStep decides whether a probe along the given edge is
// meaningful: the edge exists and is black at receipt (§6.5). For an
// acquisition edge ((Ti,Sj),(Ti,Sm)) received at Sm: the agent exists
// with a received-but-unanswered acquisition from Sj. For a holder-home
// edge ((Tw,Sx),(Th,Sm)) received at the holder's home Sm: transaction
// Th is still running here and holds at least one resource at Sx, so
// the wait it induces there cannot have dissolved.
func (c *Controller) meaningfulStep(e id.AgentEdge) bool {
	if e.From.Txn == e.To.Txn {
		a, ok := c.agents[e.To.Txn]
		return ok && a.home == e.From.Site && a.hasPendingAck
	}
	ts, ok := c.txns[e.To.Txn]
	if !ok || ts.status != TxnRunning {
		return false
	}
	for _, h := range ts.heldRemote {
		if h.val == e.From.Site {
			return true
		}
	}
	return false
}

// compForStep finds or creates the computation state for a tag,
// applying the per-initiator window (§4.3).
func (c *Controller) compForStep(tag id.CtrlTag) (*probeComp, bool) {
	w := c.windows[tag.Initiator]
	if w != nil {
		if comp, ok := w.comps[tag.N]; ok {
			return comp, true
		}
	}
	if tag.Initiator == c.cfg.Site {
		// An own computation we no longer track: superseded.
		return nil, false
	}
	if w != nil && w.latest > compWindow && tag.N < w.latest-compWindow {
		return nil, false // stale beyond the window
	}
	comp := &probeComp{tag: tag}
	c.trackCompStep(tag.Initiator, tag.N, comp)
	return comp, true
}

// trackCompStep records comp as computation (initiator, n) and advances
// the initiator's window past it.
func (c *Controller) trackCompStep(initiator id.Site, n uint64, comp *probeComp) {
	w := windowOf(c.windows, initiator)
	w.put(n, comp)
	w.advance(n)
}

// windowOf returns initiator's window in windows, adding an empty one.
func windowOf(windows map[id.Site]*initWindow, initiator id.Site) *initWindow {
	w := windows[initiator]
	if w == nil {
		w = &initWindow{comps: make(map[uint64]*probeComp)}
		windows[initiator] = w
	}
	return w
}

// compRef names one tracked computation (j, n).
type compRef struct {
	site id.Site
	n    uint64
	comp *probeComp
}

// sortedComps lists the tracked computations in (initiator, n) order,
// the order checkpoints and fingerprints write them in.
func (c *Controller) sortedComps() []compRef {
	var out []compRef
	for s, w := range c.windows {
		for n, comp := range w.comps {
			out = append(out, compRef{site: s, n: n, comp: comp})
		}
	}
	sort.Slice(out, func(i, j int) bool {
		if out[i].site != out[j].site {
			return out[i].site < out[j].site
		}
		return out[i].n < out[j].n
	})
	return out
}

// sortedLatest lists the initiators with a latest computation number,
// in site order.
func (c *Controller) sortedLatest() []id.Site {
	var sites []id.Site
	for s, w := range c.windows {
		if w.latest > 0 {
			sites = append(sites, s)
		}
	}
	slices.Sort(sites)
	return sites
}

// declareStep latches a declaration, notifies, and — when Resolve is
// on — aborts the victim (the detected process's transaction), routing
// the abort to the transaction's home site if the process here is a
// remote agent.
func (c *Controller) declareStep(comp *probeComp, closing *id.AgentEdge) {
	if comp.declared {
		return
	}
	// Discard verdicts about a target that no longer exists in the
	// incarnation the computation was initiated for: the deadlock it
	// found was already broken by an abort.
	if a, ok := c.agents[comp.target.Txn]; !ok || a.inc != comp.targetInc {
		comp.declared = true
		return
	}
	comp.declared = true
	if comp.target.Site == c.cfg.Site {
		c.declaredLocal++
	} else {
		c.declaredRemote++
	}
	if cb := c.cfg.OnDeadlock; cb != nil {
		target, tag := comp.target, comp.tag
		c.fx.Defer(func() { cb(target, tag) })
	}
	if !c.cfg.Resolve {
		return
	}
	// The abort is deferred behind the OnDeadlock callback so observers
	// (the oracle audit in particular) see the system state at the
	// moment of declaration, before the victim's edges are torn down.
	victim := comp.target
	switch c.cfg.Victim {
	case VictimYoungest:
		if closing != nil && closing.From.Txn > victim.Txn {
			victim = closing.From
		}
	case VictimRandom:
		if closing != nil && closing.From.Txn != victim.Txn && victimCoin(comp.tag, closing.From.Txn) {
			victim = closing.From
		}
	}
	c.fx.Defer(func() { c.abortVictim(victim) })
}

// abortVictim routes a declaration's abort. The detected target always
// has an agent here, so Abort can resolve its home; the alternative
// candidate (the closing edge's source) may have no agent at the
// declaring site at all — its abort is addressed to the site its agent
// lives on, which forwards it home.
func (c *Controller) abortVictim(victim id.Agent) {
	if victim.Site == c.cfg.Site {
		c.Abort(victim.Txn)
		return
	}
	c.send(victim.Site, msg.NewCtrlAbort(msg.CtrlAbort{Txn: victim.Txn}))
}

// victimCoin is VictimRandom's unbiased coin: a splitmix64-style hash
// of the computation tag and the alternative candidate. Declarations
// are uniquely tagged, so across many deadlocks the choice splits
// evenly, while a seeded replay of the same schedule aborts the same
// victims.
func victimCoin(tag id.CtrlTag, alt id.Txn) bool {
	x := uint64(tag.Initiator)<<40 ^ tag.N<<16 ^ uint64(uint32(alt))
	x += 0x9e3779b97f4a7c15
	x = (x ^ (x >> 30)) * 0xbf58476d1ce4e5b9
	x = (x ^ (x >> 27)) * 0x94d049bb133111eb
	return (x^(x>>31))&1 == 1
}

// agentBlockedStep reports whether the agent is waiting locally or
// (for a home agent) awaiting a remote acquisition.
func (c *Controller) agentBlockedStep(txn id.Txn) bool {
	a, ok := c.agents[txn]
	if !ok {
		return false
	}
	if a.hasWaiting {
		return true
	}
	if ts, home := c.txns[txn]; home && ts.status == TxnRunning && len(ts.pendingRemote) > 0 {
		return true
	}
	return false
}
