package ddb

import (
	"fmt"
	"sort"
	"strings"

	"repro/internal/id"
)

// Snapshot renders the controller's algorithmic state canonically for
// the explorer's state fingerprint: the lock table (holders and FIFO
// queues), agent and home-transaction state, and the probe-computation
// table. Two controllers in behaviourally identical states produce
// byte-identical strings; pure observability counters are excluded.
func (c *Controller) Snapshot() string {
	var out string
	c.run.Exec(func() { out = c.snapshotStep() })
	return out
}

// snapshotStep renders the state from within the serialized step.
func (c *Controller) snapshotStep() string {
	var b strings.Builder
	fmt.Fprintf(&b, "ddb/%d{n:%d locks:[", c.cfg.Site, c.nextN)
	c.locks.snapshotInto(&b)
	b.WriteString("] agents:[")
	atxns := make([]id.Txn, 0, len(c.agents))
	for t := range c.agents {
		atxns = append(atxns, t)
	}
	sort.Slice(atxns, func(i, j int) bool { return atxns[i] < atxns[j] })
	for _, t := range atxns {
		a := c.agents[t]
		fmt.Fprintf(&b, "%d=(h:%d i:%d held:[", t, a.home, a.inc)
		for _, h := range a.held {
			fmt.Fprintf(&b, "%d/%d;", h.key, h.val)
		}
		b.WriteString("]")
		if a.hasWaiting {
			fmt.Fprintf(&b, " w:%d/%d", a.waiting, a.waitingMode)
		}
		if a.hasPendingAck {
			fmt.Fprintf(&b, " ack:%d", a.pendingAck)
		}
		b.WriteString(");")
	}
	b.WriteString("] txns:[")
	ttxns := make([]id.Txn, 0, len(c.txns))
	for t := range c.txns {
		ttxns = append(ttxns, t)
	}
	sort.Slice(ttxns, func(i, j int) bool { return ttxns[i] < ttxns[j] })
	for _, t := range ttxns {
		ts := c.txns[t]
		fmt.Fprintf(&b, "%d=(i:%d next:%d st:%d pr:[", t, ts.inc, ts.next, ts.status)
		writeResourceSites(&b, ts.pendingRemote)
		b.WriteString("] hr:[")
		writeResourceSites(&b, ts.heldRemote)
		b.WriteString("]);")
	}
	b.WriteString("] comps:[")
	for _, k := range c.sortedComps() {
		comp := k.comp
		fmt.Fprintf(&b, "%d.%d=(own:%t tgt:%v ti:%d d:%t lab:[", k.site, k.n, comp.own, comp.target, comp.targetInc, comp.declared)
		lab := make([]id.Txn, 0, len(comp.labeled))
		for t := range comp.labeled {
			lab = append(lab, t)
		}
		sort.Slice(lab, func(i, j int) bool { return lab[i] < lab[j] })
		for _, t := range lab {
			fmt.Fprintf(&b, "%d;", t)
		}
		b.WriteString("] pr:[")
		probed := make([]string, 0, len(comp.probed))
		for e := range comp.probed {
			probed = append(probed, fmt.Sprintf("%v", e))
		}
		sort.Strings(probed)
		for _, e := range probed {
			b.WriteString(e)
			b.WriteString(";")
		}
		b.WriteString("]);")
	}
	b.WriteString("] latest:[")
	for _, s := range c.sortedLatest() {
		fmt.Fprintf(&b, "%d=%d;", s, c.windows[s].latest)
	}
	b.WriteString("]}")
	return b.String()
}

// snapshotInto writes the lock table canonically: holders sorted, the
// wait queue in its live FIFO order (the order is behaviourally
// significant — grants happen in queue order).
func (t *lockTable) snapshotInto(b *strings.Builder) {
	rs := make([]id.Resource, 0, len(t.locks))
	for r := range t.locks {
		rs = append(rs, r)
	}
	sort.Slice(rs, func(i, j int) bool { return rs[i] < rs[j] })
	for _, r := range rs {
		ls := t.locks[r]
		fmt.Fprintf(b, "%d=(", r)
		for _, h := range ls.holders {
			fmt.Fprintf(b, "%d/%d;", h.key, h.val)
		}
		b.WriteString("|")
		for _, w := range ls.queue {
			fmt.Fprintf(b, "%d/%d;", w.txn, w.mode)
		}
		b.WriteString(");")
	}
}

// writeResourceSites renders a resource→site association in its own
// (resource) order.
func writeResourceSites(b *strings.Builder, m assoc[id.Resource, id.Site]) {
	for _, e := range m {
		fmt.Fprintf(b, "%d@%d;", e.key, e.val)
	}
}
