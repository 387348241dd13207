package ddb

import (
	"fmt"
	"sort"

	"repro/internal/engine"
	"repro/internal/id"
	"repro/internal/msg"
)

// Checkpoint serialization (engine.Snapshotter): exactly the state
// Snapshot() fingerprints — the lock table (holders plus the FIFO wait
// queue, whose order is behaviourally significant), agent and home-
// transaction state, the probe-computation table and the §6.5 latest
// table — plus the home transactions' scripted lock steps, which the
// fingerprint summarizes as a cursor but replay needs verbatim.
// Counters are excluded; timers are not persisted (a restored running
// transaction re-arms its hold timer from config when it next acquires,
// an expired-but-undelivered release is re-derived by the workload
// layer, and RestoreState re-arms a full-T detection timer for every
// open wait). Neither method serializes through the Runner; the Host
// calls them on the owning shard (checkpoint restore, migration install)
// or with it parked at a checkpoint barrier.

// ddbStateVersion versions the layout.
const ddbStateVersion = 1

// MarshalState implements engine.Snapshotter. Maps are written in
// sorted key order so equal states marshal to equal bytes; wait queues
// and step scripts keep their live order. Only transactions in flight
// are in it: a checkpoint or a migration payload does not grow with the
// number of transactions the controller has finished.
func (c *Controller) MarshalState() []byte {
	w := engine.NewSnapWriter(512)
	w.U8(ddbStateVersion)

	// Lock table.
	rs := make([]id.Resource, 0, len(c.locks.locks))
	for r := range c.locks.locks {
		rs = append(rs, r)
	}
	sort.Slice(rs, func(i, j int) bool { return rs[i] < rs[j] })
	w.Len(len(rs))
	for _, r := range rs {
		ls := c.locks.locks[r]
		w.I32(int32(r))
		w.Len(len(ls.holders))
		for _, h := range ls.holders {
			w.I32(int32(h.key))
			w.I64(int64(h.val))
		}
		w.Len(len(ls.queue))
		for _, e := range ls.queue {
			w.I32(int32(e.txn))
			w.I64(int64(e.mode))
		}
	}

	// Agents.
	atxns := sortedKeys(c.agents)
	w.Len(len(atxns))
	for _, t := range atxns {
		a := c.agents[t]
		w.I32(int32(a.txn))
		w.I32(int32(a.home))
		w.U32(a.inc)
		w.Len(len(a.held))
		for _, h := range a.held {
			w.I32(int32(h.key))
			w.I64(int64(h.val))
		}
		w.Bool(a.hasWaiting)
		w.I32(int32(a.waiting))
		w.I64(int64(a.waitingMode))
		w.Bool(a.hasPendingAck)
		w.I32(int32(a.pendingAck))
	}

	// Home transactions.
	ttxns := sortedKeys(c.txns)
	w.Len(len(ttxns))
	for _, t := range ttxns {
		ts := c.txns[t]
		w.I32(int32(ts.txn))
		w.U32(ts.inc)
		w.Len(len(ts.steps))
		for _, s := range ts.steps {
			w.I32(int32(s.Resource))
			w.I64(int64(s.Mode))
		}
		w.I64(int64(ts.next))
		w.I64(int64(ts.status))
		w.I64(ts.holdTime)
		writeResourceSiteMap(w, ts.pendingRemote)
		writeResourceSiteMap(w, ts.heldRemote)
	}

	// Probe computations.
	w.U64(c.nextN)
	keys := c.sortedComps()
	w.Len(len(keys))
	for _, k := range keys {
		comp := k.comp
		w.I32(int32(k.site))
		w.U64(k.n)
		w.I32(int32(comp.tag.Initiator))
		w.U64(comp.tag.N)
		w.Bool(comp.own)
		w.I32(int32(comp.target.Txn))
		w.I32(int32(comp.target.Site))
		w.U32(comp.targetInc)
		lab := make([]id.Txn, 0, len(comp.labeled))
		for t := range comp.labeled {
			lab = append(lab, t)
		}
		sort.Slice(lab, func(i, j int) bool { return lab[i] < lab[j] })
		w.Len(len(lab))
		for _, t := range lab {
			w.I32(int32(t))
		}
		probed := make([]id.AgentEdge, 0, len(comp.probed))
		for e := range comp.probed {
			probed = append(probed, e)
		}
		sort.Slice(probed, func(i, j int) bool { return agentEdgeLess(probed[i], probed[j]) })
		w.Len(len(probed))
		for _, e := range probed {
			w.I32(int32(e.From.Txn))
			w.I32(int32(e.From.Site))
			w.I32(int32(e.To.Txn))
			w.I32(int32(e.To.Site))
		}
		w.Bool(comp.declared)
	}

	// Latest table.
	sites := c.sortedLatest()
	w.Len(len(sites))
	for _, s := range sites {
		w.I32(int32(s))
		w.U64(c.windows[s].latest)
	}
	return w.Bytes()
}

// RestoreState implements engine.Snapshotter, replacing the
// controller's algorithmic state wholesale.
func (c *Controller) RestoreState(data []byte) error {
	r := engine.NewSnapReader(data)
	if v := r.U8(); v != ddbStateVersion && r.Err() == nil {
		return fmt.Errorf("ddb: state version %d (want %d)", v, ddbStateVersion)
	}

	locks := &lockTable{locks: make(map[id.Resource]*lockState)}
	for n := r.Len(); n > 0; n-- {
		res := id.Resource(r.I32())
		ls := &lockState{}
		for hn := r.Len(); hn > 0; hn-- {
			t := id.Txn(r.I32())
			ls.holders.put(t, msg.LockMode(r.I64()))
		}
		qn := r.Len()
		ls.queue = make([]waitEntry, 0, qn)
		for ; qn > 0; qn-- {
			ls.queue = append(ls.queue, waitEntry{txn: id.Txn(r.I32()), mode: msg.LockMode(r.I64())})
		}
		locks.locks[res] = ls
	}

	agents := make(map[id.Txn]*agentState)
	for n := r.Len(); n > 0; n-- {
		a := &agentState{
			txn:  id.Txn(r.I32()),
			home: id.Site(r.I32()),
			inc:  r.U32(),
		}
		for hn := r.Len(); hn > 0; hn-- {
			res := id.Resource(r.I32())
			a.held.put(res, msg.LockMode(r.I64()))
		}
		a.hasWaiting = r.Bool()
		a.waiting = id.Resource(r.I32())
		a.waitingMode = msg.LockMode(r.I64())
		a.hasPendingAck = r.Bool()
		a.pendingAck = id.Resource(r.I32())
		agents[a.txn] = a
	}

	txns := make(map[id.Txn]*txnState)
	for n := r.Len(); n > 0; n-- {
		ts := &txnState{txn: id.Txn(r.I32()), inc: r.U32()}
		sn := r.Len()
		ts.steps = make([]LockStep, 0, sn)
		for ; sn > 0; sn-- {
			ts.steps = append(ts.steps, LockStep{Resource: id.Resource(r.I32()), Mode: msg.LockMode(r.I64())})
		}
		ts.next = int(r.I64())
		ts.status = TxnStatus(r.I64())
		ts.holdTime = r.I64()
		ts.pendingRemote = readResourceSiteMap(r)
		ts.heldRemote = readResourceSiteMap(r)
		// A checkpoint written before finished transactions were forgotten
		// at commit still lists them; they hold nothing, so drop them here.
		if ts.status == TxnRunning {
			txns[ts.txn] = ts
		}
	}

	nextN := r.U64()
	windows := make(map[id.Site]*initWindow)
	for n := r.Len(); n > 0; n-- {
		site, cn := id.Site(r.I32()), r.U64()
		comp := &probeComp{
			tag:       id.CtrlTag{Initiator: id.Site(r.I32()), N: r.U64()},
			own:       r.Bool(),
			target:    id.Agent{Txn: id.Txn(r.I32()), Site: id.Site(r.I32())},
			targetInc: r.U32(),
		}
		for ln := r.Len(); ln > 0; ln-- {
			comp.label(id.Txn(r.I32()))
		}
		for pn := r.Len(); pn > 0; pn-- {
			comp.markProbed(id.AgentEdge{
				From: id.Agent{Txn: id.Txn(r.I32()), Site: id.Site(r.I32())},
				To:   id.Agent{Txn: id.Txn(r.I32()), Site: id.Site(r.I32())},
			})
		}
		comp.declared = r.Bool()
		windowOf(windows, site).put(cn, comp)
	}
	for n := r.Len(); n > 0; n-- {
		s := id.Site(r.I32())
		windowOf(windows, s).latest = r.U64()
	}
	if err := r.Err(); err != nil {
		return fmt.Errorf("ddb: restore state: %w", err)
	}

	c.locks = locks
	c.agents = agents
	c.txns = txns
	c.nextN = nextN
	c.windows = windows
	// The restored waits are open, and nothing else will ever arm their
	// §4.3 timers: give each a full T, as waitStartStep did when it began.
	if c.cfg.Mode == InitiateOnWaitDelay {
		for _, t := range sortedKeys(agents) {
			if c.agentBlockedStep(t) {
				c.armDetectionStep(agents[t])
			}
		}
	}
	return nil
}

// sortedKeys returns the transactions of m in increasing order.
func sortedKeys[V any](m map[id.Txn]V) []id.Txn {
	ts := make([]id.Txn, 0, len(m))
	for t := range m {
		ts = append(ts, t)
	}
	sort.Slice(ts, func(i, j int) bool { return ts[i] < ts[j] })
	return ts
}

func agentEdgeLess(a, b id.AgentEdge) bool {
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
}

func writeResourceSiteMap(w *engine.SnapWriter, m assoc[id.Resource, id.Site]) {
	w.Len(len(m))
	for _, e := range m {
		w.I32(int32(e.key))
		w.I32(int32(e.val))
	}
}

func readResourceSiteMap(r *engine.SnapReader) assoc[id.Resource, id.Site] {
	var m assoc[id.Resource, id.Site]
	for n := r.Len(); n > 0; n-- {
		res := id.Resource(r.I32())
		m.put(res, id.Site(r.I32()))
	}
	return m
}
