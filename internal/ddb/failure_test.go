package ddb

import (
	"testing"
	"time"

	"repro/internal/engine"
	"repro/internal/id"
	"repro/internal/msg"
	"repro/internal/sim"
	"repro/internal/transport"
)

// TestPeerDownReleasesDeadSitesAgents: a lock held here by an agent
// whose home site crashed must be released, unblocking local waiters —
// otherwise a corpse's hold wedges survivors forever.
func TestPeerDownReleasesDeadSitesAgents(t *testing.T) {
	sched, ctrls := harness(t, 2)
	w := msg.LockWrite
	// T0 home S1 acquires r0@S0 remotely and holds it for a long time.
	if err := ctrls[1].Submit(0, 0, []LockStep{{Resource: 0, Mode: w}}); err != nil {
		t.Fatal(err)
	}
	sched.RunUntil(sim.Time(10 * sim.Millisecond))
	// T1 home S0 queues behind T0's agent for r0.
	if err := ctrls[0].Submit(1, 0, []LockStep{{Resource: 0, Mode: w}}); err != nil {
		t.Fatal(err)
	}
	sched.RunUntil(sim.Time(20 * sim.Millisecond))
	if !ctrls[0].AgentBlocked(1) {
		t.Fatal("T1 should be queued behind the remote agent's hold")
	}

	// S1 crashes: its agent's hold must cascade to T1.
	ctrls[0].PeerDown(1)
	if ctrls[0].AgentBlocked(1) {
		t.Fatal("T1 still blocked after holder's home site died")
	}
	sched.RunUntil(sim.Time(30 * sim.Millisecond))
	if _, ok := ctrls[0].HomeOf(0); ok {
		t.Fatal("dead site's agent not purged")
	}
	st := ctrls[0].Stats()
	if st.AgentsPurged != 1 {
		t.Fatalf("AgentsPurged = %d, want 1", st.AgentsPurged)
	}
	// Idempotent: a second notification finds nothing to do.
	ctrls[0].PeerDown(1)
	if st := ctrls[0].Stats(); st.AgentsPurged != 1 {
		t.Fatalf("repeat PeerDown purged again: %+v", st)
	}
}

// TestPeerDownAbortsTransactionsStuckOnDeadSite: a home transaction
// whose in-flight acquisition targets the crashed site can never be
// granted — the DDB analogue of the core engine's severed wait — so it
// aborts rather than waiting forever.
func TestPeerDownAbortsTransactionsStuckOnDeadSite(t *testing.T) {
	sched, ctrls := harness(t, 2)
	var aborted []id.Txn
	ctrls[0].cfg.OnAbort = func(txn id.Txn) { aborted = append(aborted, txn) }
	w := msg.LockWrite
	// T1 home S1 holds r1@S1 locally; T0 home S0 then queues for r1
	// remotely and blocks.
	if err := ctrls[1].Submit(1, 0, []LockStep{{Resource: 1, Mode: w}}); err != nil {
		t.Fatal(err)
	}
	sched.RunUntil(sim.Time(5 * sim.Millisecond))
	if err := ctrls[0].Submit(0, 0, []LockStep{{Resource: 1, Mode: w}}); err != nil {
		t.Fatal(err)
	}
	sched.RunUntil(sim.Time(15 * sim.Millisecond))
	if !ctrls[0].AgentBlocked(0) {
		t.Fatal("T0 should be awaiting the remote acquisition")
	}

	ctrls[0].PeerDown(1)
	if len(aborted) != 1 || aborted[0] != 0 {
		t.Fatalf("OnAbort reported %v, want the stuck transaction [T0]", aborted)
	}
	st := ctrls[0].Stats()
	if st.PeerAborts != 1 || st.Aborts != 1 {
		t.Fatalf("abort counters off: %+v", st)
	}
	// No release may be addressed to the corpse: the dead entry was
	// stripped before the abort's release sweep.
	sched.RunUntil(sim.Time(25 * sim.Millisecond))

	// The same verdict from an engine.Host: site 0 is hosted, site 1
	// sits on a second, self-contained Host that is the first one's
	// underlying transport, and the first Host delivers the peer-down
	// and peer-up verdicts as recovery steps on site 0's shard.
	remote := engine.NewHost(engine.Options{})
	defer remote.Close()
	host := engine.NewHost(engine.Options{Shards: 1, Transport: remote})
	defer host.Close()
	hostAborts := make(chan id.Txn, 1)
	sites := make([]*Controller, 2)
	for i, net := range []transport.Transport{host, remote} {
		cfg := Config{
			Site:         id.Site(i),
			Transport:    net,
			Timers:       &countingTimers{}, // the hold never ends
			ResourceHome: func(r id.Resource) id.Site { return id.Site(int(r) % 2) },
			Mode:         InitiateManual,
			HoldTime:     int64(sim.Second),
		}
		if i == 0 {
			cfg.OnAbort = func(txn id.Txn) { hostAborts <- txn }
		}
		c, err := NewController(cfg)
		if err != nil {
			t.Fatal(err)
		}
		sites[i] = c
	}
	if err := sites[1].Submit(1, 0, []LockStep{{Resource: 1, Mode: w}}); err != nil {
		t.Fatal(err)
	}
	if err := sites[0].Submit(0, 0, []LockStep{{Resource: 1, Mode: w}}); err != nil {
		t.Fatal(err)
	}
	deadline := time.Now().Add(10 * time.Second)
	for !sites[1].AgentBlocked(0) {
		if time.Now().After(deadline) {
			t.Fatal("T0's acquisition never queued at site 1")
		}
		time.Sleep(time.Millisecond)
	}
	host.PeerDown(1)
	host.PeerUp(1, false)
	host.Drain()
	select {
	case txn := <-hostAborts:
		if txn != 0 {
			t.Fatalf("hosted OnAbort reported T%d, want T0", txn)
		}
	default:
		t.Fatal("hosted peer-down did not abort the stuck transaction")
	}
	if st := sites[0].Stats(); st.PeerAborts != 1 {
		t.Fatalf("hosted PeerAborts = %d, want 1", st.PeerAborts)
	}
}

// TestPeerDownUpResetsProbeWindow: the §4.3 per-initiator freshness
// window must not survive the initiator's death — a restarted
// controller numbers computations from 1, and a stale high-water mark
// would silently discard every probe of the new incarnation.
func TestPeerDownUpResetsProbeWindow(t *testing.T) {
	_, ctrls := harness(t, 2)
	c := ctrls[0]
	c.run.Exec(func() { c.compForStep(id.CtrlTag{Initiator: 1, N: compWindow + 1000}) })

	c.PeerDown(1)
	c.PeerUp(1)

	var nComps int
	var staleWindow bool
	var freshOK bool
	c.run.Exec(func() {
		if w := c.windows[1]; w != nil {
			nComps, staleWindow = len(w.comps), w.latest > 0
		}
		comp, ok := c.compForStep(id.CtrlTag{Initiator: 1, N: 1})
		freshOK = ok && comp != nil
	})
	if nComps != 0 {
		t.Fatalf("dead initiator's computations survived: %d", nComps)
	}
	if staleWindow {
		t.Fatal("stale freshness window survived restart")
	}
	// The new incarnation's first computation must now be trackable.
	if !freshOK {
		t.Fatal("restarted initiator's computation n=1 discarded as stale")
	}
}
