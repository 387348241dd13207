package core_test

import (
	"testing"
	"time"

	"repro/internal/core"
	"repro/internal/id"
	"repro/internal/sim"
	"repro/internal/transport"
	"repro/internal/wfg"
	"repro/internal/workload"
)

// newSystem is a test helper building an n-process simulated system.
func newSystem(t *testing.T, n int, opts workload.BasicOptions) *workload.BasicSystem {
	t.Helper()
	sys, err := workload.NewBasicSystem(n, opts)
	if err != nil {
		t.Fatalf("NewBasicSystem(%d): %v", n, err)
	}
	return sys
}

func TestRingCycleIsDetected(t *testing.T) {
	for _, n := range []int{2, 3, 5, 17, 64} {
		sys := newSystem(t, n, workload.BasicOptions{Seed: 1})
		if err := sys.Apply(workload.Ring(n)); err != nil {
			t.Fatalf("apply ring(%d): %v", n, err)
		}
		sys.Run(1 << 20)
		if len(sys.Detections) == 0 {
			t.Fatalf("ring(%d): no process declared deadlock", n)
		}
		// Every declaration must be truthful (QRP2): the declarer is on
		// a black cycle per the oracle.
		for _, d := range sys.Detections {
			onCycle := false
			sys.Oracle.With(func(g *wfg.Graph) { onCycle = g.OnBlackCycle(d.Proc) })
			if !onCycle {
				t.Errorf("ring(%d): %v declared but oracle says not on black cycle", n, d.Proc)
			}
		}
	}
}

func TestChainNeverDetects(t *testing.T) {
	// A chain has no cycle: no process may ever declare even though all
	// but the last are blocked (until auto-grant unwinds the chain).
	sys := newSystem(t, 10, workload.BasicOptions{Seed: 2, AutoGrant: true})
	if err := sys.Apply(workload.Chain(10)); err != nil {
		t.Fatalf("apply chain: %v", err)
	}
	sys.Run(1 << 20)
	if len(sys.Detections) != 0 {
		t.Fatalf("chain: got %d detections, want 0", len(sys.Detections))
	}
	// The chain must fully unwind: everyone active at quiescence.
	for i, p := range sys.Procs {
		if p.Blocked() {
			t.Errorf("chain: process %d still blocked at quiescence", i)
		}
	}
}

func TestTwoCycleDetectsAtBothOrOne(t *testing.T) {
	// The 2-cycle p0<->p1: both initiate (both add edges); at least one
	// must declare, and any declarer must be on the cycle.
	sys := newSystem(t, 2, workload.BasicOptions{Seed: 3})
	if err := sys.Apply(workload.Ring(2)); err != nil {
		t.Fatal(err)
	}
	sys.Run(1 << 16)
	if len(sys.Detections) == 0 {
		t.Fatal("2-cycle not detected")
	}
}

func TestDetectionLatencyIsOneRingTraversal(t *testing.T) {
	// With fixed latency L and simultaneous initiation, a probe must
	// travel the full ring once: detection at ~ (n+1)*L (request then
	// probe around). Verify the detection time is within [n*L, 3*n*L].
	const n = 8
	latency := sim.Duration(1 * sim.Millisecond)
	sys := newSystem(t, n, workload.BasicOptions{Seed: 4, Latency: transport.FixedLatency(latency)})
	if err := sys.Apply(workload.Ring(n)); err != nil {
		t.Fatal(err)
	}
	sys.Run(1 << 16)
	if len(sys.Detections) == 0 {
		t.Fatal("ring not detected")
	}
	first := sys.Detections[0].At
	lo, hi := sim.Time(n)*latency, 3*sim.Time(n)*latency
	if first < lo || first > hi {
		t.Errorf("detection at %d, want within [%d, %d]", first, lo, hi)
	}
}

func TestNoFalseDetectionUnderChurn(t *testing.T) {
	// Processes request and are granted continuously; no dark cycle
	// ever forms in a chain that keeps unwinding. QRP2 demands zero
	// declarations.
	sys := newSystem(t, 6, workload.BasicOptions{Seed: 5, AutoGrant: true})
	// Repeated chains: each round re-issues a chain after quiescence.
	for round := 0; round < 25; round++ {
		if err := sys.Apply(workload.Chain(6)); err != nil {
			t.Fatalf("round %d: %v", round, err)
		}
		sys.Run(1 << 20)
	}
	if len(sys.Detections) != 0 {
		t.Fatalf("churn: got %d detections, want 0", len(sys.Detections))
	}
	if v := sys.FIFO.Violations(); v != 0 {
		t.Fatalf("FIFO violations: %d", v)
	}
}

func TestMeaningfulProbeRequiresBlackEdge(t *testing.T) {
	// A probe that arrives after the reply (white edge gone) must be
	// discarded. Construct: p0 requests p1; p1 granted; then p1 somehow
	// receives a stale probe from p0 — use manual policy and a raw
	// transport send ordering.
	sched := sim.New(7)
	net := transport.NewSimNet(sched, transport.FixedLatency(sim.Millisecond))
	mk := func(pid id.Proc) *core.Process {
		p, err := core.NewProcess(core.Config{ID: pid, Transport: net, Policy: core.InitiateManually})
		if err != nil {
			t.Fatal(err)
		}
		return p
	}
	p0, p1 := mk(0), mk(1)
	if err := p0.Request(1); err != nil {
		t.Fatal(err)
	}
	// Probe sent immediately after the request: P1 guarantees the
	// request is received first (FIFO), so the probe IS meaningful at
	// p1 — but p1 has no outgoing edges, so nothing propagates and p0
	// never receives anything back.
	if _, ok := p0.StartProbe(); !ok {
		t.Fatal("StartProbe on blocked process returned !ok")
	}
	sched.Run()
	if _, dead := p0.Deadlocked(); dead {
		t.Fatal("p0 declared deadlock with no cycle")
	}
	st := p1.Stats()
	if st.ProbesMeaningful != 1 {
		t.Errorf("p1 meaningful probes = %d, want 1 (FIFO makes probe follow request)", st.ProbesMeaningful)
	}
	// Now grant and send a second probe after p1 replied: the edge is
	// gone by the time the probe arrives, so it must be discarded.
	if err := p1.Grant(0); err != nil {
		t.Fatal(err)
	}
	sched.Run()
	if p0.Blocked() {
		t.Fatal("p0 still blocked after grant")
	}
	// p0 is active; a manual probe start reports !ok.
	if _, ok := p0.StartProbe(); ok {
		t.Fatal("StartProbe on active process returned ok")
	}
}

func TestGrantWhileBlockedViolatesG3(t *testing.T) {
	sched := sim.New(8)
	net := transport.NewSimNet(sched, nil)
	p0, err := core.NewProcess(core.Config{ID: 0, Transport: net, Policy: core.InitiateManually})
	if err != nil {
		t.Fatal(err)
	}
	if _, err := core.NewProcess(core.Config{ID: 1, Transport: net, Policy: core.InitiateManually}); err != nil {
		t.Fatal(err)
	}
	p2, err := core.NewProcess(core.Config{ID: 2, Transport: net, Policy: core.InitiateManually})
	if err != nil {
		t.Fatal(err)
	}
	// p2 requests p0; p0 requests p1; delivery makes p0 hold p2's
	// request while blocked on p1.
	if err := p2.Request(0); err != nil {
		t.Fatal(err)
	}
	if err := p0.Request(1); err != nil {
		t.Fatal(err)
	}
	sched.Run()
	if err := p0.Grant(2); err == nil {
		t.Fatal("Grant while blocked succeeded; G3 requires it to fail")
	}
}

func TestRequestValidation(t *testing.T) {
	sched := sim.New(9)
	net := transport.NewSimNet(sched, nil)
	p0, err := core.NewProcess(core.Config{ID: 0, Transport: net, Policy: core.InitiateManually})
	if err != nil {
		t.Fatal(err)
	}
	if _, err := core.NewProcess(core.Config{ID: 1, Transport: net, Policy: core.InitiateManually}); err != nil {
		t.Fatal(err)
	}
	if err := p0.Request(0); err == nil {
		t.Error("self-request succeeded, want error")
	}
	if err := p0.Request(1); err != nil {
		t.Fatal(err)
	}
	if err := p0.Request(1); err == nil {
		t.Error("duplicate edge creation succeeded, want G1 error")
	}
}

func TestLargeRingSoak(t *testing.T) {
	// A 512-process cycle with a single initiator: detection costs
	// exactly N probes. The WFGD computation that follows is the
	// expensive part — §5's messages are whole edge sets, so informing
	// N vertices about N edges moves O(N^2) set entries; the soak
	// guards against anything worse creeping in.
	if testing.Short() {
		t.Skip("soak test")
	}
	const n = 512
	sys := newSystem(t, n, workload.BasicOptions{Seed: 512, Policy: core.InitiateManually})
	if err := sys.Apply(workload.Ring(n)); err != nil {
		t.Fatal(err)
	}
	sys.Run(1 << 22) // deliver the requests
	if _, ok := sys.Procs[0].StartProbe(); !ok {
		t.Fatal("initiator not blocked")
	}
	sys.Run(1 << 26)
	if len(sys.Detections) != 1 {
		t.Fatalf("detections = %d, want exactly 1", len(sys.Detections))
	}
	var probes uint64
	for _, p := range sys.Procs {
		probes += p.Stats().ProbesSent
	}
	if probes != n {
		t.Fatalf("probe volume %d, want exactly N=%d", probes, n)
	}
	// Every ring member ends up knowing the full cycle.
	for _, pid := range []id.Proc{0, n / 2, n - 1} {
		if got := len(sys.Procs[pid].BlackPaths()); got != n {
			t.Fatalf("process %v knows %d edges, want %d", pid, got, n)
		}
	}
}

func TestMultipleDisjointCyclesAllDetected(t *testing.T) {
	// Four independent 5-rings: each must be detected independently,
	// and every member informed. Tag tables stay small (each process
	// only ever sees its own ring's initiators).
	const k, ringN = 4, 5
	sys := newSystem(t, k*ringN, workload.BasicOptions{Seed: 21})
	if err := sys.Apply(workload.MultiRing(k, ringN)); err != nil {
		t.Fatal(err)
	}
	sys.Run(1 << 22)
	declared := sys.DetectedProcs()
	for r := 0; r < k; r++ {
		found := false
		for i := 0; i < ringN; i++ {
			if declared[id.Proc(r*ringN+i)] {
				found = true
			}
		}
		if !found {
			t.Errorf("ring %d: no member declared", r)
		}
	}
	for _, p := range sys.Procs {
		if sz := p.TagTableSize(); sz > ringN-1 {
			t.Errorf("process %v tag table %d exceeds ring bound %d", p.ID(), sz, ringN-1)
		}
	}
	if c := sys.TruthCheck(); c.FP != 0 || c.FN != 0 {
		t.Fatalf("truth check: %v", c)
	}
}

func TestWFGDInformsWholeDeadlockedPortion(t *testing.T) {
	// Ring of 5 with 4 tail processes leading into it: after detection,
	// every permanently blocked vertex must learn exactly the oracle's
	// permanent-black-path edge set (§5).
	sys := newSystem(t, 9, workload.BasicOptions{Seed: 10})
	if err := sys.Apply(workload.RingWithTails(5, 4)); err != nil {
		t.Fatal(err)
	}
	sys.Run(1 << 20)
	if len(sys.Detections) == 0 {
		t.Fatal("ring with tails: not detected")
	}
	var blocked []id.Proc
	sys.Oracle.With(func(g *wfg.Graph) { blocked = g.PermanentlyBlocked() })
	if len(blocked) != 9 {
		t.Fatalf("oracle says %d permanently blocked, want 9", len(blocked))
	}
	declared := sys.DetectedProcs()
	for _, v := range blocked {
		var want []id.Edge
		sys.Oracle.With(func(g *wfg.Graph) { want = g.PermanentBlackEdgesFrom(v) })
		got := sys.Procs[v].BlackPaths()
		if len(got) == 0 && !declared[v] {
			t.Errorf("process %v neither declared nor informed", v)
			continue
		}
		if len(want) != len(got) {
			t.Errorf("process %v: S has %d edges, oracle says %d (got %v want %v)", v, len(got), len(want), got, want)
			continue
		}
		for i := range want {
			if want[i] != got[i] {
				t.Errorf("process %v: S[%d]=%v, oracle %v", v, i, got[i], want[i])
			}
		}
	}
}

func TestDelayedInitiationPolicy(t *testing.T) {
	// With delay T, a cycle is still detected, but never before T.
	const n = 4
	T := 50 * sim.Millisecond
	sys := newSystem(t, n, workload.BasicOptions{
		Seed:   11,
		Policy: core.InitiateAfterDelay,
		Delay:  T,
	})
	if err := sys.Apply(workload.Ring(n)); err != nil {
		t.Fatal(err)
	}
	sys.Run(1 << 16)
	if len(sys.Detections) == 0 {
		t.Fatal("delayed policy missed the cycle")
	}
	if at := sys.Detections[0].At; at < T {
		t.Errorf("detected at %d, before timer T=%d", at, T)
	}
}

func TestDelayedInitiationSuppressesProbesForTransientWaits(t *testing.T) {
	// A chain that unwinds before T elapses must generate zero probes.
	sys := newSystem(t, 5, workload.BasicOptions{
		Seed:      12,
		Policy:    core.InitiateAfterDelay,
		Delay:     sim.Time(10 * sim.Second),
		AutoGrant: true,
	})
	if err := sys.Apply(workload.Chain(5)); err != nil {
		t.Fatal(err)
	}
	sys.Run(1 << 20)
	for i, p := range sys.Procs {
		if st := p.Stats(); st.ProbesSent != 0 {
			t.Errorf("process %d sent %d probes, want 0", i, st.ProbesSent)
		}
	}
}

func TestStaleComputationSuperseded(t *testing.T) {
	// §4.3: a process propagates computation (i,n) then must ignore
	// (i,k) for k <= n. Drive manually on a 3-ring with manual policy.
	sched := sim.New(13)
	net := transport.NewSimNet(sched, transport.FixedLatency(sim.Millisecond))
	procs := make([]*core.Process, 3)
	for i := range procs {
		p, err := core.NewProcess(core.Config{ID: id.Proc(i), Transport: net, Policy: core.InitiateManually})
		if err != nil {
			t.Fatal(err)
		}
		procs[i] = p
	}
	for i := range procs {
		if err := procs[i].Request(id.Proc((i + 1) % 3)); err != nil {
			t.Fatal(err)
		}
	}
	sched.Run() // requests delivered, ring black
	// Two successive computations from p0: both circulate; the second
	// must be propagated by p1/p2 (newer), and p0 declares on the first
	// meaningful returnee.
	if _, ok := procs[0].StartProbe(); !ok {
		t.Fatal("start 1")
	}
	sched.Run()
	if _, dead := procs[0].Deadlocked(); !dead {
		t.Fatal("p0 did not declare")
	}
	before := procs[1].Stats().ProbesSent
	if _, ok := procs[0].StartProbe(); !ok {
		t.Fatal("start 2")
	}
	sched.Run()
	if after := procs[1].Stats().ProbesSent; after != before+1 {
		t.Errorf("p1 forwarded %d probes for newer computation, want exactly 1", after-before)
	}
	// Tag table holds one entry per initiator seen (only p0 here).
	if got := procs[1].TagTableSize(); got != 1 {
		t.Errorf("p1 tag table size = %d, want 1", got)
	}
}

// TestCallbacksReenterOffHost: off a Host a process serializes through
// the inline runner, a plain mutex that is not re-entrant. A callback
// that calls back into its own process — OnRequest answering with
// GrantAll, OnActive asking Blocked — completes only because a step's
// callbacks run after the runner has let go; run inside it, they would
// wait for themselves. The deadline turns such a hang into a failure.
func TestCallbacksReenterOffHost(t *testing.T) {
	sched := sim.New(1)
	net := transport.NewSimNet(sched, nil)
	var p0, p1 *core.Process
	stillBlocked := true
	var err error
	p0, err = core.NewProcess(core.Config{ID: 0, Transport: net, Policy: core.InitiateManually,
		OnActive: func() { stillBlocked = p0.Blocked() }})
	if err != nil {
		t.Fatal(err)
	}
	p1, err = core.NewProcess(core.Config{ID: 1, Transport: net, Policy: core.InitiateManually,
		OnRequest: func(id.Proc) {
			if _, err := p1.GrantAll(); err != nil {
				t.Error(err)
			}
		}})
	if err != nil {
		t.Fatal(err)
	}
	done := make(chan struct{})
	go func() {
		defer close(done)
		if err := p0.Request(1); err != nil {
			t.Error(err)
		}
		sched.Run()
	}()
	select {
	case <-done:
	case <-time.After(5 * time.Second):
		t.Fatal("a callback re-entering its process hung: it ran inside the inline runner")
	}
	if stillBlocked {
		t.Fatal("p0 was not unblocked by p1's GrantAll from OnRequest")
	}
}
