package conformance

import (
	"fmt"

	"repro/internal/core"
	"repro/internal/faultinject"
	"repro/internal/id"
	"repro/internal/sim"
	"repro/internal/transport"
	"repro/internal/wfg"
)

// FaultSpec is one committed chaos schedule: a seeded conformance
// workload driven to its fault-free fixed point, then hit with a
// fault-injection plan while the recovery layer (PeerDown / PeerUp /
// Reannounce) is wired to the harness's failure detector. The whole run
// is a pure function of (Seed, Plan, LeaseDelay).
type FaultSpec struct {
	// Name labels the schedule in tests and experiment tables.
	Name string
	Spec
	// Plan is a faultinject schedule (sim vocabulary only — no drop).
	// Offsets are relative to the instant the fault-free workload
	// reached quiescence. Empty means "no faults", which is how the
	// wire-perturbation schedules get their baseline.
	Plan string
	// LeaseDelay is the virtual time between a node becoming
	// unreachable and the failure detector announcing ConnPeerDown —
	// the sim analogue of LeaseInterval × LeaseMisses.
	LeaseDelay sim.Duration
}

// FaultSchedules is the committed chaos corpus: every schedule the
// conformance tests, the chaos-smoke CI job and experiment E14 replay.
// Each targets a structural feature of its seed's wait-for graph (see
// the fault-free verdicts in suite_test.go's table).
func FaultSchedules() []FaultSpec {
	return []FaultSpec{
		{
			// Seed 2's only cycle is {1,3,4}; killing 4 must dissolve
			// every wait transitively and leave nobody deadlocked.
			Name: "crash-breaks-cycle",
			Spec: Spec{Seed: 2, N: 6, MaxBatch: 2},
			Plan: "crash:4@5ms", LeaseDelay: 10 * sim.Millisecond,
		},
		{
			// Seed 3's cycle is {2,3}; node 0 is an active bystander.
			// Its death makes every survivor withdraw and re-probe, and
			// the untouched cycle must be re-declared — no false
			// negative from a false suspicion.
			Name: "bystander-crash",
			Spec: Spec{Seed: 3, N: 8, MaxBatch: 3},
			Plan: "crash:0@5ms", LeaseDelay: 10 * sim.Millisecond,
		},
		{
			// Seed 1's dark component {0,1,3,4} contains the 2-cycle
			// 0↔4. Killing 3 unblocks 1 but must leave 0↔4 re-declared;
			// 3 then rejoins blank under a bumped incarnation after the
			// lease already expired (the announced-outage path).
			Name: "crash-restart-rejoin",
			Spec: Spec{Seed: 1, N: 6, MaxBatch: 2},
			Plan: "crash:3@5ms; restart:3@40ms", LeaseDelay: 10 * sim.Millisecond,
		},
		{
			// Seed 4's dark component holds the 2-cycle 1↔2. Cutting
			// {1,2} off severs every cross-cut wait once the lease
			// expires inside the outage; the 2-cycle never crosses the
			// cut and must be re-declared, while both sides' other
			// waiters unblock. The heal's re-announcements find the
			// severed edges gone and change nothing.
			Name: "partition-heal",
			Spec: Spec{Seed: 4, N: 8, MaxBatch: 3},
			Plan: "partition:1,2|0,3,4,5,6,7@5ms; heal@30ms", LeaseDelay: 10 * sim.Millisecond,
		},
		{
			// Seed 5 deadlocks nobody; a crash-restart in a clean
			// system must not conjure one (zero false positives).
			Name: "clean-crash-restart",
			Spec: Spec{Seed: 5, N: 10, MaxBatch: 2},
			Plan: "crash:2@5ms; restart:2@20ms", LeaseDelay: 10 * sim.Millisecond,
		},
		{
			// Wire-only perturbation: added latency and duplicated
			// frames, no process faults. The verdict must be
			// byte-identical to the same spec run with an empty plan.
			Name: "wire-perturbation",
			Spec: Spec{Seed: 1, N: 6, MaxBatch: 2},
			Plan: "delay:3ms:20ms@1ms; dup:5@1ms", LeaseDelay: 10 * sim.Millisecond,
		},
	}
}

// FaultReport is the outcome of one chaos schedule.
type FaultReport struct {
	// Verdict is the canonical post-fault outcome (see driver.verdict).
	Verdict string
	// Net is the fault net's traffic accounting.
	Net faultinject.NetStats
	// WaitsAborted totals the typed WaitAborted outcomes across all
	// incarnations of all processes.
	WaitsAborted uint64
	// FaultAt is the virtual time of the plan's first event (the
	// fault-free fixed point for an empty plan).
	FaultAt sim.Time
	// LastDeclaredAt is the virtual time of the last deadlock
	// declaration at or after FaultAt (zero if none) — the re-detection
	// instant for schedules with a surviving cycle.
	LastDeclaredAt sim.Time
	// Declared counts alive processes declared at quiescence.
	Declared int
	// FalsePositives counts alive processes declared without being on
	// an oracle dark cycle. The cross-check fails the run if nonzero;
	// it is reported separately so experiment E14 can table it.
	FalsePositives int
}

// RunSimFaults replays the spec's three-phase workload on the
// deterministic fault net, installs the plan at the fault-free fixed
// point, lets the recovery layer ride out the schedule, then re-probes
// the survivors and cross-checks the result against the WFG oracle.
//
// The oracle tracks ground truth through the faults: a crash removes
// the vertex (wfg.GraphObserver.ProcessDown), a severed wait removes
// its edge at the WaitAborted instant, and a rejoin re-announcement is
// applied idempotently (EnsureCreate / EnsureBlack). The cross-check
// therefore demands, after arbitrary committed chaos, exactly what the
// fault-free suite demands: declared == dark-cycle vertices over the
// alive processes, and every blocked survivor informed.
func RunSimFaults(fs FaultSpec) (FaultReport, error) {
	var rep FaultReport
	sched := sim.New(fs.Seed)
	d, err := newDriver(fs.Spec, sched)
	if err != nil {
		return rep, err
	}
	plan, err := faultinject.Parse(fs.Plan)
	if err != nil {
		return rep, fmt.Errorf("plan: %w", err)
	}

	var lastDeclare sim.Time
	d.cfg.OnDeadlock = func(id.Tag) { lastDeclare = sched.Now() }
	d.cfg.OnWaitAborted = func(wa core.WaitAborted) {
		rep.WaitsAborted++
		d.oracle.With(func(g *wfg.Graph) {
			g.ForceDelete(id.Edge{From: id.Proc(wa.Waiter), To: id.Proc(wa.Peer)})
		})
	}
	var net *faultinject.Net
	net = faultinject.NewNet(sched, faultinject.NetOptions{
		LeaseDelay: fs.LeaseDelay,
		OnCrash: func(node transport.NodeID) {
			d.mu.Lock()
			d.alive[node] = false
			d.mu.Unlock()
			d.oracle.ProcessDown(id.Proc(node))
		},
		OnRestart: func(node transport.NodeID) {
			if err := d.spawn(int(node), net); err != nil {
				panic(fmt.Sprintf("conformance: respawn %d: %v", node, err))
			}
		},
		Listener: recoveryWiring{
			down: func(observer, peer transport.NodeID) {
				if p := d.proc(int(observer)); p != nil {
					p.PeerDown(id.Proc(peer))
				}
			},
			up: func(observer, peer transport.NodeID) {
				if p := d.proc(int(observer)); p != nil {
					p.PeerUp(id.Proc(peer))
					p.Reannounce(id.Proc(peer))
				}
			},
		},
	})
	d.watch(net)
	for i := 0; i < fs.N; i++ {
		if err := d.spawn(i, net); err != nil {
			return rep, err
		}
	}

	// After the fault-free phases, chaos: plan offsets are relative to
	// this instant, and the baseline's declaration times are discarded
	// so LastDeclaredAt only ever names a post-fault (re-)detection.
	// Then the survivors' re-probe sweep: PeerDown already re-initiates
	// wherever it withdrew a declaration; this catches blocked survivors
	// whose in-flight computations died with a corpse or a severed edge.
	v, err := d.run(hooks{probed: func() error {
		lastDeclare = 0
		rep.FaultAt = sched.Now()
		if len(plan.Events) > 0 {
			rep.FaultAt += sim.Time(plan.Events[0].At)
		}
		if err := net.Install(plan); err != nil {
			return err
		}
		if err := d.settle("faults"); err != nil {
			return err
		}
		d.probe(0, fs.N)
		return d.settle("re-probe")
	}})
	if v == "" { // a phase failed before the verdict
		return rep, err
	}
	rep.Verdict = v
	rep.Net = net.Stats()
	rep.LastDeclaredAt = lastDeclare
	_, dark := d.dark()
	for i := 0; i < fs.N; i++ {
		if p := d.proc(i); p != nil {
			if _, declared := p.Deadlocked(); declared {
				rep.Declared++
				if !dark[p.ID()] {
					rep.FalsePositives++
				}
			}
		}
	}
	return rep, err
}

// recoveryWiring adapts the fault net's failure-detector verdicts onto
// the engines' recovery API, mirroring how the TCP harness wires
// ConnPeerDown / ConnPeerUp.
type recoveryWiring struct {
	down func(observer, peer transport.NodeID)
	up   func(observer, peer transport.NodeID)
}

func (w recoveryWiring) PeerDown(o, p transport.NodeID) { w.down(o, p) }
func (w recoveryWiring) PeerUp(o, p transport.NodeID)   { w.up(o, p) }
