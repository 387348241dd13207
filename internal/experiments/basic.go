// Package experiments implements the per-experiment harness of
// DESIGN.md §4: one function per experiment, each running the workload
// the paper's claim concerns on the seeded simulator and returning both
// typed rows and a rendered table. Every table is a golden test. The
// cmd/cmhbench binary and the root benchmark suite both call into this
// package, and EXPERIMENTS.md records the paper-vs-measured comparison
// for every entry.
package experiments

import (
	"fmt"

	"repro/internal/core"
	"repro/internal/id"
	"repro/internal/metrics"
	"repro/internal/msg"
	"repro/internal/sim"
	"repro/internal/transport"
	"repro/internal/wfg"
	"repro/internal/workload"
)

// E1Row is one ring size of the probe-message-bound experiment.
type E1Row struct {
	N            int     // ring size
	Edges        int     // edges in the wait-for graph
	Probes       int64   // probes sent by the single computation
	Bound        int     // the paper's bound (≤ one probe per edge)
	LatencyMs    float64 // virtual detection latency
	WithinBound  bool
	Detected     bool
	Meaningful   int64
	DiscardCount int64
}

// E1ProbesPerComputation measures §4.3's claim that a probe computation
// sends at most one probe per outgoing edge — on an N-cycle, at most N
// probes — and that a single computation suffices to detect.
func E1ProbesPerComputation(sizes []int) ([]E1Row, *metrics.Table, error) {
	if len(sizes) == 0 {
		sizes = []int{4, 8, 16, 32, 64, 128, 256}
	}
	table := metrics.NewTable(
		"E1 — probes per computation on an N-cycle (§4.3: ≤ N probes)",
		"N", "edges", "probes", "bound", "within", "detect_ms")
	rows := make([]E1Row, 0, len(sizes))
	for _, n := range sizes {
		sys, err := workload.NewBasicSystem(n, workload.BasicOptions{
			Seed:    int64(n),
			Policy:  core.InitiateManually,
			Latency: transport.FixedLatency(sim.Millisecond),
		})
		if err != nil {
			return nil, nil, err
		}
		if err := sys.Apply(workload.Ring(n)); err != nil {
			return nil, nil, err
		}
		sys.Run(1 << 22) // requests delivered; ring is black
		if got := sys.Counters.Sent(msg.KindProbe); got != 0 {
			return nil, nil, fmt.Errorf("E1: %d probes before initiation", got)
		}
		start := sys.Sched.Now()
		if _, ok := sys.Procs[0].StartProbe(); !ok {
			return nil, nil, fmt.Errorf("E1: initiator not blocked")
		}
		sys.Run(1 << 22)
		probes := sys.Counters.Sent(msg.KindProbe)
		var meaningful, discarded int64
		for _, p := range sys.Procs {
			st := p.Stats()
			meaningful += int64(st.ProbesMeaningful)
			discarded += int64(st.ProbesDiscarded)
		}
		detected := len(sys.Detections) > 0
		latency := float64(0)
		if detected {
			latency = float64(sys.Detections[0].At-start) / float64(sim.Millisecond)
		}
		row := E1Row{
			N:            n,
			Edges:        n,
			Probes:       probes,
			Bound:        n,
			LatencyMs:    latency,
			WithinBound:  probes <= int64(n),
			Detected:     detected,
			Meaningful:   meaningful,
			DiscardCount: discarded,
		}
		rows = append(rows, row)
		table.AddRow(n, n, probes, n, row.WithinBound, latency)
	}
	return rows, table, nil
}

// E2Row is one system size of the state-bound experiment.
type E2Row struct {
	N            int
	MaxTagTable  int
	Bound        int
	Computations int64
}

// E2StateBound measures §4.3's claim that every process need only keep
// track of N probe computations — one (the latest) per initiator. Every
// process on an N-ring initiates, so each process sees N-1 distinct
// initiators plus itself.
func E2StateBound(sizes []int) ([]E2Row, *metrics.Table, error) {
	if len(sizes) == 0 {
		sizes = []int{4, 8, 16, 32, 64, 128}
	}
	table := metrics.NewTable(
		"E2 — per-process detector state (§4.3: at most one entry per initiator)",
		"N", "max_tag_entries", "bound_N", "computations")
	rows := make([]E2Row, 0, len(sizes))
	for _, n := range sizes {
		sys, err := workload.NewBasicSystem(n, workload.BasicOptions{Seed: int64(n)})
		if err != nil {
			return nil, nil, err
		}
		// On-block policy: every process initiates when it blocks, so
		// probes of N distinct computations circulate the ring, twice.
		if err := sys.Apply(workload.Ring(n)); err != nil {
			return nil, nil, err
		}
		sys.Run(1 << 22)
		maxEntries := 0
		var comps int64
		for _, p := range sys.Procs {
			if sz := p.TagTableSize(); sz > maxEntries {
				maxEntries = sz
			}
			comps += int64(p.Stats().Computations)
		}
		rows = append(rows, E2Row{N: n, MaxTagTable: maxEntries, Bound: n, Computations: comps})
		table.AddRow(n, maxEntries, n, comps)
	}
	return rows, table, nil
}

// E3Row is one timer value of the initiation-tradeoff experiment.
type E3Row struct {
	TMs           float64
	Computations  int64
	ProbeMessages int64
	DetectMs      float64 // detection latency on a ring formed at t0
}

// E3TimerTradeoff measures §4.3's tradeoff: larger T suppresses probe
// computations for transient waits, but deadlock detection latency is
// at least T. Initiation counts come from a deadlock-free churn
// workload; latency comes from a deterministic ring formed at t=0.
func E3TimerTradeoff(ts []sim.Duration) ([]E3Row, *metrics.Table, error) {
	if len(ts) == 0 {
		ts = []sim.Duration{
			0,
			sim.Millisecond,
			2 * sim.Millisecond,
			5 * sim.Millisecond,
			10 * sim.Millisecond,
			20 * sim.Millisecond,
			50 * sim.Millisecond,
		}
	}
	table := metrics.NewTable(
		"E3 — initiation timer T tradeoff (§4.3): computations vs detection latency",
		"T_ms", "computations", "probe_msgs", "detect_ms")
	rows := make([]E3Row, 0, len(ts))
	const churnProcs = 24
	for _, T := range ts {
		policy := core.InitiateAfterDelay
		if T == 0 {
			policy = core.InitiateOnBlock
		}
		// (a) churn: count computations initiated in 1 virtual second.
		churn, err := workload.NewBasicSystem(churnProcs, workload.BasicOptions{
			Seed:      1000 + int64(T),
			Policy:    policy,
			Delay:     T,
			AutoGrant: true,
			Latency:   transport.UniformLatency{Min: 100 * sim.Microsecond, Max: sim.Millisecond},
		})
		if err != nil {
			return nil, nil, err
		}
		// Fanout 1 keeps the comparison exact: the §4.3 delay policy
		// arms one timer per edge while on-block initiates once per
		// request batch, so multi-edge batches would skew the counts.
		if err := workload.RunChurn(churn, workload.ChurnOptions{
			Horizon:   sim.Time(1 * sim.Second),
			MeanThink: 2 * sim.Millisecond,
			Fanout:    1,
		}); err != nil {
			return nil, nil, err
		}
		churn.Run(1 << 24)
		var comps int64
		for _, p := range churn.Procs {
			comps += int64(p.Stats().Computations)
		}
		if len(churn.Detections) != 0 {
			return nil, nil, fmt.Errorf("E3: false detection in deadlock-free churn")
		}

		// (b) latency: a 12-ring formed at t=0.
		ring, err := workload.NewBasicSystem(12, workload.BasicOptions{
			Seed:    2000 + int64(T),
			Policy:  policy,
			Delay:   T,
			Latency: transport.FixedLatency(sim.Millisecond),
		})
		if err != nil {
			return nil, nil, err
		}
		if err := ring.Apply(workload.Ring(12)); err != nil {
			return nil, nil, err
		}
		ring.Run(1 << 22)
		if len(ring.Detections) == 0 {
			return nil, nil, fmt.Errorf("E3: ring not detected at T=%d", T)
		}
		row := E3Row{
			TMs:           float64(T) / float64(sim.Millisecond),
			Computations:  comps,
			ProbeMessages: churn.Counters.Sent(msg.KindProbe),
			DetectMs:      float64(ring.Detections[0].At) / float64(sim.Millisecond),
		}
		rows = append(rows, row)
		table.AddRow(row.TMs, row.Computations, row.ProbeMessages, row.DetectMs)
	}
	return rows, table, nil
}

// E4Row aggregates one seed's correctness run.
type E4Row struct {
	Seed       int64
	Procs      int
	Deadlocked int
	Counts     metrics.ConfusionCounts
}

// E4Correctness replays Theorems 1 and 2 empirically: randomized
// staggered request storms over many seeds; every declaration must be
// oracle-true (QRP2) and every dark cycle must be declared by at least
// one member with the rest informed via WFGD (QRP1 + §4.2 + §5).
func E4Correctness(seeds []int64) ([]E4Row, *metrics.Table, error) {
	if len(seeds) == 0 {
		seeds = []int64{1, 2, 3, 4, 5, 6, 7, 8, 9, 10, 11, 12, 13, 14, 15, 16}
	}
	table := metrics.NewTable(
		"E4 — correctness vs oracle (Theorems 1 & 2): declarations are exact",
		"seed", "procs", "oracle_deadlocked", "TP", "FP", "FN")
	rows := make([]E4Row, 0, len(seeds))
	for _, seed := range seeds {
		sys, err := workload.NewBasicSystem(20, workload.BasicOptions{
			Seed:      seed,
			AutoGrant: true,
			Latency:   transport.UniformLatency{Min: 100 * sim.Microsecond, Max: 2 * sim.Millisecond},
		})
		if err != nil {
			return nil, nil, err
		}
		// Staggered random request batches: cycles may or may not form
		// depending on message timing.
		rng := sys.Sched.Rand()
		for i := 0; i < 20; i++ {
			pid := id.Proc(i)
			at := sim.Duration(rng.Int63n(int64(5 * sim.Millisecond)))
			sys.Sched.After(at, func() {
				p := sys.Procs[pid]
				if p.Blocked() {
					return
				}
				k := 1 + rng.Intn(2)
				targets := make([]id.Proc, 0, k)
				seen := map[id.Proc]struct{}{pid: {}}
				for len(targets) < k {
					t := id.Proc(rng.Intn(20))
					if _, dup := seen[t]; dup {
						continue
					}
					seen[t] = struct{}{}
					targets = append(targets, t)
				}
				if err := p.Request(targets...); err != nil {
					panic(err)
				}
			})
		}
		sys.Run(1 << 24)
		var dark []id.Proc
		sys.Oracle.With(func(g *wfg.Graph) { dark = g.DarkCycleVertices() })
		counts := sys.TruthCheck()
		rows = append(rows, E4Row{Seed: seed, Procs: 20, Deadlocked: len(dark), Counts: counts})
		table.AddRow(seed, 20, len(dark), counts.TP, counts.FP, counts.FN)
	}
	return rows, table, nil
}

// E5Row is one topology of the WFGD experiment.
type E5Row struct {
	RingN     int
	TailN     int
	WFGDMsgs  int64
	Informed  int
	Blocked   int
	ExactSets bool
}

// E5WFGD measures §5: after detection, the WFGD computation delivers to
// every permanently blocked vertex exactly the oracle's
// permanent-black-path edge set, terminating because no vertex ever
// sends the same message twice.
func E5WFGD(shapes [][2]int) ([]E5Row, *metrics.Table, error) {
	if len(shapes) == 0 {
		shapes = [][2]int{{3, 2}, {5, 4}, {8, 8}, {16, 16}, {32, 32}}
	}
	table := metrics.NewTable(
		"E5 — WFGD deadlocked-set propagation (§5)",
		"ring", "tails", "wfgd_msgs", "informed", "blocked", "exact_sets")
	rows := make([]E5Row, 0, len(shapes))
	for _, shape := range shapes {
		ringN, tailN := shape[0], shape[1]
		n := ringN + tailN
		sys, err := workload.NewBasicSystem(n, workload.BasicOptions{Seed: int64(n)})
		if err != nil {
			return nil, nil, err
		}
		if err := sys.Apply(workload.RingWithTails(ringN, tailN)); err != nil {
			return nil, nil, err
		}
		sys.Run(1 << 24)
		var blocked []id.Proc
		sys.Oracle.With(func(g *wfg.Graph) { blocked = g.PermanentlyBlocked() })
		informed := 0
		exact := true
		declared := sys.DetectedProcs()
		for _, v := range blocked {
			got := sys.Procs[v].BlackPaths()
			if len(got) > 0 || declared[v] {
				informed++
			}
			var want []id.Edge
			sys.Oracle.With(func(g *wfg.Graph) { want = g.PermanentBlackEdgesFrom(v) })
			if len(got) != len(want) {
				exact = false
				continue
			}
			for i := range want {
				if got[i] != want[i] {
					exact = false
				}
			}
		}
		row := E5Row{
			RingN:     ringN,
			TailN:     tailN,
			WFGDMsgs:  sys.Counters.Sent(msg.KindWFGD),
			Informed:  informed,
			Blocked:   len(blocked),
			ExactSets: exact,
		}
		rows = append(rows, row)
		table.AddRow(ringN, tailN, row.WFGDMsgs, informed, len(blocked), exact)
	}
	return rows, table, nil
}

// E8Row is one ring size of the scalability experiment.
type E8Row struct {
	N           int
	SimDetectMs float64 // virtual detection latency over fixed 1ms links
	SimExpectMs float64 // N x latency: one probe lap around the cycle
	Probes      int64   // probes sent in the whole run
}

// E8Scalability measures detection latency versus cycle length: the
// probe must travel the whole cycle once, so latency is linear in N.
// With on-block initiation the first probes leave together with the
// requests and FIFO links deliver them back-to-back, so the simulator
// shows exactly N fixed-latency hops.
func E8Scalability(sizes []int) ([]E8Row, *metrics.Table, error) {
	if len(sizes) == 0 {
		sizes = []int{4, 8, 16, 32, 64, 128}
	}
	table := metrics.NewTable(
		"E8 — detection latency vs cycle length (one probe lap)",
		"N", "sim_ms", "expected_ms", "probes")
	rows := make([]E8Row, 0, len(sizes))
	for _, n := range sizes {
		sys, err := workload.NewBasicSystem(n, workload.BasicOptions{
			Seed:    int64(n),
			Latency: transport.FixedLatency(sim.Millisecond),
		})
		if err != nil {
			return nil, nil, err
		}
		if err := sys.Apply(workload.Ring(n)); err != nil {
			return nil, nil, err
		}
		sys.Run(1 << 24)
		if len(sys.Detections) == 0 {
			return nil, nil, fmt.Errorf("E8: ring %d not detected", n)
		}
		row := E8Row{
			N:           n,
			SimDetectMs: float64(sys.Detections[0].At) / float64(sim.Millisecond),
			SimExpectMs: float64(n),
			Probes:      sys.Counters.Sent(msg.KindProbe),
		}
		rows = append(rows, row)
		table.AddRow(n, row.SimDetectMs, row.SimExpectMs, row.Probes)
	}
	return rows, table, nil
}
