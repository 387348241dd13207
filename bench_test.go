package deadlock

// One benchmark per experiment in DESIGN.md §4, regenerating
// the table that EXPERIMENTS.md records, plus micro-benchmarks of the
// hot paths (probe handling, lock-table operations, the simulator).
// Run everything with:
//
//	go test -bench=. -benchmem
//
// The experiment benches assert the claim they reproduce, so a
// regression that breaks a bound fails the bench rather than silently
// producing a different table.

import (
	"fmt"
	"sync"
	"testing"
	"time"

	"repro/internal/experiments"
	"repro/internal/sim"
	"repro/internal/transport"
	"repro/internal/workload"
)

func BenchmarkE1ProbesPerComputation(b *testing.B) {
	for i := 0; i < b.N; i++ {
		rows, _, err := experiments.E1ProbesPerComputation([]int{4, 16, 64, 256})
		if err != nil {
			b.Fatal(err)
		}
		for _, r := range rows {
			if !r.WithinBound || !r.Detected {
				b.Fatalf("E1 bound violated: %+v", r)
			}
		}
	}
}

func BenchmarkE2StateBound(b *testing.B) {
	for i := 0; i < b.N; i++ {
		rows, _, err := experiments.E2StateBound([]int{8, 32, 128})
		if err != nil {
			b.Fatal(err)
		}
		for _, r := range rows {
			if r.MaxTagTable > r.Bound {
				b.Fatalf("E2 state bound violated: %+v", r)
			}
		}
	}
}

func BenchmarkE3TimerTradeoff(b *testing.B) {
	for i := 0; i < b.N; i++ {
		rows, _, err := experiments.E3TimerTradeoff([]sim.Duration{
			0, 2 * sim.Millisecond, 10 * sim.Millisecond, 50 * sim.Millisecond,
		})
		if err != nil {
			b.Fatal(err)
		}
		for _, r := range rows {
			if r.DetectMs < r.TMs {
				b.Fatalf("E3 latency below T: %+v", r)
			}
		}
		if rows[len(rows)-1].Computations >= rows[0].Computations {
			b.Fatalf("E3: computations did not fall with T: %+v", rows)
		}
	}
}

func BenchmarkE4Correctness(b *testing.B) {
	for i := 0; i < b.N; i++ {
		rows, _, err := experiments.E4Correctness([]int64{1, 2, 3, 4, 5, 6, 7, 8})
		if err != nil {
			b.Fatal(err)
		}
		for _, r := range rows {
			if r.Counts.FP != 0 || r.Counts.FN != 0 {
				b.Fatalf("E4 correctness violated: %+v", r)
			}
		}
	}
}

func BenchmarkE5WFGD(b *testing.B) {
	for i := 0; i < b.N; i++ {
		rows, _, err := experiments.E5WFGD([][2]int{{5, 4}, {16, 16}})
		if err != nil {
			b.Fatal(err)
		}
		for _, r := range rows {
			if !r.ExactSets || r.Informed != r.Blocked {
				b.Fatalf("E5 WFGD incomplete: %+v", r)
			}
		}
	}
}

func BenchmarkE6DDBInitiation(b *testing.B) {
	for i := 0; i < b.N; i++ {
		rows, _, err := experiments.E6DDBInitiation(nil)
		if err != nil {
			b.Fatal(err)
		}
		for _, r := range rows {
			if r.Q > r.Blocked {
				b.Fatalf("E6: Q exceeds blocked processes: %+v", r)
			}
		}
	}
}

func BenchmarkE7BaselineComparison(b *testing.B) {
	for i := 0; i < b.N; i++ {
		rows, _, err := experiments.E7BaselineComparison([]int64{71, 72, 73})
		if err != nil {
			b.Fatal(err)
		}
		for _, r := range rows {
			if r.Detector == "cmh-probe" && r.FalseDecls != 0 {
				b.Fatalf("E7: probe algorithm declared falsely: %+v", r)
			}
		}
	}
}

func BenchmarkE8Scalability(b *testing.B) {
	for i := 0; i < b.N; i++ {
		rows, _, err := experiments.E8Scalability([]int{4, 16, 64})
		if err != nil {
			b.Fatal(err)
		}
		for _, r := range rows {
			if r.SimDetectMs != r.SimExpectMs {
				b.Fatalf("E8: sim latency %v != expected %v hops", r.SimDetectMs, r.SimExpectMs)
			}
		}
	}
}

func BenchmarkE9Resolution(b *testing.B) {
	for i := 0; i < b.N; i++ {
		rows, _, err := experiments.E9Resolution([]int64{91, 92})
		if err != nil {
			b.Fatal(err)
		}
		for _, r := range rows {
			if r.Strategy == "cmh-probe" && r.CommitAllPct < 100 {
				b.Fatalf("E9: probe resolution failed to restore liveness: %+v", r)
			}
		}
	}
}

func BenchmarkE10CommunicationModel(b *testing.B) {
	for i := 0; i < b.N; i++ {
		rows, _, err := experiments.E10CommunicationModel(nil)
		if err != nil {
			b.Fatal(err)
		}
		for _, r := range rows {
			if r.FalseDecls != 0 || r.Declared != r.Deadlocked {
				b.Fatalf("E10 verdicts wrong: %+v", r)
			}
		}
	}
}

func BenchmarkE11EdgeModelAblation(b *testing.B) {
	for i := 0; i < b.N; i++ {
		rows, _, err := experiments.E11EdgeModelAblation()
		if err != nil {
			b.Fatal(err)
		}
		for _, r := range rows {
			if r.EdgeModel == "with-holder-home" && !r.HoldCycleFound {
				b.Fatalf("extension failed: %+v", r)
			}
		}
	}
}

func BenchmarkE12VictimPolicyAblation(b *testing.B) {
	for i := 0; i < b.N; i++ {
		rows, _, err := experiments.E12VictimPolicyAblation()
		if err != nil {
			b.Fatal(err)
		}
		for _, r := range rows {
			if !r.AllDone {
				b.Fatalf("policy %s stalled: %+v", r.Policy, r)
			}
		}
	}
}

// --- micro-benchmarks ---

// BenchmarkProbeLapRing measures the raw cost of one full probe lap on
// a 64-ring in the simulator (message handling + scheduling).
func BenchmarkProbeLapRing(b *testing.B) {
	sys, err := workload.NewBasicSystem(64, workload.BasicOptions{
		Seed:    7,
		Policy:  InitiateManually,
		Latency: transport.FixedLatency(sim.Microsecond),
	})
	if err != nil {
		b.Fatal(err)
	}
	if err := sys.Apply(workload.Ring(64)); err != nil {
		b.Fatal(err)
	}
	sys.Run(1 << 20)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, ok := sys.Procs[0].StartProbe(); !ok {
			b.Fatal("initiator not blocked")
		}
		sys.Run(1 << 20)
	}
}

// BenchmarkSimulatedRingDetection measures end-to-end system build +
// ring + detection for a 32-process system.
func BenchmarkSimulatedRingDetection(b *testing.B) {
	for i := 0; i < b.N; i++ {
		sys, err := NewSimulation(32, SimOptions{Seed: int64(i)})
		if err != nil {
			b.Fatal(err)
		}
		if err := sys.Apply(Ring(32)); err != nil {
			b.Fatal(err)
		}
		sys.Run(1 << 20)
		if len(sys.Detections) == 0 {
			b.Fatal("not detected")
		}
	}
}

// BenchmarkLiveRingDetection measures wall-clock detection on the
// in-process concurrent runtime (NewLiveNetwork: one Host shard
// goroutine steps every process).
func BenchmarkLiveRingDetection(b *testing.B) {
	for i := 0; i < b.N; i++ {
		if err := liveRingDetect(32); err != nil {
			b.Fatal(err)
		}
	}
}

// liveRingDetect builds an n-process request cycle on the in-process
// runtime, initiates one probe computation and waits for the
// declaration. FIFO links make the probes trail the requests, so no
// settling wait is needed (axiom P1 at work).
func liveRingDetect(n int) error {
	net := NewLiveNetwork()
	defer net.Close()
	detected := make(chan struct{})
	procs := make([]*Process, n)
	for i := range procs {
		cfg := ProcessConfig{ID: ProcID(i), Transport: net, Policy: InitiateManually}
		if i == 0 {
			var once sync.Once
			cfg.OnDeadlock = func(Tag) { once.Do(func() { close(detected) }) }
		}
		p, err := NewProcess(cfg)
		if err != nil {
			return err
		}
		procs[i] = p
	}
	for i, p := range procs {
		if err := p.Request(ProcID((i + 1) % n)); err != nil {
			return err
		}
	}
	if _, ok := procs[0].StartProbe(); !ok {
		return fmt.Errorf("live ring %d: initiator not blocked", n)
	}
	select {
	case <-detected:
		return nil
	case <-time.After(30 * time.Second):
		return fmt.Errorf("live ring %d: detection timed out", n)
	}
}

// BenchmarkDDBMixResolution measures a full DDB mix with detection and
// resolution to completion.
func BenchmarkDDBMixResolution(b *testing.B) {
	for i := 0; i < b.N; i++ {
		rows, _, err := experiments.E9Resolution([]int64{int64(100 + i)})
		if err != nil {
			b.Fatal(err)
		}
		_ = rows
	}
}

func BenchmarkE14CrashRecovery(b *testing.B) {
	for i := 0; i < b.N; i++ {
		rows, _, err := experiments.E14CrashRecovery()
		if err != nil {
			b.Fatal(err)
		}
		for _, r := range rows {
			if r.FalsePositives != 0 {
				b.Fatalf("schedule %s declared a phantom deadlock: %+v", r.Schedule, r)
			}
		}
	}
}

func BenchmarkE17OpenLoop(b *testing.B) {
	for i := 0; i < b.N; i++ {
		rows, _, err := experiments.E17OpenLoop()
		if err != nil {
			b.Fatal(err)
		}
		var deadlocks int64
		for _, r := range rows {
			if r.Committed == 0 || r.KTxnsPerSec <= 0 {
				b.Fatalf("E17: dead row: %+v", r)
			}
			deadlocks += r.Deadlocks
			// The paper's premise regime: with no victim aborts the
			// oracle must agree with every declaration and find no
			// uncovered cycle.
			if r.Victim == "none" && (r.FalseDeadlocks != 0 || r.UncoveredCycles != 0) {
				b.Fatalf("E17: no-abort row not clean: %+v", r)
			}
		}
		if deadlocks == 0 {
			b.Fatal("E17: policy comparison produced no deadlocks")
		}
	}
}
