package experiments

import (
	"fmt"
	"strings"
	"testing"

	"repro/internal/sim"
	"repro/internal/wal"
)

// The experiment functions are exercised at small scale so the full
// table pipeline (workload -> rows -> rendered table) stays correct;
// the root benchmark suite runs them at paper scale.

func TestE1SmallScale(t *testing.T) {
	rows, table, err := E1ProbesPerComputation([]int{3, 6})
	if err != nil {
		t.Fatal(err)
	}
	if len(rows) != 2 {
		t.Fatalf("rows = %d", len(rows))
	}
	for _, r := range rows {
		if !r.Detected || !r.WithinBound {
			t.Fatalf("row %+v", r)
		}
		if r.Probes != int64(r.N) {
			t.Fatalf("N-cycle should cost exactly N probes: %+v", r)
		}
		if r.DiscardCount != 0 {
			t.Fatalf("ring probes should all be meaningful: %+v", r)
		}
	}
	if !strings.Contains(table.String(), "E1") {
		t.Fatal("table missing title")
	}
}

func TestE2SmallScale(t *testing.T) {
	rows, _, err := E2StateBound([]int{4, 7})
	if err != nil {
		t.Fatal(err)
	}
	for _, r := range rows {
		if r.MaxTagTable != r.N-1 {
			t.Fatalf("tag table should hold exactly N-1 entries on a full ring: %+v", r)
		}
	}
}

func TestE3SmallScale(t *testing.T) {
	rows, _, err := E3TimerTradeoff([]sim.Duration{0, 20 * sim.Millisecond})
	if err != nil {
		t.Fatal(err)
	}
	if rows[1].Computations >= rows[0].Computations {
		t.Fatalf("T=20ms should initiate fewer computations than T=0: %+v", rows)
	}
	if rows[1].DetectMs < 20 {
		t.Fatalf("latency below T: %+v", rows[1])
	}
}

func TestE4SmallScale(t *testing.T) {
	rows, _, err := E4Correctness([]int64{1, 2, 3})
	if err != nil {
		t.Fatal(err)
	}
	for _, r := range rows {
		if r.Counts.FP != 0 || r.Counts.FN != 0 {
			t.Fatalf("correctness breach: %+v", r)
		}
	}
}

func TestE5SmallScale(t *testing.T) {
	rows, _, err := E5WFGD([][2]int{{3, 3}})
	if err != nil {
		t.Fatal(err)
	}
	if !rows[0].ExactSets || rows[0].Informed != rows[0].Blocked {
		t.Fatalf("WFGD row %+v", rows[0])
	}
}

func TestE6SmallScale(t *testing.T) {
	rows, _, err := E6DDBInitiation([]float64{0, 1})
	if err != nil {
		t.Fatal(err)
	}
	if rows[0].Q != 0 {
		t.Fatalf("fully local mix should need zero inter-controller computations: %+v", rows[0])
	}
	for _, r := range rows {
		if r.Q > r.Blocked {
			t.Fatalf("Q exceeds blocked: %+v", r)
		}
	}
}

func TestE7SmallScale(t *testing.T) {
	rows, _, err := E7BaselineComparison([]int64{71})
	if err != nil {
		t.Fatal(err)
	}
	byName := map[string]E7Row{}
	for _, r := range rows {
		byName[r.Detector] = r
	}
	if byName["cmh-probe"].FalseDecls != 0 {
		t.Fatalf("probe algorithm declared falsely: %+v", byName["cmh-probe"])
	}
	if byName["cmh-probe"].DeadlockRuns != byName["cmh-probe"].CoveredRuns {
		t.Fatalf("probe algorithm missed a deadlocked run: %+v", byName["cmh-probe"])
	}
}

func TestE8SmallScale(t *testing.T) {
	rows, _, err := E8Scalability([]int{3, 5})
	if err != nil {
		t.Fatal(err)
	}
	for _, r := range rows {
		if r.SimDetectMs != float64(r.N) {
			t.Fatalf("sim detection should be exactly N hops: %+v", r)
		}
		if r.LiveDetectUs <= 0 {
			t.Fatalf("live leg did not run: %+v", r)
		}
	}
}

func TestE9SmallScale(t *testing.T) {
	rows, _, err := E9Resolution([]int64{91})
	if err != nil {
		t.Fatal(err)
	}
	for _, r := range rows {
		if r.Strategy == "cmh-probe" && r.CommitAllPct < 100 {
			t.Fatalf("probe resolution failed: %+v", r)
		}
	}
}

func TestE10SmallScale(t *testing.T) {
	rows, _, err := E10CommunicationModel([][2]int{{8, 1}, {12, 2}})
	if err != nil {
		t.Fatal(err)
	}
	for _, r := range rows {
		if r.FalseDecls != 0 || r.Declared != r.Deadlocked {
			t.Fatalf("OR verdicts wrong: %+v", r)
		}
	}
}

func TestE11Ablation(t *testing.T) {
	rows, _, err := E11EdgeModelAblation()
	if err != nil {
		t.Fatal(err)
	}
	byModel := map[string]E11Row{}
	for _, r := range rows {
		byModel[r.EdgeModel] = r
	}
	paper := byModel["paper-§6.4-only"]
	ext := byModel["with-holder-home"]
	if !paper.AcqCycleDetected || !ext.AcqCycleDetected {
		t.Fatalf("acquisition cycle must be detected by both models: %+v", rows)
	}
	if !paper.HoldCycleOracle || !ext.HoldCycleOracle {
		t.Fatalf("remote-hold scenario must truly deadlock: %+v", rows)
	}
	if paper.HoldCycleFound {
		t.Fatalf("paper-only model should MISS the remote-hold cycle: %+v", paper)
	}
	if !ext.HoldCycleFound {
		t.Fatalf("extended model must detect the remote-hold cycle: %+v", ext)
	}
}

func TestE12Ablation(t *testing.T) {
	rows, _, err := E12VictimPolicyAblation()
	if err != nil {
		t.Fatal(err)
	}
	for _, r := range rows {
		if !r.AllDone {
			t.Fatalf("policy %s failed to restore liveness: %+v", r.Policy, r)
		}
	}
}

func TestE14CrashRecovery(t *testing.T) {
	rows, _, err := E14CrashRecovery()
	if err != nil {
		t.Fatal(err)
	}
	if len(rows) < 5 {
		t.Fatalf("chaos corpus shrank to %d schedules", len(rows))
	}
	redetected := 0
	for _, r := range rows {
		if r.FalsePositives != 0 {
			t.Fatalf("schedule %s declared a phantom deadlock: %+v", r.Schedule, r)
		}
		if r.Redetected {
			redetected++
			if r.DetectMs <= 0 {
				t.Fatalf("schedule %s redetected with non-positive latency: %+v", r.Schedule, r)
			}
		}
	}
	if redetected < 3 {
		t.Fatalf("only %d schedules re-detected a surviving cycle; the corpus must keep the bystander, restart and partition cases", redetected)
	}
}

func TestExperimentsAreDeterministic(t *testing.T) {
	// Everything runs on the seeded simulator, so two runs of the same
	// experiment in one process must render byte-identical tables. E4
	// fans probes out to several processes at once, so it also catches a
	// send loop that follows map order.
	runs := []struct {
		id  string
		run func() (fmt.Stringer, error)
	}{
		{"E1", func() (fmt.Stringer, error) {
			_, table, err := E1ProbesPerComputation([]int{5, 9})
			return table, err
		}},
		{"E4", func() (fmt.Stringer, error) {
			_, table, err := E4Correctness([]int64{1, 2, 3})
			return table, err
		}},
		{"E6", func() (fmt.Stringer, error) {
			_, table, err := E6DDBInitiation([]float64{0.5})
			return table, err
		}},
	}
	for _, r := range runs {
		first, err := r.run()
		if err != nil {
			t.Fatal(err)
		}
		second, err := r.run()
		if err != nil {
			t.Fatal(err)
		}
		if first.String() != second.String() {
			t.Fatalf("%s not deterministic:\n%s\nvs\n%s", r.id, first, second)
		}
	}
}

func TestRunAllSubset(t *testing.T) {
	var sb strings.Builder
	if err := RunAll(&sb, map[string]bool{"E1": true}); err != nil {
		t.Fatal(err)
	}
	out := sb.String()
	if !strings.Contains(out, "== E1") || strings.Contains(out, "== E2") {
		t.Fatalf("subset run wrong:\n%s", out)
	}
	ids := map[string]bool{}
	for _, s := range All() {
		if ids[s.ID] {
			t.Fatalf("duplicate experiment id %s", s.ID)
		}
		ids[s.ID] = true
	}
	if len(ids) != 20 {
		t.Fatalf("expected 20 experiments, have %d", len(ids))
	}
}

func TestE15HostScaling(t *testing.T) {
	// Small configurations: the full ladder (8192 procs, the TCP
	// baseline at 64 listeners) belongs to BenchmarkE15HostScaling.
	rows, _, err := E15HostScaling([]int{1, 64}, []int{1, 4})
	if err != nil {
		t.Fatal(err)
	}
	for _, r := range rows {
		if r.KMsgsPerSec <= 0 {
			t.Fatalf("non-positive throughput: %+v", r)
		}
		if r.Procs >= 2 && r.DetectUs <= 0 {
			t.Fatalf("ring not detected: %+v", r)
		}
		if r.Procs == 1 && r.DetectUs != 0 {
			t.Fatalf("detection latency reported with no cycle: %+v", r)
		}
	}
	if rows[len(rows)-1].Path != "tcp" {
		t.Fatalf("baseline row missing: %+v", rows[len(rows)-1])
	}
}

func TestE17OpenLoop(t *testing.T) {
	// Small host leg: the full 30k-transaction run belongs to
	// BenchmarkE17OpenLoop.
	rows, _, err := E17OpenLoop(2000)
	if err != nil {
		t.Fatal(err)
	}
	if len(rows) != 4 {
		t.Fatalf("want 3 sim policy rows + 1 host row, got %d", len(rows))
	}
	var simDeadlocks int64
	for _, r := range rows {
		if r.Committed == 0 {
			t.Fatalf("row committed nothing: %+v", r)
		}
		if r.KTxnsPerSec <= 0 {
			t.Fatalf("non-positive throughput: %+v", r)
		}
		if r.Runtime == "sim" {
			simDeadlocks += r.Deadlocks
			if r.Victim == "none" && (r.FalseDeadlocks != 0 || r.UncoveredCycles != 0) {
				t.Fatalf("no-abort row not clean: %+v", r)
			}
		}
	}
	if simDeadlocks == 0 {
		t.Fatal("sim policy rows produced no deadlocks; the comparison is vacuous")
	}
	if rows[len(rows)-1].Runtime != "host" {
		t.Fatalf("host row missing: %+v", rows[len(rows)-1])
	}
}

func TestE17SimRowsDeterministic(t *testing.T) {
	// The sim rows run in virtual time, so a replay in the same process
	// must give the same rows field for field, throughput and latency
	// percentiles included.
	a, err := e17SimRows()
	if err != nil {
		t.Fatal(err)
	}
	b, err := e17SimRows()
	if err != nil {
		t.Fatal(err)
	}
	if len(a) != len(b) {
		t.Fatalf("sim rows: %d vs %d", len(a), len(b))
	}
	for i := range a {
		if a[i] != b[i] {
			t.Fatalf("%s: sim row not deterministic:\n%+v\nvs\n%+v", a[i].Victim, a[i], b[i])
		}
	}
}

// TestWallClockSelfChecks runs each wall-clock experiment once at its
// default size and asserts what its table must show however fast the
// machine is. It never asserts a rate. Several of these checks also
// fail the experiment itself; repeating them here names the claim.
func TestWallClockSelfChecks(t *testing.T) {
	cases := []struct {
		id    string
		check func(t *testing.T)
	}{
		{"E13", func(t *testing.T) {
			rows, _, err := E13IngressThroughput(nil)
			if err != nil {
				t.Fatal(err)
			}
			for _, r := range rows {
				// One frame in hostileEvery is a stray reply.
				if want := uint64(r.Frames / hostileEvery); r.Rejected != want {
					t.Errorf("batch=%d: %d hostile frames rejected, want %d", r.MaxBatch, r.Rejected, want)
				}
			}
		}},
		{"E16", func(t *testing.T) {
			rows, _, err := E16WireCodec(0)
			if err != nil {
				t.Fatal(err)
			}
			for _, r := range rows {
				if r.Codec == "binary" && (r.EncAllocsPerOp != 0 || r.DecAllocsPerOp != 0) {
					t.Errorf("binary codec allocates: encode %.1f/op, decode %.1f/op, want 0/0",
						r.EncAllocsPerOp, r.DecAllocsPerOp)
				}
			}
		}},
		{"E18", func(t *testing.T) {
			rows, _, err := E18Pipeline(nil)
			if err != nil {
				t.Fatal(err)
			}
			for _, r := range rows {
				if r.VectorFlushShare != 1 {
					t.Errorf("shards=%d: %.2f of flushes vectored, want all", r.Shards, r.VectorFlushShare)
				}
				if r.RingShare <= 0 {
					t.Errorf("shards=%d: no delivery used the rings", r.Shards)
				}
			}
		}},
		{"E19", func(t *testing.T) {
			rows, _, err := E19Recovery()
			if err != nil {
				t.Fatal(err)
			}
			for _, r := range rows {
				switch {
				case r.Mode == "durable-restore":
					if r.SnapshotsRestored != e19Procs || r.TailReplayed != uint64(r.Frames) {
						t.Errorf("durable restore: %d snapshots, %d tail frames replayed, want %d and %d",
							r.SnapshotsRestored, r.TailReplayed, e19Procs, r.Frames)
					}
				case r.Fsync == wal.SyncAlways.String():
					if r.RecordsPerSync <= 1 {
						t.Errorf("fsync=always: %.2f records per sync, want > 1", r.RecordsPerSync)
					}
				}
			}
		}},
		{"E20", func(t *testing.T) {
			// The run itself fails on a lost or duplicated frame and on
			// migration counters other than one out, one in.
			rows, _, err := E20Migration()
			if err != nil {
				t.Fatal(err)
			}
			if len(rows) != 3 || rows[1].Phase != "migration" || rows[1].MigrateMs <= 0 {
				t.Fatalf("rows = %+v, want intra-host, migration, cross-host with a measured move", rows)
			}
		}},
	}
	for _, c := range cases {
		t.Run(c.id, c.check)
	}
}
