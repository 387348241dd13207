package experiments

import (
	"fmt"
	"strings"
	"sync"
	"testing"

	"repro/internal/sim"
)

// The experiment functions are exercised at small scale so the full
// table pipeline (workload -> rows -> rendered table) stays correct;
// TestGoldenTables holds them at paper scale.

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
		// Every process initiates on block, and each computation's
		// probe laps the cycle once: N computations of N probes.
		if r.Probes != int64(r.N*r.N) {
			t.Fatalf("want N computations of one N-probe lap each: %+v", r)
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
}

// e17Rows runs E17 once for the two tests that inspect its rows.
var e17Rows = sync.OnceValues(func() ([]E17Row, error) {
	rows, _, err := E17OpenLoop()
	return rows, err
})

func TestE17OpenLoop(t *testing.T) {
	rows, err := e17Rows()
	if err != nil {
		t.Fatal(err)
	}
	if len(rows) != 3 {
		t.Fatalf("want one row per victim policy, got %d", len(rows))
	}
	var deadlocks int64
	for _, r := range rows {
		if r.Committed == 0 || r.KTxnsPerSec <= 0 {
			t.Fatalf("row committed nothing: %+v", r)
		}
		deadlocks += r.Deadlocks
		if r.Victim == "none" && (r.FalseDeadlocks != 0 || r.UncoveredCycles != 0) {
			t.Fatalf("no-abort row not clean: %+v", r)
		}
	}
	if deadlocks == 0 {
		t.Fatal("policy rows produced no deadlocks; the comparison is vacuous")
	}
}

func TestE17SimRowsDeterministic(t *testing.T) {
	// The rows run in virtual time, so a replay in the same process
	// must give the same rows field for field, throughput and latency
	// percentiles included.
	a, err := e17Rows()
	if err != nil {
		t.Fatal(err)
	}
	b, _, err := E17OpenLoop()
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
