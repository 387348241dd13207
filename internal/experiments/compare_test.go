package experiments

// Tests for the benchstat-style perf-regression comparison: tolerated
// throughput noise passes, a >tolerance drop fails, and any allocs/op
// increase fails regardless of tolerance — including an injected 10%
// regression, which is the scenario the CI gate exists to catch.

import (
	"encoding/json"
	"testing"
)

// fixtureResults builds a baseline-shaped result set with the given
// E16 binary-row throughput and alloc figures.
func fixtureResults(wireKfps, encAllocs float64) []Result {
	return []Result{
		{ID: "E13", Claim: "ingress", Rows: []E13Row{
			{MaxBatch: 1, Frames: 20000, KFramesPerSec: 40},
			{MaxBatch: 64, Frames: 20000, KFramesPerSec: 110},
		}},
		{ID: "E16", Claim: "codec", Rows: []E16Row{
			{Codec: "gob", EncNsPerOp: 650, EncAllocsPerOp: 1, WireKFramesPerSec: 100},
			{Codec: "binary", EncNsPerOp: 40, EncAllocsPerOp: encAllocs, WireKFramesPerSec: wireKfps},
		}},
		{ID: "E4", Claim: "correctness, not compared", Rows: []struct {
			KMsgsPerSec float64
		}{{1}}},
	}
}

// viaJSON round-trips results through the JSON export, producing the
// map-typed rows a baseline file loads as.
func viaJSON(t *testing.T, in []Result) []Result {
	t.Helper()
	raw, err := json.Marshal(in)
	if err != nil {
		t.Fatal(err)
	}
	var out []Result
	if err := json.Unmarshal(raw, &out); err != nil {
		t.Fatal(err)
	}
	return out
}

func TestCompareResultsPassesWithinTolerance(t *testing.T) {
	baseline := viaJSON(t, fixtureResults(150, 0))
	// 5% down on the wire leg: inside the 10% tolerance.
	current := fixtureResults(142.5, 0)
	regs, err := CompareResults(current, baseline, DefaultCompareIDs, DefaultTolerance)
	if err != nil {
		t.Fatal(err)
	}
	if len(regs) != 0 {
		t.Fatalf("5%% noise flagged as regression: %v", regs)
	}
}

func TestCompareResultsCatchesInjectedThroughputRegression(t *testing.T) {
	baseline := viaJSON(t, fixtureResults(150, 0))
	// The acceptance scenario: an injected >10% throughput regression
	// must fail the gate.
	current := fixtureResults(150*0.89, 0)
	regs, err := CompareResults(current, baseline, DefaultCompareIDs, DefaultTolerance)
	if err != nil {
		t.Fatal(err)
	}
	if len(regs) != 1 {
		t.Fatalf("regressions = %v, want exactly the injected one", regs)
	}
	r := regs[0]
	if r.ID != "E16" || r.Field != "WireKFramesPerSec" || r.Row != 1 {
		t.Fatalf("wrong regression attributed: %+v", r)
	}
}

func TestCompareResultsZeroToleranceForAllocs(t *testing.T) {
	baseline := viaJSON(t, fixtureResults(150, 0))
	// One extra alloc/op on the probe path: far below any throughput
	// tolerance, still a hard failure.
	current := fixtureResults(150, 1)
	regs, err := CompareResults(current, baseline, DefaultCompareIDs, DefaultTolerance)
	if err != nil {
		t.Fatal(err)
	}
	if len(regs) != 1 || regs[0].Field != "EncAllocsPerOp" {
		t.Fatalf("regressions = %v, want one EncAllocsPerOp failure", regs)
	}
}

func TestCompareResultsScopesToSelectedIDs(t *testing.T) {
	// E4 carries a throughput-named field but is not in the compare set;
	// tanking it must not fail the gate.
	baseline := viaJSON(t, fixtureResults(150, 0))
	current := fixtureResults(150, 0)
	current[2].Rows = []struct {
		KMsgsPerSec float64
	}{{0.0001}}
	regs, err := CompareResults(current, baseline, DefaultCompareIDs, DefaultTolerance)
	if err != nil {
		t.Fatal(err)
	}
	if len(regs) != 0 {
		t.Fatalf("out-of-scope experiment failed the gate: %v", regs)
	}
}

func TestCompareResultsSkipsUnmatchedExperiments(t *testing.T) {
	// A baseline that predates E16 must not fail a current run that has
	// it (and vice versa).
	baseline := viaJSON(t, fixtureResults(150, 0)[:1])
	current := fixtureResults(150*0.5, 5)
	regs, err := CompareResults(current, baseline, DefaultCompareIDs, DefaultTolerance)
	if err != nil {
		t.Fatal(err)
	}
	if len(regs) != 0 {
		t.Fatalf("unmatched experiment compared: %v", regs)
	}
}

// latencyFixture builds a result set whose E17 sim row carries the
// given p99 detection latency.
func latencyFixture(p99Us, kTxns float64) []Result {
	return []Result{
		{ID: "E17", Claim: "open-loop", Rows: []E17Row{
			{Runtime: "sim", Victim: "youngest", Committed: 495, KTxnsPerSec: kTxns, DetectP99Us: p99Us},
			{Runtime: "host", Victim: "youngest", Committed: 30000, KTxnsPerSec: 19.8, DetectP99Us: 0},
		}},
	}
}

func TestCompareResultsCatchesSlowDeclarations(t *testing.T) {
	baseline := viaJSON(t, latencyFixture(9000, 0.495))
	// A synthetic slow-declaration run: p99 far beyond the slack-scaled
	// tolerance (3x at the defaults) must fail the gate.
	current := latencyFixture(9000*5, 0.495)
	regs, err := CompareResults(current, baseline, DefaultCompareIDs, DefaultTolerance)
	if err != nil {
		t.Fatal(err)
	}
	if len(regs) != 1 {
		t.Fatalf("regressions = %v, want exactly the slow declaration", regs)
	}
	r := regs[0]
	if r.ID != "E17" || r.Field != "DetectP99Us" || r.Row != 0 {
		t.Fatalf("wrong regression attributed: %+v", r)
	}
}

func TestCompareResultsLatencySlackAndZeroBaseline(t *testing.T) {
	baseline := viaJSON(t, latencyFixture(9000, 0.495))
	// Inside the slack: a 2x p99 wobble is loopback tail noise, not a
	// regression. The host row's zero-latency baseline is skipped even
	// though the current run reports a figure there.
	current := latencyFixture(9000*2, 0.495)
	current[0].Rows.([]E17Row)[1].DetectP99Us = 4000
	regs, err := CompareResults(current, baseline, DefaultCompareIDs, DefaultTolerance)
	if err != nil {
		t.Fatal(err)
	}
	if len(regs) != 0 {
		t.Fatalf("latency noise or zero baseline flagged: %v", regs)
	}
}

func TestCompareResultsCatchesTxnThroughputDrop(t *testing.T) {
	baseline := viaJSON(t, latencyFixture(9000, 0.495))
	current := latencyFixture(9000, 0.495*0.85)
	regs, err := CompareResults(current, baseline, DefaultCompareIDs, DefaultTolerance)
	if err != nil {
		t.Fatal(err)
	}
	if len(regs) != 1 || regs[0].Field != "KTxnsPerSec" {
		t.Fatalf("regressions = %v, want one KTxnsPerSec failure", regs)
	}
}

// TestGatedSummaryKeepsOnlyGatedFields: the history line carries the
// gated experiments' gated columns and nothing else.
func TestGatedSummaryKeepsOnlyGatedFields(t *testing.T) {
	got, err := GatedSummary(fixtureResults(900, 0))
	if err != nil {
		t.Fatal(err)
	}
	if _, ok := got["E4"]; ok || len(got) != 2 {
		t.Fatalf("summary covers %v, want exactly E13 and E16", got)
	}
	if _, kept := got["E13"][1]["Frames"]; kept || got["E13"][1]["KFramesPerSec"] != 110 {
		t.Fatalf("E13 row 1 = %v, want KFramesPerSec=110 kept and Frames dropped", got["E13"][1])
	}
	if row := got["E16"][1]; row["WireKFramesPerSec"] != 900 || row["EncNsPerOp"] != 0 {
		t.Fatalf("E16 row 1 = %v, want WireKFramesPerSec kept and EncNsPerOp dropped", row)
	}
	if _, ok := got["E16"][1]["EncAllocsPerOp"]; !ok {
		t.Fatalf("E16 row 1 = %v lost its allocs-per-op column", got["E16"][1])
	}
}
