package experiments

// Benchstat-style regression comparison between two JSON exports of the
// experiment suite (cmhbench -json / make bench-json). The CI
// bench-compare job runs the perf-sensitive experiments and fails the
// build when throughput drops more than the tolerance or when any
// allocs-per-op figure increases at all — allocation regressions on the
// probe path are deterministic, so they get zero slack.

import (
	"encoding/json"
	"fmt"
	"sort"
	"strings"
)

// throughputFields are the higher-is-better rates checked against the
// relative tolerance.
var throughputFields = map[string]bool{
	"KFramesPerSec":     true,
	"KMsgsPerSec":       true,
	"WireKFramesPerSec": true,
	"KTxnsPerSec":       true,
}

// latencyFields are the lower-is-better figures: the p99 block-to-
// declaration latency columns of the gated rows (detectlat.go, E17)
// and the live-migration unavailability window (E20). Rows where the
// baseline is 0 are skipped, which is how E20's non-migration phases
// stay out of the gate.
var latencyFields = map[string]bool{
	"DetectP99Us": true,
	"MigrateMs":   true,
}

// LatencySlackFactor scales the tolerance for latencyFields: a latency
// row fails only when it exceeds baseline*(1+tolerance*factor) — at
// the default 10% tolerance, 3x the baseline. Wall-clock p99 tails on
// a loopback CI box genuinely vary ~2x run to run where throughput
// means vary ~10%, and the regressions this column exists to catch (an
// accidental sleep, a lost wakeup forcing a retransmit timer, a probe
// path gone quadratic) are 10-100x, not 1.5x. A baseline of 0 (a row
// that measures no declarations) is skipped.
const LatencySlackFactor = 20.0

// allocSuffix marks the fields where any increase is a failure,
// regardless of tolerance: allocations per operation are deterministic,
// so a delta is a code change, not noise.
const allocSuffix = "AllocsPerOp"

// DefaultCompareIDs is the experiment subset the CI gate compares: the
// perf-path experiments whose rows are throughput and allocation
// figures. The correctness experiments (exact counts, bounds) are
// covered by the test suite instead.
var DefaultCompareIDs = []string{"E13", "E16", "E17", "E18", "E19", "E20"}

// DefaultTolerance is the relative throughput drop tolerated before the
// comparison fails (0.10 = 10%).
const DefaultTolerance = 0.10

// Regression is one comparison failure.
type Regression struct {
	ID       string  `json:"id"`
	Row      int     `json:"row"`
	Field    string  `json:"field"`
	Baseline float64 `json:"baseline"`
	Current  float64 `json:"current"`
	Reason   string  `json:"reason"`
}

func (r Regression) String() string {
	return fmt.Sprintf("%s row %d %s: baseline %.3f -> current %.3f (%s)",
		r.ID, r.Row, r.Field, r.Baseline, r.Current, r.Reason)
}

// genericRows normalises a Result's rows (whether typed structs from a
// live run or the map form json.Unmarshal produces) into []map[string]
// float64 keyed by field name, keeping only numeric fields.
func genericRows(rows any) ([]map[string]float64, error) {
	raw, err := json.Marshal(rows)
	if err != nil {
		return nil, err
	}
	var decoded []map[string]any
	if err := json.Unmarshal(raw, &decoded); err != nil {
		return nil, err
	}
	out := make([]map[string]float64, len(decoded))
	for i, m := range decoded {
		out[i] = make(map[string]float64)
		for k, v := range m {
			if f, ok := v.(float64); ok {
				out[i][k] = f
			}
		}
	}
	return out, nil
}

// GatedSummary reduces an export to what the gate compares: for each of
// DefaultCompareIDs, its rows cut down to the throughput, latency and
// allocs-per-op fields. It is the per-PR line of BENCH_history.jsonl —
// BENCH_baseline.json is overwritten every PR, the history is the
// trajectory.
func GatedSummary(results []Result) (map[string][]map[string]float64, error) {
	gated := make(map[string]bool, len(DefaultCompareIDs))
	for _, id := range DefaultCompareIDs {
		gated[id] = true
	}
	out := make(map[string][]map[string]float64)
	for _, r := range results {
		if !gated[r.ID] {
			continue
		}
		rows, err := genericRows(r.Rows)
		if err != nil {
			return nil, fmt.Errorf("%s: %w", r.ID, err)
		}
		for _, row := range rows {
			for field := range row {
				if !throughputFields[field] && !latencyFields[field] && !strings.HasSuffix(field, allocSuffix) {
					delete(row, field)
				}
			}
		}
		out[r.ID] = rows
	}
	return out, nil
}

// CompareResults checks current against baseline and returns every
// regression found: a throughput field more than tolerance below its
// baseline, a p99 latency field above baseline by more than the
// slack-scaled tolerance, or any allocs-per-op field above it. Experiments or rows
// present on only one side are skipped — the gate compares what both
// runs measured (a new experiment cannot fail against a baseline that
// predates it). Rows are matched by index; the suite's perf experiments
// emit rows in a deterministic configuration order.
func CompareResults(current, baseline []Result, ids []string, tolerance float64) ([]Regression, error) {
	if tolerance <= 0 {
		tolerance = DefaultTolerance
	}
	want := make(map[string]bool, len(ids))
	for _, id := range ids {
		want[id] = true
	}
	base := make(map[string][]map[string]float64)
	for _, r := range baseline {
		if len(want) > 0 && !want[r.ID] {
			continue
		}
		rows, err := genericRows(r.Rows)
		if err != nil {
			return nil, fmt.Errorf("baseline %s: %w", r.ID, err)
		}
		base[r.ID] = rows
	}
	var regs []Regression
	for _, r := range current {
		brows, ok := base[r.ID]
		if !ok || (len(want) > 0 && !want[r.ID]) {
			continue
		}
		crows, err := genericRows(r.Rows)
		if err != nil {
			return nil, fmt.Errorf("current %s: %w", r.ID, err)
		}
		n := len(crows)
		if len(brows) < n {
			n = len(brows)
		}
		for i := 0; i < n; i++ {
			for field, cur := range crows[i] {
				bas, has := brows[i][field]
				if !has {
					continue
				}
				switch {
				case throughputFields[field]:
					if cur < bas*(1-tolerance) {
						regs = append(regs, Regression{
							ID: r.ID, Row: i, Field: field, Baseline: bas, Current: cur,
							Reason: fmt.Sprintf("throughput dropped %.1f%%, tolerance %.0f%%",
								(1-cur/bas)*100, tolerance*100),
						})
					}
				case latencyFields[field]:
					if bas > 0 && cur > bas*(1+tolerance*LatencySlackFactor) {
						regs = append(regs, Regression{
							ID: r.ID, Row: i, Field: field, Baseline: bas, Current: cur,
							Reason: fmt.Sprintf("p99 latency grew %.1fx, slack %.1fx",
								cur/bas, 1+tolerance*LatencySlackFactor),
						})
					}
				case strings.HasSuffix(field, allocSuffix):
					if cur > bas {
						regs = append(regs, Regression{
							ID: r.ID, Row: i, Field: field, Baseline: bas, Current: cur,
							Reason: "allocs/op increased (zero tolerance)",
						})
					}
				}
			}
		}
	}
	sort.Slice(regs, func(i, j int) bool {
		a, b := regs[i], regs[j]
		if a.ID != b.ID {
			return a.ID < b.ID
		}
		if a.Row != b.Row {
			return a.Row < b.Row
		}
		return a.Field < b.Field
	})
	return regs, nil
}
