package experiments

import (
	"encoding/json"
	"fmt"
	"io"

	"repro/internal/metrics"
)

// Spec names one experiment, the paper claim it reproduces, and a
// runner returning both typed rows (for the JSON export) and the
// rendered table (for the text report).
type Spec struct {
	ID    string
	Claim string
	Run   func() (rows any, table *metrics.Table, err error)
}

// All returns the full experiment suite in DESIGN.md order.
func All() []Spec {
	return []Spec{
		{
			ID:    "E1",
			Claim: "§4.3: at most one probe per edge, ≤ N probes on an N-cycle",
			Run: func() (any, *metrics.Table, error) {
				r, t, err := E1ProbesPerComputation(nil)
				return r, t, err
			},
		},
		{
			ID:    "E2",
			Claim: "§4.3: per-process detector state is one entry per initiator (≤ N)",
			Run: func() (any, *metrics.Table, error) {
				r, t, err := E2StateBound(nil)
				return r, t, err
			},
		},
		{
			ID:    "E3",
			Claim: "§4.3: timer T trades probe computations for detection latency (≥ T)",
			Run: func() (any, *metrics.Table, error) {
				r, t, err := E3TimerTradeoff(nil)
				return r, t, err
			},
		},
		{
			ID:    "E4",
			Claim: "Theorems 1 & 2: all true deadlocks detected, none reported falsely",
			Run: func() (any, *metrics.Table, error) {
				r, t, err := E4Correctness(nil)
				return r, t, err
			},
		},
		{
			ID:    "E5",
			Claim: "§5: WFGD delivers every deadlocked vertex its permanent black paths",
			Run: func() (any, *metrics.Table, error) {
				r, t, err := E5WFGD(nil)
				return r, t, err
			},
		},
		{
			ID:    "E6",
			Claim: "§6.7: Q computations instead of one per blocked process",
			Run: func() (any, *metrics.Table, error) {
				r, t, err := E6DDBInitiation(nil)
				return r, t, err
			},
		},
		{
			ID:    "E7",
			Claim: "§1: probes are exact; timeout and centralized baselines misfire",
			Run: func() (any, *metrics.Table, error) {
				r, t, err := E7BaselineComparison(nil)
				return r, t, err
			},
		},
		{
			ID:    "E8",
			Claim: "detection latency is one probe lap: linear in cycle length",
			Run: func() (any, *metrics.Table, error) {
				r, t, err := E8Scalability(nil)
				return r, t, err
			},
		},
		{
			ID:    "E9",
			Claim: "§6: probe detection + victim abort restores liveness efficiently",
			Run: func() (any, *metrics.Table, error) {
				r, t, err := E9Resolution(nil)
				return r, t, err
			},
		},
		{
			ID:    "E10",
			Claim: "extension [1]: communication-model (OR) detection is exact too",
			Run: func() (any, *metrics.Table, error) {
				r, t, err := E10CommunicationModel(nil)
				return r, t, err
			},
		},
		{
			ID:    "E11",
			Claim: "ablation: §6.4 edges alone miss remote-hold cycles; holder-home edges fix it",
			Run: func() (any, *metrics.Table, error) {
				r, t, err := E11EdgeModelAblation()
				return r, t, err
			},
		},
		{
			ID:    "E12",
			Claim: "ablation: victim-selection policy for resolution",
			Run: func() (any, *metrics.Table, error) {
				r, t, err := E12VictimPolicyAblation()
				return r, t, err
			},
		},
		{
			ID:    "E13",
			Claim: "hardened ingress: write batching multiplies frames per flush; forged frames are dropped, not fatal",
			Run: func() (any, *metrics.Table, error) {
				r, t, err := E13IngressThroughput(nil)
				return r, t, err
			},
		},
		{
			ID:    "E14",
			Claim: "crash-recovery: under committed chaos schedules, zero phantom deadlocks and every surviving cycle re-declared",
			Run: func() (any, *metrics.Table, error) {
				r, t, err := E14CrashRecovery()
				return r, t, err
			},
		},
		{
			ID:    "E15",
			Claim: "sharded host: thousands of co-located processes on one endpoint; intra-host sends outrun per-process loopback TCP",
			Run: func() (any, *metrics.Table, error) {
				r, t, err := E15HostScaling(nil, nil)
				return r, t, err
			},
		},
		{
			ID:    "E16",
			Claim: "binary wire codec: zero allocs and ~10x less CPU per probe encoded; higher loopback frame rate than gob",
			Run: func() (any, *metrics.Table, error) {
				r, t, err := E16WireCodec(0)
				return r, t, err
			},
		},
		{
			ID:    "E17",
			Claim: "open-loop Zipfian workload: probes per committed txn and p99 detection latency under production-shaped load, by victim policy",
			Run: func() (any, *metrics.Table, error) {
				r, t, err := E17OpenLoop(0)
				return r, t, err
			},
		},
		{
			ID:    "E18",
			Claim: "assembled zero-alloc pipeline: writev batches -> pooled decode -> SPSC shard rings carry every wire frame socket-to-step",
			Run: func() (any, *metrics.Table, error) {
				r, t, err := E18Pipeline(nil)
				return r, t, err
			},
		},
		{
			ID:    "E19",
			Claim: "durable recovery: checkpoint load + local WAL tail replay restores a crashed host orders of magnitude faster than wire re-derivation",
			Run: func() (any, *metrics.Table, error) {
				r, t, err := E19Recovery()
				return r, t, err
			},
		},
		{
			ID:    "E20",
			Claim: "live migration: a process moves between cluster hosts mid-storm with zero lost frames; downtime and the forwarded/replayed tail quantified",
			Run: func() (any, *metrics.Table, error) {
				r, t, err := E20Migration()
				return r, t, err
			},
		},
	}
}

// Collect runs the selected experiments and returns their Result
// records — the in-memory form of the RunAllJSON export, used by the
// bench-compare gate to measure the current tree.
func Collect(only map[string]bool) ([]Result, error) {
	var results []Result
	for _, spec := range All() {
		if len(only) > 0 && !only[spec.ID] {
			continue
		}
		rows, _, err := spec.Run()
		if err != nil {
			return nil, fmt.Errorf("%s: %w", spec.ID, err)
		}
		results = append(results, Result{ID: spec.ID, Claim: spec.Claim, Rows: rows})
	}
	return results, nil
}

// RunAll executes every experiment (or the subset whose IDs are in
// only, if non-empty) and writes the rendered tables to w.
func RunAll(w io.Writer, only map[string]bool) error {
	for _, spec := range All() {
		if len(only) > 0 && !only[spec.ID] {
			continue
		}
		fmt.Fprintf(w, "== %s: %s\n", spec.ID, spec.Claim)
		_, table, err := spec.Run()
		if err != nil {
			return fmt.Errorf("%s: %w", spec.ID, err)
		}
		fmt.Fprintln(w, table.String())
	}
	return nil
}

// Result is the JSON export record of one experiment.
type Result struct {
	ID    string `json:"id"`
	Claim string `json:"claim"`
	Rows  any    `json:"rows"`
}

// RunAllJSON executes the selected experiments and writes an indented
// JSON array of Result records to w — the machine-readable companion of
// EXPERIMENTS.md.
func RunAllJSON(w io.Writer, only map[string]bool) error {
	results, err := Collect(only)
	if err != nil {
		return err
	}
	return WriteJSON(w, results)
}

// WriteJSON writes results in the export format of RunAllJSON.
func WriteJSON(w io.Writer, results []Result) error {
	enc := json.NewEncoder(w)
	enc.SetIndent("", "  ")
	return enc.Encode(results)
}
