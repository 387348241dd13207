package experiments

import (
	"fmt"
	"io"

	"repro/internal/metrics"
)

// Spec names one experiment, the paper claim it reproduces, and a
// runner rendering its table at the default parameters.
type Spec struct {
	ID    string
	Claim string
	Run   func() (*metrics.Table, error)
}

// tableOf keeps an experiment's rendered table and drops its typed rows,
// which only the tests and benchmarks inspect.
func tableOf[R any](_ R, table *metrics.Table, err error) (*metrics.Table, error) {
	return table, err
}

// All returns the full experiment suite in DESIGN.md order.
func All() []Spec {
	return []Spec{
		{
			ID:    "E1",
			Claim: "§4.3: at most one probe per edge, ≤ N probes on an N-cycle",
			Run:   func() (*metrics.Table, error) { return tableOf(E1ProbesPerComputation(nil)) },
		},
		{
			ID:    "E2",
			Claim: "§4.3: per-process detector state is one entry per initiator (≤ N)",
			Run:   func() (*metrics.Table, error) { return tableOf(E2StateBound(nil)) },
		},
		{
			ID:    "E3",
			Claim: "§4.3: timer T trades probe computations for detection latency (≥ T)",
			Run:   func() (*metrics.Table, error) { return tableOf(E3TimerTradeoff(nil)) },
		},
		{
			ID:    "E4",
			Claim: "Theorems 1 & 2: all true deadlocks detected, none reported falsely",
			Run:   func() (*metrics.Table, error) { return tableOf(E4Correctness(nil)) },
		},
		{
			ID:    "E5",
			Claim: "§5: WFGD delivers every deadlocked vertex its permanent black paths",
			Run:   func() (*metrics.Table, error) { return tableOf(E5WFGD(nil)) },
		},
		{
			ID:    "E6",
			Claim: "§6.7: Q computations instead of one per blocked process",
			Run:   func() (*metrics.Table, error) { return tableOf(E6DDBInitiation(nil)) },
		},
		{
			ID:    "E7",
			Claim: "§1: probes are exact; timeout and centralized baselines misfire",
			Run:   func() (*metrics.Table, error) { return tableOf(E7BaselineComparison(nil)) },
		},
		{
			ID:    "E8",
			Claim: "detection latency is one probe lap: linear in cycle length",
			Run:   func() (*metrics.Table, error) { return tableOf(E8Scalability(nil)) },
		},
		{
			ID:    "E9",
			Claim: "§6: probe detection + victim abort restores liveness efficiently",
			Run:   func() (*metrics.Table, error) { return tableOf(E9Resolution(nil)) },
		},
		{
			ID:    "E10",
			Claim: "extension [1]: communication-model (OR) detection is exact too",
			Run:   func() (*metrics.Table, error) { return tableOf(E10CommunicationModel(nil)) },
		},
		{
			ID:    "E11",
			Claim: "ablation: §6.4 edges alone miss remote-hold cycles; holder-home edges fix it",
			Run:   func() (*metrics.Table, error) { return tableOf(E11EdgeModelAblation()) },
		},
		{
			ID:    "E12",
			Claim: "ablation: victim-selection policy for resolution",
			Run:   func() (*metrics.Table, error) { return tableOf(E12VictimPolicyAblation()) },
		},
		{
			ID:    "E14",
			Claim: "crash-recovery: under committed chaos schedules, zero phantom deadlocks and every surviving cycle re-declared",
			Run:   func() (*metrics.Table, error) { return tableOf(E14CrashRecovery()) },
		},
		{
			ID:    "E17",
			Claim: "open-loop Zipfian workload: probes per committed txn and p99 detection latency under production-shaped load, by victim policy",
			Run:   func() (*metrics.Table, error) { return tableOf(E17OpenLoop()) },
		},
	}
}

// RunAll executes every experiment (or the subset whose IDs are in
// only, if non-empty) and writes the rendered tables to w.
func RunAll(w io.Writer, only map[string]bool) error {
	for _, spec := range All() {
		if len(only) > 0 && !only[spec.ID] {
			continue
		}
		fmt.Fprintf(w, "== %s: %s\n", spec.ID, spec.Claim)
		table, err := spec.Run()
		if err != nil {
			return fmt.Errorf("%s: %w", spec.ID, err)
		}
		fmt.Fprintln(w, table.String())
	}
	return nil
}
