package experiments

// E17 — open-loop workload cost of deadlock detection. The Zipfian
// open-loop generator (internal/workload) drives the §6 DDB lock
// manager near service capacity and reports what detection costs where
// it matters: probes sent per COMMITTED transaction, deadlocks per 1k
// commits, and the block-to-declaration latency distribution. The rows
// compare victim policies on an identical seeded workload in virtual
// time, so TestGoldenTables holds them byte for byte. The same
// generator over the sharded engine runtime is exercised by the
// workload package's host tests and measured by the repo benchmark's
// host-local workload.

import (
	"fmt"

	"repro/internal/metrics"
	"repro/internal/workload"
)

// E17Row is one (runtime, victim policy) leg of the workload.
type E17Row struct {
	// Runtime is "sim": every row runs on the seeded simulator.
	Runtime string
	// Victim is the abort policy on declaration: none, detected,
	// youngest, random.
	Victim string
	// Started, Committed and Aborted count transactions; Deadlocks
	// counts declarations.
	Started   int64
	Committed int64
	Aborted   int64
	Deadlocks int64
	// DeadlocksPer1kCommits and ProbesPerCommit are the paper's cost
	// figures: what the detection layer spends per unit of useful work.
	DeadlocksPer1kCommits float64
	ProbesPerCommit       float64
	// KTxnsPerSec is committed transactions per second of virtual time,
	// in thousands.
	KTxnsPerSec float64
	// DetectP50Us / DetectP99Us are block-to-declaration latency
	// quantiles in microseconds of virtual time.
	DetectP50Us float64
	DetectP99Us float64
	// FalseDeadlocks counts declarations the oracle refuted at
	// declaration time (stale under concurrent victim aborts, must be 0
	// with victim=none); UncoveredCycles counts persistent cycles never
	// declared (must be 0 whenever the oracle is attached).
	FalseDeadlocks  int64
	UncoveredCycles int64
}

// e17SimConfig is the shared sim workload every policy row runs: the
// calibrated near-capacity configuration of the workload test suite.
func e17SimConfig(victim string) workload.OpenLoopConfig {
	return workload.OpenLoopConfig{
		Runtime:     workload.RuntimeSim,
		Sites:       8,
		Keys:        256,
		Dist:        "zipfian",
		Theta:       0.8,
		RatePerSec:  500,
		DurationNs:  1_000_000_000,
		MaxTxns:     500,
		Mix:         workload.TxnMix{MinSteps: 2, MaxSteps: 4, WriteFrac: 0.8},
		ThinkNs:     300_000,
		HoldNs:      800_000,
		DelayNs:     2_000_000,
		Victim:      victim,
		Retry:       victim != workload.VictimNone,
		BackoffNs:   20_000_000,
		Seed:        1,
		CheckOracle: true,
	}
}

// E17OpenLoop runs the victim-policy comparison on the seeded
// simulator, one row per policy.
func E17OpenLoop() ([]E17Row, *metrics.Table, error) {
	var rows []E17Row
	for _, victim := range []string{workload.VictimNone, workload.VictimYoungest, workload.VictimRandom} {
		rep, err := workload.RunOpenLoop(e17SimConfig(victim))
		if err != nil {
			return nil, nil, fmt.Errorf("E17 sim %s: %w", victim, err)
		}
		if rep.ProtocolErrors != 0 {
			return nil, nil, fmt.Errorf("E17 sim %s: %d protocol errors", victim, rep.ProtocolErrors)
		}
		if victim == workload.VictimNone && (rep.FalseDeadlocks != 0 || rep.UncoveredCycles != 0) {
			return nil, nil, fmt.Errorf("E17 sim none: false=%d uncovered=%d, want 0/0",
				rep.FalseDeadlocks, rep.UncoveredCycles)
		}
		rows = append(rows, rowFromReport(rep))
	}
	table := metrics.NewTable(
		"E17 — open-loop Zipfian workload: detection cost per committed txn, by victim policy",
		"runtime", "victim", "started", "committed", "aborted", "deadlocks",
		"dl_per_1k", "probes_per_commit", "ktxns_s", "p50_us", "p99_us", "false", "uncovered")
	for _, r := range rows {
		table.AddRow(r.Runtime, r.Victim, r.Started, r.Committed, r.Aborted, r.Deadlocks,
			r.DeadlocksPer1kCommits, r.ProbesPerCommit, r.KTxnsPerSec,
			r.DetectP50Us, r.DetectP99Us, r.FalseDeadlocks, r.UncoveredCycles)
	}
	return rows, table, nil
}

// rowFromReport projects a workload report onto the table row.
func rowFromReport(rep *workload.Report) E17Row {
	return E17Row{
		Runtime:               rep.Runtime,
		Victim:                rep.Victim,
		Started:               rep.Started,
		Committed:             rep.Committed,
		Aborted:               rep.Aborted,
		Deadlocks:             rep.Deadlocks,
		DeadlocksPer1kCommits: rep.DeadlocksPer1kCommits,
		ProbesPerCommit:       rep.ProbesPerCommit,
		KTxnsPerSec:           rep.CommitsPerSec / 1e3,
		DetectP50Us:           float64(rep.DetectP50Us),
		DetectP99Us:           float64(rep.DetectP99Us),
		FalseDeadlocks:        rep.FalseDeadlocks,
		UncoveredCycles:       rep.UncoveredCycles,
	}
}
