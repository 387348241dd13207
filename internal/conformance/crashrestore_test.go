package conformance

import (
	"testing"

	"repro/internal/transport"
	"repro/internal/wal"
)

// crashRestoreSpecs is the ≥8-seed sweep both crash/restore legs
// replay. Seeds 1–5 are the differential suite's committed corpus
// (cyclic and clean); 6–8 widen it.
func crashRestoreSpecs() []Spec {
	return []Spec{
		{Seed: 1, N: 6, MaxBatch: 2},
		{Seed: 2, N: 6, MaxBatch: 2},
		{Seed: 3, N: 8, MaxBatch: 3},
		{Seed: 4, N: 8, MaxBatch: 3},
		{Seed: 5, N: 10, MaxBatch: 2},
		{Seed: 6, N: 8, MaxBatch: 3},
		{Seed: 7, N: 10, MaxBatch: 3},
		{Seed: 8, N: 8, MaxBatch: 2},
	}
}

// TestSimCrashRestoreConformance durably crashes a node mid-storm on
// the fault net, restores it from its captured state inside the lease
// window, and demands the verdict stay byte-identical to the
// fault-free simulator's — for every seed, crashing both a low and a
// high node id.
func TestSimCrashRestoreConformance(t *testing.T) {
	for _, spec := range crashRestoreSpecs() {
		spec := spec
		t.Run(specName(spec), func(t *testing.T) {
			want, err := RunSim(spec)
			if err != nil {
				t.Fatalf("baseline sim: %v", err)
			}
			for _, node := range []int{1, spec.N - 2} {
				got, err := RunSimCrashRestore(spec, transport.NodeID(node))
				if err != nil {
					t.Fatalf("crash-restore (node %d): %v", node, err)
				}
				if got != want {
					t.Errorf("node %d: verdict diverged after durable crash/restore:\n--- fault-free ---\n%s--- crash-restore ---\n%s",
						node, want, got)
				}
			}
		})
	}
}

// TestTCPCrashRestoreConformance runs the two-host WAL topology per
// seed once fault-free and then, under each fsync policy, killing host
// B after the checkpoint and the A-side probe burst and rebuilding it
// from the log — and demands byte-identical verdicts from every leg,
// and from the simulator. The fsync=always leg is the lossless
// configuration: every frame B delivered or acknowledged went through a
// group commit with a real fsync first.
func TestTCPCrashRestoreConformance(t *testing.T) {
	if testing.Short() {
		t.Skip("TCP crash/restore sweep is not short")
	}
	const shards = 2
	for _, spec := range crashRestoreSpecs() {
		spec := spec
		t.Run(specName(spec), func(t *testing.T) {
			t.Parallel()
			simV, err := RunSim(spec)
			if err != nil {
				t.Fatalf("sim: %v", err)
			}
			baseV, err := RunTCPCrashRestore(spec, shards, t.TempDir(), wal.SyncAlways, false)
			if err != nil {
				t.Fatalf("fault-free leg: %v", err)
			}
			for _, policy := range []wal.SyncPolicy{wal.SyncAlways, wal.SyncInterval} {
				crashV, err := RunTCPCrashRestore(spec, shards, t.TempDir(), policy, true)
				if err != nil {
					t.Fatalf("crash leg (fsync=%v): %v", policy, err)
				}
				if baseV != crashV {
					t.Errorf("verdict diverged after durable crash/restore (fsync=%v):\n--- fault-free ---\n%s--- crash-restore ---\n%s", policy, baseV, crashV)
				}
			}
			if baseV != simV {
				t.Errorf("WAL topology diverged from the simulator:\n--- sim ---\n%s--- wal topology ---\n%s", simV, baseV)
			}
		})
	}
}
