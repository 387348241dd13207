package conformance

import (
	"fmt"
	"strings"
	"testing"
)

// clusterSpecs is the cluster sweep's 8-seed corpus.
func clusterSpecs() []Spec {
	return []Spec{
		{Seed: 1, N: 10, MaxBatch: 2},
		{Seed: 2, N: 10, MaxBatch: 2},
		{Seed: 3, N: 10, MaxBatch: 3},
		{Seed: 4, N: 12, MaxBatch: 3},
		{Seed: 5, N: 12, MaxBatch: 2},
		{Seed: 6, N: 12, MaxBatch: 3},
		{Seed: 7, N: 14, MaxBatch: 2},
		{Seed: 8, N: 14, MaxBatch: 3},
	}
}

// TestClusterConformance is the tentpole acceptance check: the
// self-assembled cluster — gossip membership, ring placement, live
// mid-run migration — must produce verdicts byte-identical to the
// deterministic simulator, across at least 3 placements and 8 seeds.
// Every run also re-verifies against the WFG oracle inside RunCluster.
func TestClusterConformance(t *testing.T) {
	placements := []struct{ hosts, shards int }{
		{2, 1},
		{3, 2},
		{4, 3},
	}
	specs := clusterSpecs()
	if testing.Short() {
		specs = specs[:3]
	}
	sawDeadlock, sawClean := false, false
	for _, spec := range specs {
		spec := spec
		t.Run(specName(spec), func(t *testing.T) {
			want, err := RunSim(spec)
			if err != nil {
				t.Fatalf("sim: %v", err)
			}
			if strings.Contains(want, "declared=true") {
				sawDeadlock = true
			} else {
				sawClean = true
			}
			for _, pl := range placements {
				got, err := RunCluster(spec, pl.hosts, pl.shards)
				if err != nil {
					t.Fatalf("cluster %dx%d: %v", pl.hosts, pl.shards, err)
				}
				if got != want {
					t.Errorf("cluster %dx%d verdict differs from sim:\n--- sim ---\n%s--- cluster ---\n%s",
						pl.hosts, pl.shards, want, got)
				}
			}
		})
	}
	if !sawDeadlock {
		t.Error("no spec produced a deadlock — the migration never moved deadlocked state")
	}
	if !sawClean {
		t.Error("no spec produced a clean run")
	}
	_ = fmt.Sprintf
}
