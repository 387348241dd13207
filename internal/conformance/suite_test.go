package conformance

import (
	"fmt"
	"strings"
	"testing"
)

// TestDifferentialTransportConformance replays identical seeded storms
// over the simulator, the live goroutine network, and real loopback TCP
// sockets, and requires byte-identical verdicts from all three. Each
// run is additionally cross-checked against the WFG oracle inside run()
// (declared == dark-cycle vertices, blocked ⇒ informed).
func TestDifferentialTransportConformance(t *testing.T) {
	specs := []Spec{
		{Seed: 1, N: 6, MaxBatch: 2},
		{Seed: 2, N: 6, MaxBatch: 2},
		{Seed: 3, N: 8, MaxBatch: 3},
		{Seed: 4, N: 8, MaxBatch: 3},
		{Seed: 5, N: 10, MaxBatch: 2},
	}
	sawDeadlock, sawClean := false, false
	for _, spec := range specs {
		spec := spec
		t.Run(specName(spec), func(t *testing.T) {
			simV, err := RunSim(spec)
			if err != nil {
				t.Fatalf("sim: %v", err)
			}
			liveV, err := RunLive(spec)
			if err != nil {
				t.Fatalf("live: %v", err)
			}
			tcpV, err := RunTCP(spec)
			if err != nil {
				t.Fatalf("tcp: %v", err)
			}
			hostedV, err := RunHosted(spec, 4)
			if err != nil {
				t.Fatalf("hosted: %v", err)
			}
			muxV, err := RunTCPMux(spec, 4)
			if err != nil {
				t.Fatalf("tcpmux: %v", err)
			}
			if simV != liveV {
				t.Errorf("sim and live verdicts differ:\n--- sim ---\n%s--- live ---\n%s", simV, liveV)
			}
			if simV != tcpV {
				t.Errorf("sim and tcp verdicts differ:\n--- sim ---\n%s--- tcp ---\n%s", simV, tcpV)
			}
			if simV != hostedV {
				t.Errorf("sim and hosted verdicts differ:\n--- sim ---\n%s--- hosted ---\n%s", simV, hostedV)
			}
			if simV != muxV {
				t.Errorf("sim and tcpmux verdicts differ:\n--- sim ---\n%s--- tcpmux ---\n%s", simV, muxV)
			}
			if strings.Contains(simV, "declared=true") {
				sawDeadlock = true
			} else {
				sawClean = true
			}
			t.Logf("verdict (all transports):\n%s", simV)
		})
	}
	// The table must exercise both outcomes, or the comparison proves
	// less than it claims.
	if !sawDeadlock {
		t.Error("no spec produced a deadlock — add a cyclic seed")
	}
	if !sawClean {
		t.Error("no spec produced a deadlock-free run — add an acyclic seed")
	}
}

func specName(s Spec) string {
	return fmt.Sprintf("seed%d-n%d", s.Seed, s.N)
}
