package conformance

import (
	"fmt"
	"os"
	"strings"
	"testing"
)

// goldenVerdicts is the file TestVerdictsGolden requires byte for byte.
const goldenVerdicts = "testdata/verdicts.golden"

// verdictDump renders the simulator's verdict on every committed seed
// (the crash/restore corpus, whose first five specs are the
// differential suite's, and the cluster corpus) and the post-fault
// verdict of every committed chaos schedule, each under a header line.
func verdictDump() (string, error) {
	var b strings.Builder
	for _, spec := range append(crashRestoreSpecs(), clusterSpecs()...) {
		v, err := RunSim(spec)
		if err != nil {
			return "", fmt.Errorf("sim %s: %w", specName(spec), err)
		}
		fmt.Fprintf(&b, "== sim %s maxbatch%d ==\n%s", specName(spec), spec.MaxBatch, v)
	}
	for _, fs := range FaultSchedules() {
		rep, err := RunSimFaults(fs)
		if err != nil {
			return "", fmt.Errorf("faults %s: %w", fs.Name, err)
		}
		fmt.Fprintf(&b, "== faults %s ==\n%s", fs.Name, rep.Verdict)
	}
	return b.String(), nil
}

// TestVerdictsGolden pins the canonical verdict rendering, the "pN down"
// lines of a crashed process included: every committed sim verdict must
// match testdata/verdicts.golden byte for byte. The concurrent legs are
// held to the simulator's verdicts by the differential tests, so this
// file pins them too.
func TestVerdictsGolden(t *testing.T) {
	got, err := verdictDump()
	if err != nil {
		t.Fatal(err)
	}
	want, err := os.ReadFile(goldenVerdicts)
	if err != nil {
		t.Fatal(err)
	}
	if got != string(want) {
		gl, wl := strings.Split(got, "\n"), strings.Split(string(want), "\n")
		for i := 0; i < len(gl) && i < len(wl); i++ {
			if gl[i] != wl[i] {
				t.Fatalf("%s differs at line %d:\ngot:  %s\nwant: %s", goldenVerdicts, i+1, gl[i], wl[i])
			}
		}
		t.Fatalf("%s differs in length: got %d lines, want %d", goldenVerdicts, len(gl), len(wl))
	}
}
