package experiments

import (
	"bytes"
	"flag"
	"os"
	"path/filepath"
	"testing"

	"repro/internal/metrics"
)

var update = flag.Bool("update", false, "rewrite testdata/*.golden from the current tables")

// goldenIDs are the experiments whose tables are a pure function of the
// code: each runs on the seeded simulator in virtual time, so its table
// at the default parameters must come out byte for byte the same. E17
// contributes only its three sim rows. E8, E13, E15, E16, E17's host row
// and E18–E20 read the wall clock and are printed, never compared.
var goldenIDs = []string{"E1", "E2", "E3", "E4", "E5", "E6", "E7", "E9", "E10", "E11", "E12", "E14", "E17"}

// e17SimTable renders E17 without its wall-clock host row.
func e17SimTable() (*metrics.Table, error) {
	rows, err := e17SimRows()
	if err != nil {
		return nil, err
	}
	return e17Table(rows), nil
}

// TestGoldenTables renders each deterministic experiment's table and
// compares it with testdata/<ID>.golden. After a change that moves a
// table on purpose, rewrite the files with
//
//	go test ./internal/experiments -run TestGoldenTables -update
//
// and explain the diff in EXPERIMENTS.md.
func TestGoldenTables(t *testing.T) {
	runs := map[string]func() (*metrics.Table, error){}
	for _, spec := range All() {
		runs[spec.ID] = spec.Run
	}
	runs["E17"] = e17SimTable
	for _, id := range goldenIDs {
		run := runs[id]
		t.Run(id, func(t *testing.T) {
			t.Parallel()
			table, err := run()
			if err != nil {
				t.Fatal(err)
			}
			got := []byte(table.String())
			path := filepath.Join("testdata", id+".golden")
			if *update {
				if err := os.WriteFile(path, got, 0o644); err != nil {
					t.Fatal(err)
				}
				return
			}
			want, err := os.ReadFile(path)
			if err != nil {
				t.Fatalf("%v (rewrite with -update)", err)
			}
			if !bytes.Equal(got, want) {
				t.Errorf("%s differs from %s\n--- got:\n%s\n--- want:\n%s", id, path, got, want)
			}
		})
	}
}
