package experiments

import (
	"bytes"
	"flag"
	"os"
	"path/filepath"
	"strings"
	"testing"
)

var update = flag.Bool("update", false, "rewrite testdata/*.golden from the current tables")

// TestGoldenTables renders every experiment's table and compares it
// with testdata/<ID>.golden. Each experiment runs on the seeded
// simulator in virtual time, so its table at the default parameters is
// a pure function of the code. After a change that moves a table on
// purpose, rewrite the files with
//
//	go test ./internal/experiments -run TestGoldenTables -update
//
// and explain the diff in EXPERIMENTS.md.
func TestGoldenTables(t *testing.T) {
	for _, spec := range All() {
		t.Run(spec.ID, func(t *testing.T) {
			t.Parallel()
			table, err := spec.Run()
			if err != nil {
				t.Fatal(err)
			}
			got := []byte(table.String())
			path := filepath.Join("testdata", spec.ID+".golden")
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
				t.Errorf("%s differs from %s\n--- got:\n%s\n--- want:\n%s", spec.ID, path, got, want)
			}
		})
	}
}

// TestEveryExperimentIsGolden holds the package to its invariant in both
// directions: every experiment cmhbench prints has a golden file, and
// every golden file names an experiment that still exists.
func TestEveryExperimentIsGolden(t *testing.T) {
	ids := map[string]bool{}
	for _, spec := range All() {
		ids[spec.ID] = true
		if _, err := os.Stat(filepath.Join("testdata", spec.ID+".golden")); err != nil {
			t.Errorf("%s has no golden table: %v", spec.ID, err)
		}
	}
	files, err := filepath.Glob(filepath.Join("testdata", "*.golden"))
	if err != nil {
		t.Fatal(err)
	}
	for _, f := range files {
		if id := strings.TrimSuffix(filepath.Base(f), ".golden"); !ids[id] {
			t.Errorf("%s names no experiment", f)
		}
	}
}
