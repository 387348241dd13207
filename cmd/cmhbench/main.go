// Command cmhbench regenerates the evaluation tables of DESIGN.md §4:
// one table per experiment, each reproducing a quantitative claim of
// Chandy–Misra (PODC 1982) or an ablation of a design choice. With no
// arguments it runs the whole suite; pass experiment IDs to run a
// subset.
//
//	cmhbench            # all tables
//	cmhbench E1 E7      # a subset
//
// Every experiment runs on the seeded simulator, so every table is
// deterministic and held byte for byte by the golden tests of
// internal/experiments. Wall-clock speed is measured by the repo
// benchmark (BENCHMARK.json), not here.
package main

import (
	"flag"
	"fmt"
	"os"
	"strings"

	"repro/internal/experiments"
)

func main() {
	if err := run(os.Args[1:]); err != nil {
		fmt.Fprintln(os.Stderr, "cmhbench:", err)
		os.Exit(1)
	}
}

func run(args []string) error {
	fs := flag.NewFlagSet("cmhbench", flag.ContinueOnError)
	if err := fs.Parse(args); err != nil {
		return err
	}
	only := make(map[string]bool, fs.NArg())
	known := make(map[string]bool)
	var ids []string
	for _, spec := range experiments.All() {
		known[spec.ID] = true
		ids = append(ids, spec.ID)
	}
	for _, a := range fs.Args() {
		if !known[a] {
			return fmt.Errorf("unknown experiment %q (have %s)", a, strings.Join(ids, " "))
		}
		only[a] = true
	}
	return experiments.RunAll(os.Stdout, only)
}
