package main

import "testing"

func TestRunSubset(t *testing.T) {
	if err := run([]string{"E1"}); err != nil {
		t.Fatalf("run(E1): %v", err)
	}
}

func TestRunUnknownExperiment(t *testing.T) {
	if err := run([]string{"E99"}); err == nil {
		t.Fatal("unknown experiment accepted")
	}
}
