package main

import (
	"bytes"
	"io"
	"os"
	"testing"
)

// TestExperimentsMatchGolden pins the full default output — every figure's
// per-Δ message counts, the certificate sizes, the lower-bound executions'
// decisions — byte for byte: the experiments are deterministic, and a change
// to the simulator or to a protocol that moves any number shows up here.
// After an intended change, regenerate the file with
//
//	go run ./cmd/fastbft-bench > cmd/fastbft-bench/testdata/experiments.golden
func TestExperimentsMatchGolden(t *testing.T) {
	want, err := os.ReadFile("testdata/experiments.golden")
	if err != nil {
		t.Fatal(err)
	}
	var got bytes.Buffer
	if err := run(nil, &got); err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(got.Bytes(), want) {
		t.Fatalf("output differs from testdata/experiments.golden:\n%s", got.String())
	}
}

func TestListFlag(t *testing.T) {
	if err := run([]string{"-list"}, io.Discard); err != nil {
		t.Fatal(err)
	}
}

func TestSingleExperiment(t *testing.T) {
	if err := run([]string{"-experiment", "f1a"}, io.Discard); err != nil {
		t.Fatal(err)
	}
}

func TestUnknownExperiment(t *testing.T) {
	if err := run([]string{"-experiment", "nope"}, io.Discard); err == nil {
		t.Fatal("expected error for unknown experiment")
	}
}

func TestExperimentIDsAreUnique(t *testing.T) {
	seen := map[string]bool{}
	for _, e := range experiments() {
		if seen[e.id] {
			t.Fatalf("duplicate experiment id %s", e.id)
		}
		seen[e.id] = true
		if e.run == nil {
			t.Fatalf("experiment %s has no runner", e.id)
		}
	}
}
