package main

import (
	"bytes"
	"fmt"
	"io"
	"os"
	"strconv"
	"strings"
	"testing"
)

// TestExperimentsMatchGolden pins the full default output — every figure's
// per-Δ message counts, the certificate sizes, the lower-bound executions'
// decisions — byte for byte: the experiments are deterministic, and a change
// to the simulator or to a protocol that moves any number shows up here.
// Before the bytes, it checks the first step against the paper's arithmetic
// (Section 3.1, Appendix A.1): leader(1) proposes once and acks its own
// proposal once, so in the first message delay of the fast path (F1a, n=4)
// and of the slow path (F5, n=7) each of propose, ack and acksig reaches
// exactly the n − 1 other processes.
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
	for _, fig := range []struct {
		id string
		n  int
	}{{"F1a", 4}, {"F5", 7}} {
		counts := stepCounts(got.String(), fig.id, fig.n, "1Δ")
		for _, kind := range []string{"propose", "ack", "acksig"} {
			if counts[kind] != fig.n-1 {
				t.Errorf("%s: 1Δ %s count %d, want n − 1 = %d", fig.id, kind, counts[kind], fig.n-1)
			}
		}
	}
	// F1b (n = 4, f = 1): the view-2 leader asks 2f processes whose votes
	// it holds for a CertAck. Having voted in this view, each is alive and
	// answers: 2f CertReq and 2f CertAck frames.
	for _, c := range []struct{ step, kind string }{{"13Δ", "certreq"}, {"14Δ", "certack"}} {
		if n := stepCounts(got.String(), "F1b", 4, c.step)[c.kind]; n != 2 {
			t.Errorf("F1b: %s %s count %d, want 2f = 2", c.step, c.kind, n)
		}
	}
	if t.Failed() {
		return
	}
	if !bytes.Equal(got.Bytes(), want) {
		t.Fatalf("output differs from testdata/experiments.golden:\n%s", got.String())
	}
}

// stepCounts parses the per-Δ message table of figure id, run with n
// processes, out of the experiments' output and returns the counts of one
// time step by message kind.
func stepCounts(out, id string, n int, step string) map[string]int {
	counts := make(map[string]int)
	in := false
	for _, line := range strings.Split(out, "\n") {
		if strings.HasPrefix(line, "== ") {
			in = strings.HasPrefix(line, "== "+id+":") && strings.Contains(line, fmt.Sprintf("(n=%d,", n))
			continue
		}
		if f := strings.Fields(line); in && len(f) == 3 && f[0] == step {
			if c, err := strconv.Atoi(f[2]); err == nil {
				counts[f[1]] = c
			}
		}
	}
	return counts
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
