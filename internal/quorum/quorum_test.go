package quorum

import (
	"testing"
	"testing/quick"

	"repro/internal/types"
)

func TestThresholdsKnownValues(t *testing.T) {
	tests := []struct {
		cfg                                          types.Config
		vote, fast, commit, certReq, cert, selection int
	}{
		// n=4, f=t=1: the paper's headline configuration.
		{types.Config{N: 4, F: 1, T: 1}, 3, 3, 3, 3, 2, 2},
		// n=7, f=2, t=1: Figure 5's configuration.
		{types.Config{N: 7, F: 2, T: 1}, 5, 6, 5, 5, 3, 3},
		// n=9, f=t=2: vanilla 5f−1.
		{types.Config{N: 9, F: 2, T: 2}, 7, 7, 6, 5, 3, 4},
		// n=14, f=t=3: vanilla 5f−1.
		{types.Config{N: 14, F: 3, T: 3}, 11, 11, 9, 7, 4, 6},
	}
	for _, tc := range tests {
		th := New(tc.cfg)
		if got := th.VoteQuorum(); got != tc.vote {
			t.Errorf("%s VoteQuorum=%d want %d", tc.cfg, got, tc.vote)
		}
		if got := th.FastQuorum(); got != tc.fast {
			t.Errorf("%s FastQuorum=%d want %d", tc.cfg, got, tc.fast)
		}
		if got := th.CommitQuorum(); got != tc.commit {
			t.Errorf("%s CommitQuorum=%d want %d", tc.cfg, got, tc.commit)
		}
		if got := th.CertRequestSet(); got != tc.certReq {
			t.Errorf("%s CertRequestSet=%d want %d", tc.cfg, got, tc.certReq)
		}
		if got := th.CertQuorum(); got != tc.cert {
			t.Errorf("%s CertQuorum=%d want %d", tc.cfg, got, tc.cert)
		}
		if got := th.SelectionQuorum(); got != tc.selection {
			t.Errorf("%s SelectionQuorum=%d want %d", tc.cfg, got, tc.selection)
		}
	}
}

func TestCommitQuorumIsCeiling(t *testing.T) {
	// CommitQuorum must equal ⌈(n+f+1)/2⌉ exactly.
	for n := 4; n <= 40; n++ {
		for f := 1; 3*f+1 <= n; f++ {
			th := New(types.Config{N: n, F: f, T: 1})
			want := (n + f + 1 + 1) / 2 // ceil((n+f+1)/2)
			if (n+f+1)%2 == 0 {
				want = (n + f + 1) / 2
			}
			if got := th.CommitQuorum(); got != want {
				t.Fatalf("n=%d f=%d CommitQuorum=%d want %d", n, f, got, want)
			}
		}
	}
}

func TestSafetyPropertiesExhaustive(t *testing.T) {
	// Every valid configuration up to f=8 satisfies every quorum
	// intersection property the correctness proof uses.
	for f := 1; f <= 8; f++ {
		for tt := 1; tt <= f; tt++ {
			min := types.MinProcesses(f, tt)
			for n := min; n <= min+6; n++ {
				cfg := types.Config{N: n, F: f, T: tt}
				if err := cfg.Validate(); err != nil {
					t.Fatalf("%s: %v", cfg, err)
				}
				th := New(cfg)
				if !th.AllSafetyProperties() {
					t.Fatalf("%s: safety property violated (QI1=%v GQI2=%v QI3=%v GQI3=%v cc=%v cf=%v ff=%v cv=%v)",
						cfg, th.QI1(), th.GQI2(), th.QI3(), th.GQI3(),
						th.CommitCommitIntersect(), th.CommitFastIntersect(),
						th.FastFastIntersect(), th.CommitVoteIntersect())
				}
			}
		}
	}
}

func TestBoundIsTight(t *testing.T) {
	// One process below the paper's bound, the generalized equivocation
	// property GQI2 — the one the selection algorithm's case (2) relies on —
	// must fail (for t ≥ 2 where 3f+2t−1 > 3f+1).
	for f := 2; f <= 8; f++ {
		for tt := 2; tt <= f; tt++ {
			n := 3*f + 2*tt - 2
			th := New(types.Config{N: n, F: f, T: tt})
			if th.GQI2() {
				t.Fatalf("f=%d t=%d: GQI2 unexpectedly holds at n=3f+2t-2=%d", f, tt, n)
			}
			th = New(types.Config{N: n + 1, F: f, T: tt})
			if !th.GQI2() {
				t.Fatalf("f=%d t=%d: GQI2 fails at the tight bound n=%d", f, tt, n+1)
			}
		}
	}
}

func TestVanillaEqualsGeneralizedAtTEqualsF(t *testing.T) {
	// QI2 (the vanilla 5f−1 property) must coincide with GQI2 when t = f.
	if err := quick.Check(func(fRaw, extra uint8) bool {
		f := int(fRaw%8) + 1
		n := types.MinProcesses(f, f) + int(extra%5)
		th := New(types.Config{N: n, F: f, T: f})
		return th.QI2() == th.GQI2() && th.SelectionQuorum() == 2*f
	}, nil); err != nil {
		t.Fatal(err)
	}
}

func TestQuorumIntersectionArithmetic(t *testing.T) {
	// Property: for any valid configuration, two fast quorums overlap in
	// more than f processes, and a commit quorum overlaps a vote quorum in
	// more than f processes — the pigeonhole facts behind Lemma A.2 and
	// Appendix A.3.
	if err := quick.Check(func(fRaw, tRaw, extra uint8) bool {
		f := int(fRaw%8) + 1
		tt := int(tRaw)%f + 1
		n := types.MinProcesses(f, tt) + int(extra%7)
		th := New(types.Config{N: n, F: f, T: tt})
		fastOverlap := 2*th.FastQuorum() - n
		commitVote := th.CommitQuorum() + th.VoteQuorum() - n
		return fastOverlap >= f+1 && commitVote >= f+1
	}, nil); err != nil {
		t.Fatal(err)
	}
}

// TestFastCommitGap: at the minimal n = 3f + 2t − 1, FastQuorum exceeds
// CommitQuorum by f − 1, for every admissible (f, t) up to n = 12. An
// AckSig counts as its sender's Ack, so at f = 1 the AckSigs that form a
// commit certificate are a fast quorum too, and a slot decides on them in
// two message delays; above f = 1 a certificate's signers stay f − 1
// short of one.
func TestFastCommitGap(t *testing.T) {
	for f := 1; 3*f+1 <= 12; f++ {
		for tt := 1; tt <= f; tt++ {
			cfg := types.Generalized(f, tt)
			if cfg.N > 12 {
				continue
			}
			if cfg.N != 3*f+2*tt-1 {
				t.Fatalf("%v: Generalized is not n = 3f + 2t − 1", cfg)
			}
			th := New(cfg)
			if gap := th.FastQuorum() - th.CommitQuorum(); gap != f-1 {
				t.Errorf("%v: FastQuorum %d − CommitQuorum %d = %d, want f − 1 = %d",
					cfg, th.FastQuorum(), th.CommitQuorum(), gap, f-1)
			}
		}
	}
}
