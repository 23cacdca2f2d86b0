package msg

import (
	"testing"

	"repro/internal/quorum"
	"repro/internal/sigcrypto"
	"repro/internal/types"
)

// makeAdoptedVote builds a valid vote record for value x adopted in view u.
func makeAdoptedVote(s sigcrypto.Scheme, x types.Value, u types.View) VoteRecord {
	var cert *ProgressCert
	if u > 1 {
		cert = sampleProgressCert(s, x, u)
	}
	return VoteRecord{
		Value: x.Clone(),
		View:  u,
		Cert:  cert,
		Tau:   s.Signer(testCfg.Leader(u)).Sign(ProposeDigest(x, u)),
	}
}

func TestVoteRecordValidity(t *testing.T) {
	s := testScheme()
	th := quorum.New(testCfg)
	ver := s.Verifier()
	x := types.Value("x")

	if !NilVote().Valid(ver, th) {
		t.Fatal("nil vote rejected")
	}
	// Nil vote with a commit certificate attached is valid (Appendix A.2:
	// certificates ride on every vote).
	withCC := NilVote()
	withCC.CC = sampleCommitCert(s, x, 1)
	if !withCC.Valid(ver, th) {
		t.Fatal("nil vote with commit certificate rejected")
	}
	// Nil vote with a bogus certificate is invalid.
	withBadCC := NilVote()
	withBadCC.CC = &CommitCert{Value: x, View: 1}
	if withBadCC.Valid(ver, th) {
		t.Fatal("nil vote with bogus certificate accepted")
	}
	// Nil vote must not smuggle adopted fields.
	smuggle := NilVote()
	smuggle.Value = x
	if smuggle.Valid(ver, th) {
		t.Fatal("nil vote with non-zero value accepted")
	}

	// Adopted in view 1: τ from leader(1), no progress certificate.
	v1 := makeAdoptedVote(s, x, 1)
	if !v1.Valid(ver, th) {
		t.Fatal("view-1 vote rejected")
	}
	// Adopted in view 2: requires a valid progress certificate.
	v2 := makeAdoptedVote(s, x, 2)
	if !v2.Valid(ver, th) {
		t.Fatal("view-2 vote rejected")
	}
	noCert := v2.Clone()
	noCert.Cert = nil
	if noCert.Valid(ver, th) {
		t.Fatal("view-2 vote without certificate accepted")
	}
	// τ signed by the wrong process.
	wrongSigner := v1.Clone()
	wrongSigner.Tau = s.Signer(0).Sign(ProposeDigest(x, 1))
	if wrongSigner.Valid(ver, th) {
		t.Fatal("τ from non-leader accepted")
	}
	// τ over the wrong value.
	wrongValue := v1.Clone()
	wrongValue.Value = types.Value("other")
	if wrongValue.Valid(ver, th) {
		t.Fatal("τ over different value accepted")
	}
}

func TestSignedVoteValidity(t *testing.T) {
	s := testScheme()
	th := quorum.New(testCfg)
	ver := s.Verifier()
	x := types.Value("x")
	newView := types.View(3)

	vr := makeAdoptedVote(s, x, 1)
	sv := SignedVote{Voter: 2, Vote: vr, Phi: s.Signer(2).Sign(VoteDigest(vr, newView))}
	if !sv.Valid(ver, th, newView) {
		t.Fatal("valid signed vote rejected")
	}
	// Signature for a different new view must not transfer.
	if sv.Valid(ver, th, newView+1) {
		t.Fatal("vote signature replayed across views")
	}
	// φ by a different process than the claimed voter.
	forged := sv.Clone()
	forged.Phi = s.Signer(1).Sign(VoteDigest(vr, newView))
	if forged.Valid(ver, th, newView) {
		t.Fatal("vote with mismatched signer accepted")
	}
	// Adopted view must be below the new view.
	future := makeAdoptedVote(s, x, 3)
	svFuture := SignedVote{Voter: 2, Vote: future, Phi: s.Signer(2).Sign(VoteDigest(future, newView))}
	if svFuture.Valid(ver, th, newView) {
		t.Fatal("vote adopted in the new view itself accepted")
	}
	// Commit certificate from a future view must be rejected too.
	withCC := vr.Clone()
	withCC.CC = sampleCommitCert(s, x, newView)
	svCC := SignedVote{Voter: 2, Vote: withCC, Phi: s.Signer(2).Sign(VoteDigest(withCC, newView))}
	if svCC.Valid(ver, th, newView) {
		t.Fatal("vote with future commit certificate accepted")
	}
	// Out-of-range voter.
	oob := sv.Clone()
	oob.Voter = 99
	if oob.Valid(ver, th, newView) {
		t.Fatal("out-of-range voter accepted")
	}
}

func TestVoteRecordMaxView(t *testing.T) {
	s := testScheme()
	x := types.Value("x")
	if got := NilVote().MaxView(); got != types.NoView {
		t.Fatalf("nil vote MaxView = %s", got)
	}
	vr := makeAdoptedVote(s, x, 2)
	if got := vr.MaxView(); got != 2 {
		t.Fatalf("MaxView = %s, want v2", got)
	}
	vr.CC = sampleCommitCert(s, x, 5)
	if got := vr.MaxView(); got != 5 {
		t.Fatalf("MaxView with cc = %s, want v5", got)
	}
	nilWithCC := NilVote()
	nilWithCC.CC = sampleCommitCert(s, x, 4)
	if got := nilWithCC.MaxView(); got != 4 {
		t.Fatalf("nil vote with cc MaxView = %s, want v4", got)
	}
}

// TestEquivocationProof runs under the paper's leader map and under a
// shifted one (a consensus group g ≥ 1): the culprit and the signer check
// follow the configuration, so a proof against the group's leader is not a
// proof under another schedule.
func TestEquivocationProof(t *testing.T) {
	s := testScheme()
	ver := s.Verifier()
	for _, cfg := range []types.Config{testCfg, testCfg.WithLeaderShift(1)} {
		leader := cfg.Leader(2)
		proof := EquivocationProof{
			View:   2,
			Value1: types.Value("a"),
			Tau1:   s.Signer(leader).Sign(ProposeDigest(types.Value("a"), 2)),
			Value2: types.Value("b"),
			Tau2:   s.Signer(leader).Sign(ProposeDigest(types.Value("b"), 2)),
		}
		if !proof.Verify(ver, cfg) {
			t.Fatal("genuine equivocation proof rejected")
		}
		if proof.Culprit(cfg) != leader {
			t.Fatalf("culprit = %s, want %s", proof.Culprit(cfg), leader)
		}
		if proof.Verify(ver, cfg.WithLeaderShift(2)) {
			t.Fatal("proof accepted under another leader schedule")
		}
		same := proof
		same.Value2 = same.Value1
		if same.Verify(ver, cfg) {
			t.Fatal("proof with equal values accepted")
		}
		wrong := proof
		wrong.Tau2 = s.Signer(0).Sign(ProposeDigest(types.Value("b"), 2))
		if wrong.Verify(ver, cfg) {
			t.Fatal("proof with non-leader signature accepted")
		}
	}
}

func TestVoteRecordCanonicalDigest(t *testing.T) {
	// The vote digest must be identical before and after a wire round trip,
	// or signatures would break in transit.
	s := testScheme()
	x := types.Value("x")
	vr := makeAdoptedVote(s, x, 2)
	vr.CC = sampleCommitCert(s, x, 1)
	m := &Vote{View: 3, SV: SignedVote{Voter: 1, Vote: vr, Phi: s.Signer(1).Sign(VoteDigest(vr, 3))}}
	decodedAny, err := Decode(Encode(m))
	if err != nil {
		t.Fatal(err)
	}
	decoded, ok := decodedAny.(*Vote)
	if !ok {
		t.Fatalf("decoded to %T", decodedAny)
	}
	if string(VoteDigest(decoded.SV.Vote, 3)) != string(VoteDigest(vr, 3)) {
		t.Fatal("vote digest changed across the wire")
	}
	th := quorum.New(testCfg)
	if !decoded.SV.Valid(s.Verifier(), th, 3) {
		t.Fatal("signed vote invalid after round trip")
	}
}
