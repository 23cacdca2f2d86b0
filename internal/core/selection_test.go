package core_test

import (
	"errors"
	"testing"

	"repro/internal/core"
	"repro/internal/msg"
	"repro/internal/quorum"
	"repro/internal/sigcrypto"
	"repro/internal/types"
)

// fixture bundles a scheme and thresholds for hand-built vote sets.
type fixture struct {
	cfg    types.Config
	th     quorum.Thresholds
	scheme sigcrypto.Scheme
}

func newFixture(cfg types.Config, seed int64) *fixture {
	return &fixture{cfg: cfg, th: quorum.New(cfg), scheme: sigcrypto.NewHMAC(cfg.N, seed)}
}

func (f *fixture) verifier() sigcrypto.Verifier { return f.scheme.Verifier() }

// progressCert builds a valid progress certificate for (x, v).
func (f *fixture) progressCert(x types.Value, v types.View) *msg.ProgressCert {
	d := msg.CertAckDigest(x, v)
	sigs := make([]sigcrypto.Signature, 0, f.th.CertQuorum())
	for i := 0; i < f.th.CertQuorum(); i++ {
		sigs = append(sigs, f.scheme.Signer(types.ProcessID(i)).Sign(d))
	}
	return &msg.ProgressCert{Value: x.Clone(), View: v, Sigs: sigs}
}

// commitCert builds a valid commit certificate for (x, v).
func (f *fixture) commitCert(x types.Value, v types.View) *msg.CommitCert {
	d := msg.AckDigest(x, v)
	sigs := make([]sigcrypto.Signature, 0, f.th.CommitQuorum())
	for i := 0; i < f.th.CommitQuorum(); i++ {
		sigs = append(sigs, f.scheme.Signer(types.ProcessID(i)).Sign(d))
	}
	return &msg.CommitCert{Value: x.Clone(), View: v, Sigs: sigs}
}

// adopted builds a valid adopted vote record for (x, u).
func (f *fixture) adopted(x types.Value, u types.View) msg.VoteRecord {
	var cert *msg.ProgressCert
	if u > 1 {
		cert = f.progressCert(x, u)
	}
	leader := f.cfg.Leader(u)
	return msg.VoteRecord{
		Value: x.Clone(),
		View:  u,
		Cert:  cert,
		Tau:   f.scheme.Signer(leader).Sign(msg.ProposeDigest(x, u)),
	}
}

// signed wraps a vote record into a signed vote for new view v.
func (f *fixture) signed(voter types.ProcessID, vr msg.VoteRecord, v types.View) msg.SignedVote {
	return msg.SignedVote{
		Voter: voter,
		Vote:  vr,
		Phi:   f.scheme.Signer(voter).Sign(msg.VoteDigest(vr, v)),
	}
}

func (f *fixture) nilVotes(v types.View, voters ...types.ProcessID) []msg.SignedVote {
	out := make([]msg.SignedVote, 0, len(voters))
	for _, p := range voters {
		out = append(out, f.signed(p, msg.NilVote(), v))
	}
	return out
}

func TestSelectNeedsVoteQuorum(t *testing.T) {
	f := newFixture(types.Generalized(1, 1), 1) // n=4, quorum 3
	votes := f.nilVotes(2, 0, 1)
	if _, err := core.Select(f.th, f.verifier(), 2, votes); !errors.Is(err, core.ErrNeedMoreVotes) {
		t.Fatalf("expected ErrNeedMoreVotes, got %v", err)
	}
}

func TestSelectAllNilIsFree(t *testing.T) {
	f := newFixture(types.Generalized(1, 1), 2)
	votes := f.nilVotes(2, 0, 1, 3)
	out, err := core.Select(f.th, f.verifier(), 2, votes)
	if err != nil {
		t.Fatal(err)
	}
	if !out.Free {
		t.Fatalf("expected free outcome, got %+v", out)
	}
	if out.Culprit != types.NoProcess {
		t.Fatalf("no culprit expected, got %s", out.Culprit)
	}
}

func TestSelectUniqueValueAtMaxView(t *testing.T) {
	f := newFixture(types.Generalized(1, 1), 3)
	x := types.Value("x")
	votes := []msg.SignedVote{
		f.signed(0, f.adopted(x, 1), 2),
		f.signed(2, msg.NilVote(), 2),
		f.signed(3, msg.NilVote(), 2),
	}
	out, err := core.Select(f.th, f.verifier(), 2, votes)
	if err != nil {
		t.Fatal(err)
	}
	if out.Free || !out.Value.Equal(x) {
		t.Fatalf("expected constrained to x, got %+v", out)
	}
	if out.MaxView != 1 {
		t.Fatalf("w=%s, want v1", out.MaxView)
	}
}

func TestSelectHigherViewWins(t *testing.T) {
	// A single vote at a higher view dominates many votes at lower views
	// (Lemma 3.2: nothing can be decided between w and v).
	f := newFixture(types.Vanilla(2), 4) // n=9
	old := types.Value("old")
	newer := types.Value("new")
	votes := []msg.SignedVote{
		f.signed(0, f.adopted(old, 1), 4),
		f.signed(1, f.adopted(old, 1), 4),
		f.signed(2, f.adopted(old, 1), 4),
		f.signed(3, f.adopted(newer, 3), 4),
		f.signed(4, msg.NilVote(), 4),
		f.signed(5, msg.NilVote(), 4),
		f.signed(6, msg.NilVote(), 4),
	}
	out, err := core.Select(f.th, f.verifier(), 4, votes)
	if err != nil {
		t.Fatal(err)
	}
	if out.Free || !out.Value.Equal(newer) {
		t.Fatalf("expected newer value, got %+v", out)
	}
}

func TestSelectEquivocationWithSelectionQuorum(t *testing.T) {
	// Two values at view 1 (equivocating leader(1)); 2f votes for x from
	// processes other than leader(1) force x (vanilla case 1 / generalized
	// case 2).
	f := newFixture(types.Vanilla(2), 5) // n=9, f=t=2, selection quorum 4
	x, y := types.Value("x"), types.Value("y")
	culprit := f.cfg.Leader(1) // process 1
	votes := []msg.SignedVote{
		f.signed(0, f.adopted(x, 1), 2),
		f.signed(2, f.adopted(x, 1), 2),
		f.signed(3, f.adopted(x, 1), 2),
		f.signed(4, f.adopted(x, 1), 2),
		f.signed(5, f.adopted(y, 1), 2),
		f.signed(6, msg.NilVote(), 2),
		f.signed(7, msg.NilVote(), 2),
	}
	out, err := core.Select(f.th, f.verifier(), 2, votes)
	if err != nil {
		t.Fatal(err)
	}
	if out.Free || !out.Value.Equal(x) {
		t.Fatalf("expected x, got %+v", out)
	}
	if out.Culprit != culprit {
		t.Fatalf("culprit %s, want %s", out.Culprit, culprit)
	}
}

func TestSelectEquivocationWithoutQuorumIsFree(t *testing.T) {
	f := newFixture(types.Vanilla(2), 6) // selection quorum 4
	x, y := types.Value("x"), types.Value("y")
	votes := []msg.SignedVote{
		f.signed(0, f.adopted(x, 1), 2),
		f.signed(2, f.adopted(x, 1), 2),
		f.signed(3, f.adopted(y, 1), 2),
		f.signed(4, f.adopted(y, 1), 2),
		f.signed(5, msg.NilVote(), 2),
		f.signed(6, msg.NilVote(), 2),
		f.signed(7, msg.NilVote(), 2),
	}
	out, err := core.Select(f.th, f.verifier(), 2, votes)
	if err != nil {
		t.Fatal(err)
	}
	if !out.Free {
		t.Fatalf("expected free outcome, got %+v", out)
	}
}

func TestSelectEquivocationNeedsQuorumWithoutCulprit(t *testing.T) {
	// The culprit's own vote counts toward n−f arrival but not toward
	// votes′: with exactly n−f votes including the culprit's, the leader
	// must wait for one more vote (Section 3.2).
	f := newFixture(types.Vanilla(2), 7) // n=9, n−f=7
	x, y := types.Value("x"), types.Value("y")
	culprit := f.cfg.Leader(1) // process 1
	votes := []msg.SignedVote{
		f.signed(culprit, f.adopted(x, 1), 2), // the equivocator's own vote
		f.signed(0, f.adopted(x, 1), 2),
		f.signed(2, f.adopted(x, 1), 2),
		f.signed(3, f.adopted(x, 1), 2),
		f.signed(4, f.adopted(x, 1), 2),
		f.signed(5, f.adopted(y, 1), 2),
		f.signed(6, msg.NilVote(), 2),
	}
	if _, err := core.Select(f.th, f.verifier(), 2, votes); !errors.Is(err, core.ErrNeedMoreVotes) {
		t.Fatalf("expected ErrNeedMoreVotes with culprit vote in quorum, got %v", err)
	}
	// One more vote completes votes′.
	votes = append(votes, f.signed(7, msg.NilVote(), 2))
	out, err := core.Select(f.th, f.verifier(), 2, votes)
	if err != nil {
		t.Fatal(err)
	}
	if out.Free || !out.Value.Equal(x) {
		t.Fatalf("expected x after extra vote, got %+v", out)
	}
}

// TestSelectUnderShiftedLeaderSchedule: with the leader schedule offset (a
// consensus group g ≥ 1), vote validity and the equivocation culprit both
// follow the configuration's map. Process 4 leads view 1 here; a check left
// on the paper's map would reject every adopted vote (τ is not process 1's)
// or blame process 1.
func TestSelectUnderShiftedLeaderSchedule(t *testing.T) {
	f := newFixture(types.Vanilla(2).WithLeaderShift(3), 7) // n=9, n−f=7
	culprit := types.ProcessID(4)
	if f.cfg.Leader(1) != culprit {
		t.Fatalf("view-1 leader %s, want %s", f.cfg.Leader(1), culprit)
	}
	x, y := types.Value("x"), types.Value("y")
	votes := []msg.SignedVote{
		f.signed(culprit, f.adopted(x, 1), 2), // the equivocator's own vote
		f.signed(0, f.adopted(x, 1), 2),
		f.signed(1, f.adopted(x, 1), 2),
		f.signed(2, f.adopted(x, 1), 2),
		f.signed(3, f.adopted(x, 1), 2),
		f.signed(5, f.adopted(y, 1), 2),
		f.signed(6, msg.NilVote(), 2),
	}
	if _, err := core.Select(f.th, f.verifier(), 2, votes); !errors.Is(err, core.ErrNeedMoreVotes) {
		t.Fatalf("expected ErrNeedMoreVotes with the culprit's vote in the quorum, got %v", err)
	}
	votes = append(votes, f.signed(7, msg.NilVote(), 2))
	out, err := core.Select(f.th, f.verifier(), 2, votes)
	if err != nil {
		t.Fatal(err)
	}
	if out.Free || !out.Value.Equal(x) || out.Culprit != culprit {
		t.Fatalf("expected x with culprit %s, got %+v", culprit, out)
	}
	// A vote whose τ is signed by the paper's view-1 leader is not valid.
	forged := msg.VoteRecord{Value: x, View: 1, Tau: f.scheme.Signer(1).Sign(msg.ProposeDigest(x, 1))}
	if forged.Valid(f.verifier(), f.th) {
		t.Fatal("vote adopted from a non-leader's proposal accepted")
	}
}

func TestSelectCommitCertificateWins(t *testing.T) {
	// Appendix A.2 case 1: under equivocation, a commit certificate for y
	// in view w beats f+t adopted votes for x.
	f := newFixture(types.Generalized(2, 1), 8) // n=7, selection quorum 3
	x, y := types.Value("x"), types.Value("y")
	ccY := f.commitCert(y, 1)
	withCC := msg.NilVote()
	withCC.CC = ccY
	votes := []msg.SignedVote{
		f.signed(0, f.adopted(x, 1), 2),
		f.signed(2, f.adopted(x, 1), 2),
		f.signed(3, f.adopted(x, 1), 2),
		f.signed(4, withCC, 2),
		f.signed(5, msg.NilVote(), 2),
	}
	out, err := core.Select(f.th, f.verifier(), 2, votes)
	if err != nil {
		t.Fatal(err)
	}
	if out.Free || !out.Value.Equal(y) {
		t.Fatalf("commit certificate must win: got %+v", out)
	}
}

func TestSelectCommitCertificateOnNilVoteRaisesView(t *testing.T) {
	// A commit certificate attached to a nil vote contributes its view to
	// w: a decided value in view 2 must dominate adopted votes from view 1.
	f := newFixture(types.Generalized(2, 1), 9) // n=7
	x, y := types.Value("x"), types.Value("y")
	withCC := msg.NilVote()
	withCC.CC = f.commitCert(y, 2)
	votes := []msg.SignedVote{
		f.signed(0, f.adopted(x, 1), 3),
		f.signed(1, f.adopted(x, 1), 3),
		f.signed(3, f.adopted(x, 1), 3),
		f.signed(4, withCC, 3),
		f.signed(5, msg.NilVote(), 3),
	}
	out, err := core.Select(f.th, f.verifier(), 3, votes)
	if err != nil {
		t.Fatal(err)
	}
	if out.Free || !out.Value.Equal(y) {
		t.Fatalf("certificate view must dominate: got %+v", out)
	}
	if out.MaxView != 2 {
		t.Fatalf("w=%s, want v2", out.MaxView)
	}
}

func TestSelectIgnoresInvalidAndDuplicateVotes(t *testing.T) {
	f := newFixture(types.Generalized(1, 1), 10) // n=4, quorum 3
	x := types.Value("x")
	good := f.signed(0, f.adopted(x, 1), 2)
	// Invalid: signature for the wrong view.
	badPhi := msg.SignedVote{
		Voter: 2,
		Vote:  msg.NilVote(),
		Phi:   f.scheme.Signer(2).Sign(msg.VoteDigest(msg.NilVote(), 5)),
	}
	// Duplicate voter.
	dup := f.signed(0, msg.NilVote(), 2)
	votes := []msg.SignedVote{good, badPhi, dup, f.signed(3, msg.NilVote(), 2)}
	if _, err := core.Select(f.th, f.verifier(), 2, votes); !errors.Is(err, core.ErrNeedMoreVotes) {
		t.Fatalf("invalid/duplicate votes must not count, got %v", err)
	}
}

func TestVerifyCertRequest(t *testing.T) {
	f := newFixture(types.Generalized(1, 1), 11)
	x := types.Value("x")
	votes := []msg.SignedVote{
		f.signed(0, f.adopted(x, 1), 2),
		f.signed(2, msg.NilVote(), 2),
		f.signed(3, msg.NilVote(), 2),
	}
	// Constrained outcome: X must match.
	okReq := &msg.CertRequest{View: 2, X: x, Votes: votes}
	if err := core.VerifyCertRequest(f.th, f.verifier(), okReq); err != nil {
		t.Fatalf("valid request rejected: %v", err)
	}
	badReq := &msg.CertRequest{View: 2, X: types.Value("other"), Votes: votes}
	if err := core.VerifyCertRequest(f.th, f.verifier(), badReq); err == nil {
		t.Fatal("request contradicting selection accepted")
	}
	// Free outcome: any X passes.
	freeReq := &msg.CertRequest{View: 2, X: types.Value("anything"), Votes: f.nilVotes(2, 0, 2, 3)}
	if err := core.VerifyCertRequest(f.th, f.verifier(), freeReq); err != nil {
		t.Fatalf("free request rejected: %v", err)
	}
	// Insufficient votes.
	thinReq := &msg.CertRequest{View: 2, X: x, Votes: votes[:2]}
	if err := core.VerifyCertRequest(f.th, f.verifier(), thinReq); !errors.Is(err, core.ErrNeedMoreVotes) {
		t.Fatalf("thin request accepted: %v", err)
	}
}
