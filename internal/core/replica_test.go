package core_test

import (
	"testing"

	"repro/internal/core"
	"repro/internal/msg"
	"repro/internal/types"
)

// newReplica builds a started replica (view 1 entered) for process id.
func (f *fixture) newReplica(t *testing.T, id types.ProcessID, input types.Value) *core.Replica {
	t.Helper()
	r, err := core.NewReplica(f.cfg, id, f.scheme.Signer(id), f.verifier(), input)
	if err != nil {
		t.Fatal(err)
	}
	r.EnterView(1)
	return r
}

// countKind counts actions carrying messages of one kind.
func countKind(actions []core.Action, k msg.Kind) int {
	n := 0
	for _, a := range actions {
		switch act := a.(type) {
		case core.SendAction:
			if act.Msg.Kind() == k {
				n++
			}
		case core.BroadcastAction:
			if act.Msg.Kind() == k {
				n++
			}
		}
	}
	return n
}

func decisions(actions []core.Action) []types.Decision {
	var out []types.Decision
	for _, a := range actions {
		if d, ok := a.(core.DecideAction); ok {
			out = append(out, d.Decision)
		}
	}
	return out
}

func TestNewReplicaRejectsInvalidConfig(t *testing.T) {
	f := newFixture(types.Generalized(1, 1), 20)
	if _, err := core.NewReplica(types.Config{N: 3, F: 1, T: 1}, 0, f.scheme.Signer(0), f.verifier(), nil); err == nil {
		t.Fatal("expected config error")
	}
	if _, err := core.NewReplica(f.cfg, 99, f.scheme.Signer(0), f.verifier(), nil); err == nil {
		t.Fatal("expected id error")
	}
}

func TestLeaderProposesOwnInputInViewOne(t *testing.T) {
	f := newFixture(types.Generalized(1, 1), 21)
	leader := f.cfg.Leader(1)
	r, err := core.NewReplica(f.cfg, leader, f.scheme.Signer(leader), f.verifier(), types.Value("mine"))
	if err != nil {
		t.Fatal(err)
	}
	actions := r.EnterView(1)
	if countKind(actions, msg.KindPropose) != 1 {
		t.Fatal("view-1 leader must propose on entering view 1")
	}
	// The leader adopts and acknowledges its own proposal.
	if countKind(actions, msg.KindAck) != 1 || countKind(actions, msg.KindAckSig) != 1 {
		t.Fatal("leader must ack its own proposal")
	}
	vote := r.CurrentVote()
	if vote.Nil || !vote.Value.Equal(types.Value("mine")) || vote.View != 1 {
		t.Fatalf("leader vote not adopted: %+v", vote)
	}
}

func TestReplicaAcksValidProposalOnce(t *testing.T) {
	f := newFixture(types.Generalized(1, 1), 22)
	leader := f.cfg.Leader(1)
	var follower types.ProcessID
	for i := 0; i < f.cfg.N; i++ {
		if types.ProcessID(i) != leader {
			follower = types.ProcessID(i)
			break
		}
	}
	r := f.newReplica(t, follower, types.Value("other"))
	x := types.Value("x")
	prop := &msg.Propose{View: 1, X: x, Tau: f.scheme.Signer(leader).Sign(msg.ProposeDigest(x, 1))}
	actions := r.Deliver(leader, prop)
	if countKind(actions, msg.KindAck) != 1 {
		t.Fatal("valid proposal must be acknowledged")
	}
	// A second proposal in the same view — even identical — is not re-acked.
	if countKind(r.Deliver(leader, prop), msg.KindAck) != 0 {
		t.Fatal("second proposal acknowledged")
	}
	// An equivocating second value is ignored too.
	y := types.Value("y")
	prop2 := &msg.Propose{View: 1, X: y, Tau: f.scheme.Signer(leader).Sign(msg.ProposeDigest(y, 1))}
	if countKind(r.Deliver(leader, prop2), msg.KindAck) != 0 {
		t.Fatal("equivocating proposal acknowledged")
	}
}

func TestReplicaRejectsForgedProposals(t *testing.T) {
	f := newFixture(types.Generalized(1, 1), 23)
	leader := f.cfg.Leader(1)
	var follower, outsider types.ProcessID
	for i := 0; i < f.cfg.N; i++ {
		pid := types.ProcessID(i)
		if pid == leader {
			continue
		}
		if follower == 0 && pid != 0 {
			follower = pid
			continue
		}
		outsider = pid
	}
	r := f.newReplica(t, follower, nil)
	x := types.Value("x")

	// τ signed by a non-leader.
	forged := &msg.Propose{View: 1, X: x, Tau: f.scheme.Signer(outsider).Sign(msg.ProposeDigest(x, 1))}
	if countKind(r.Deliver(outsider, forged), msg.KindAck) != 0 {
		t.Fatal("proposal with non-leader τ acknowledged")
	}
	// Correct τ but sent by the wrong process (replay by another channel).
	replay := &msg.Propose{View: 1, X: x, Tau: f.scheme.Signer(leader).Sign(msg.ProposeDigest(x, 1))}
	if countKind(r.Deliver(outsider, replay), msg.KindAck) != 0 {
		t.Fatal("proposal relayed by non-leader acknowledged")
	}
	// View-2 proposal without a progress certificate.
	r2 := f.newReplica(t, follower, nil)
	r2.EnterView(2)
	leader2 := f.cfg.Leader(2)
	noCert := &msg.Propose{View: 2, X: x, Tau: f.scheme.Signer(leader2).Sign(msg.ProposeDigest(x, 2))}
	if countKind(r2.Deliver(leader2, noCert), msg.KindAck) != 0 {
		t.Fatal("view-2 proposal without certificate acknowledged")
	}
	// View-2 proposal with a certificate for a different value.
	wrongCert := f.progressCert(types.Value("other"), 2)
	mismatch := &msg.Propose{View: 2, X: x, Cert: wrongCert, Tau: f.scheme.Signer(leader2).Sign(msg.ProposeDigest(x, 2))}
	if countKind(r2.Deliver(leader2, mismatch), msg.KindAck) != 0 {
		t.Fatal("view-2 proposal with mismatched certificate acknowledged")
	}
	// View-2 proposal with a valid certificate is accepted.
	okCert := f.progressCert(x, 2)
	good := &msg.Propose{View: 2, X: x, Cert: okCert, Tau: f.scheme.Signer(leader2).Sign(msg.ProposeDigest(x, 2))}
	if countKind(r2.Deliver(leader2, good), msg.KindAck) != 1 {
		t.Fatal("valid view-2 proposal rejected")
	}
}

func TestFastDecisionRequiresFastQuorum(t *testing.T) {
	f := newFixture(types.Generalized(2, 1), 24) // n=7, fast quorum 6
	r := f.newReplica(t, 0, nil)
	x := types.Value("x")
	var decided []types.Decision
	for i := 1; i <= 5; i++ {
		decided = append(decided, decisions(r.Deliver(types.ProcessID(i), &msg.Ack{View: 1, X: x}))...)
	}
	if len(decided) != 0 {
		t.Fatal("decided below the fast quorum")
	}
	// Duplicate acks must not help.
	for i := 1; i <= 5; i++ {
		decided = append(decided, decisions(r.Deliver(types.ProcessID(i), &msg.Ack{View: 1, X: x}))...)
	}
	if len(decided) != 0 {
		t.Fatal("duplicate acks counted twice")
	}
	decided = append(decided, decisions(r.Deliver(6, &msg.Ack{View: 1, X: x}))...)
	if len(decided) != 1 {
		t.Fatalf("expected decision at fast quorum, got %d", len(decided))
	}
	if decided[0].Path != types.FastPath || !decided[0].Value.Equal(x) {
		t.Fatalf("unexpected decision %+v", decided[0])
	}
	// At most one decision per process.
	if len(decisions(r.Deliver(0, &msg.Ack{View: 1, X: x}))) != 0 {
		t.Fatal("second decision emitted")
	}
}

func TestSlowPathCommitAssembly(t *testing.T) {
	f := newFixture(types.Generalized(2, 1), 25) // n=7, commit quorum 5
	r := f.newReplica(t, 0, nil)
	x := types.Value("x")
	d := msg.AckDigest(x, 1)
	var commits int
	for i := 1; i <= 5; i++ {
		pid := types.ProcessID(i)
		acts := r.Deliver(pid, &msg.AckSig{View: 1, X: x, Phi: f.scheme.Signer(pid).Sign(d)})
		commits += countKind(acts, msg.KindCommit)
	}
	if commits != 1 {
		t.Fatalf("expected exactly one Commit broadcast, got %d", commits)
	}
	// Forged ack signatures must not count.
	r2 := f.newReplica(t, 0, nil)
	for i := 1; i <= 5; i++ {
		pid := types.ProcessID(i)
		forged := &msg.AckSig{View: 1, X: x, Phi: f.scheme.Signer(0).Sign(d)}
		if countKind(r2.Deliver(pid, forged), msg.KindCommit) != 0 {
			t.Fatal("forged ack signature produced a commit")
		}
	}
}

func TestCommitMessagesDecideSlow(t *testing.T) {
	f := newFixture(types.Generalized(2, 1), 26) // n=7, commit quorum 5
	r := f.newReplica(t, 0, nil)
	x := types.Value("x")
	cc := f.commitCert(x, 1)
	var decided []types.Decision
	for i := 1; i <= 5; i++ {
		pid := types.ProcessID(i)
		decided = append(decided, decisions(r.Deliver(pid, &msg.Commit{View: 1, X: x, CC: *cc}))...)
	}
	if len(decided) != 1 || decided[0].Path != types.SlowPath {
		t.Fatalf("expected one slow decision, got %v", decided)
	}
	// A Commit whose certificate does not match its fields is dropped.
	r2 := f.newReplica(t, 0, nil)
	bad := &msg.Commit{View: 1, X: types.Value("other"), CC: *cc}
	for i := 1; i <= 5; i++ {
		if len(decisions(r2.Deliver(types.ProcessID(i), bad))) != 0 {
			t.Fatal("mismatched commit decided")
		}
	}
}

func TestViewsNeverDecrease(t *testing.T) {
	f := newFixture(types.Generalized(1, 1), 27)
	r := f.newReplica(t, 0, nil)
	r.EnterView(5)
	if r.View() != 5 {
		t.Fatalf("view %s, want v5", r.View())
	}
	r.EnterView(3)
	if r.View() != 5 {
		t.Fatalf("view decreased to %s", r.View())
	}
	r.EnterView(5)
	if r.View() != 5 {
		t.Fatal("re-entering the same view must be a no-op")
	}
}

func TestFutureProposalBufferedUntilViewEntry(t *testing.T) {
	f := newFixture(types.Generalized(1, 1), 28)
	r := f.newReplica(t, 0, nil)
	x := types.Value("x")
	leader2 := f.cfg.Leader(2)
	prop := &msg.Propose{View: 2, X: x, Cert: f.progressCert(x, 2), Tau: f.scheme.Signer(leader2).Sign(msg.ProposeDigest(x, 2))}
	if countKind(r.Deliver(leader2, prop), msg.KindAck) != 0 {
		t.Fatal("future-view proposal processed early")
	}
	actions := r.EnterView(2)
	if countKind(actions, msg.KindAck) != 1 {
		t.Fatal("buffered proposal not replayed on view entry")
	}
}

func TestVoteSentToNewLeaderCarriesAdoptedState(t *testing.T) {
	f := newFixture(types.Generalized(1, 1), 29)
	leader1 := f.cfg.Leader(1)
	var follower types.ProcessID
	for i := 0; i < f.cfg.N; i++ {
		if pid := types.ProcessID(i); pid != leader1 && pid != f.cfg.Leader(2) {
			follower = pid
			break
		}
	}
	r := f.newReplica(t, follower, nil)
	x := types.Value("x")
	prop := &msg.Propose{View: 1, X: x, Tau: f.scheme.Signer(leader1).Sign(msg.ProposeDigest(x, 1))}
	r.Deliver(leader1, prop)

	actions := r.EnterView(2)
	var vote *msg.Vote
	for _, a := range actions {
		if s, ok := a.(core.SendAction); ok {
			if v, ok := s.Msg.(*msg.Vote); ok {
				vote = v
			}
		}
	}
	if vote == nil {
		t.Fatal("no vote sent on view entry")
	}
	if vote.SV.Vote.Nil || !vote.SV.Vote.Value.Equal(x) || vote.SV.Vote.View != 1 {
		t.Fatalf("vote does not carry the adopted proposal: %+v", vote.SV.Vote)
	}
	th := f.th
	if !vote.SV.Valid(f.verifier(), th, 2) {
		t.Fatal("emitted vote fails validation")
	}
}

func TestCertAckOnlyForJustifiedRequests(t *testing.T) {
	f := newFixture(types.Generalized(1, 1), 30)
	r := f.newReplica(t, 0, nil)
	x := types.Value("x")
	votes := []msg.SignedVote{
		f.signed(0, f.adopted(x, 1), 2),
		f.signed(2, msg.NilVote(), 2),
		f.signed(3, msg.NilVote(), 2),
	}
	ok := &msg.CertRequest{View: 2, X: x, Votes: votes}
	if countKind(r.Deliver(f.cfg.Leader(2), ok), msg.KindCertAck) != 1 {
		t.Fatal("justified request not endorsed")
	}
	bad := &msg.CertRequest{View: 2, X: types.Value("evil"), Votes: votes}
	if countKind(r.Deliver(f.cfg.Leader(2), bad), msg.KindCertAck) != 0 {
		t.Fatal("unjustified request endorsed")
	}
}

func TestLeaderViewChangeProducesJustifiedProposal(t *testing.T) {
	// Drive a full view change by hand: the new leader collects votes,
	// sends CertRequests, gathers CertAcks, and proposes a value whose
	// certificate any replica accepts.
	f := newFixture(types.Generalized(1, 1), 31)
	leader2 := f.cfg.Leader(2)
	r := f.newReplica(t, leader2, types.Value("leader-input"))
	actions := r.EnterView(2)
	if countKind(actions, msg.KindCertRequest) != 0 {
		t.Fatal("certificate round started before n−f votes")
	}
	x := types.Value("adopted")
	var all []core.Action
	for _, voter := range []types.ProcessID{0, 3} {
		sv := f.signed(voter, f.adopted(x, 1), 2)
		all = append(all, r.Deliver(voter, &msg.Vote{View: 2, SV: sv})...)
	}
	if countKind(all, msg.KindCertRequest) == 0 {
		t.Fatal("no certificate round after vote quorum")
	}
	// Answer with a CertAck from one other process: together with the
	// leader's own endorsement that is f+1 = 2.
	phi := f.scheme.Signer(0).Sign(msg.CertAckDigest(x, 2))
	proposeActs := r.Deliver(0, &msg.CertAck{View: 2, X: x, Phi: phi})
	if countKind(proposeActs, msg.KindPropose) != 1 {
		t.Fatal("leader did not propose after f+1 CertAcks")
	}
	var prop *msg.Propose
	for _, a := range proposeActs {
		if b, ok := a.(core.BroadcastAction); ok {
			if p, ok := b.Msg.(*msg.Propose); ok {
				prop = p
			}
		}
	}
	if prop == nil {
		t.Fatal("proposal not broadcast")
	}
	if !prop.X.Equal(x) {
		t.Fatalf("leader proposed %s, selection forced %s", prop.X, x)
	}
	if !prop.Cert.VerifyFor(f.verifier(), f.th, x, 2) {
		t.Fatal("proposal carries an invalid progress certificate")
	}
	// A fresh replica in view 2 accepts it.
	r2 := f.newReplica(t, 0, nil)
	r2.EnterView(2)
	if countKind(r2.Deliver(leader2, prop), msg.KindAck) != 1 {
		t.Fatal("fresh replica rejected the justified proposal")
	}
}

func TestLeaderIgnoresBogusVotesAndCertAcks(t *testing.T) {
	f := newFixture(types.Generalized(1, 1), 32)
	leader2 := f.cfg.Leader(2)
	r := f.newReplica(t, leader2, types.Value("in"))
	r.EnterView(2)
	// Vote claiming a different voter than its channel.
	sv := f.signed(0, msg.NilVote(), 2)
	if len(r.Deliver(3, &msg.Vote{View: 2, SV: sv})) != 0 {
		t.Fatal("vote from mismatched channel processed")
	}
	// Vote for an old view.
	if len(r.Deliver(0, &msg.Vote{View: 1, SV: f.signed(0, msg.NilVote(), 1)})) != 0 {
		t.Fatal("stale vote processed")
	}
	// CertAck before any certificate round.
	phi := f.scheme.Signer(0).Sign(msg.CertAckDigest(types.Value("x"), 2))
	if len(r.Deliver(0, &msg.CertAck{View: 2, X: types.Value("x"), Phi: phi})) != 0 {
		t.Fatal("unsolicited CertAck processed")
	}
}

// TestRestoreVoteStateBlocksEquivocation models crash recovery: a replica
// that acked value x in view 1, lost its memory, and was restored from its
// persisted vote record must re-ack the identical proposal (the original
// ack may have been lost — re-sending it is safe and keeps the slot live)
// but never ack a different value in that view, even when the equivocating
// proposal is otherwise perfectly valid.
func TestRestoreVoteStateBlocksEquivocation(t *testing.T) {
	f := newFixture(types.Generalized(1, 1), 33)
	leader := f.cfg.Leader(1)
	var follower types.ProcessID
	for i := 0; i < f.cfg.N; i++ {
		if types.ProcessID(i) != leader {
			follower = types.ProcessID(i)
			break
		}
	}

	// Pre-crash incarnation acks (1, x) and its vote record is persisted.
	r1 := f.newReplica(t, follower, types.Value("own-input"))
	x := types.Value("x")
	propX := &msg.Propose{View: 1, X: x, Tau: f.scheme.Signer(leader).Sign(msg.ProposeDigest(x, 1))}
	if countKind(r1.Deliver(leader, propX), msg.KindAck) != 1 {
		t.Fatal("pre-crash replica did not ack")
	}
	persisted := r1.CurrentVote()

	// Post-crash incarnation, restored before it enters view 1.
	r2, err := core.NewReplica(f.cfg, follower, f.scheme.Signer(follower), f.verifier(), types.Value("own-input"))
	if err != nil {
		t.Fatal(err)
	}
	r2.RestoreVoteState(map[types.View]types.Value{1: x}, &persisted)
	r2.EnterView(1)

	// The adopted vote survives the crash: the recovered replica's vote in
	// a future view change still carries (x, 1).
	if vote := r2.CurrentVote(); vote.Nil || !vote.Value.Equal(x) || vote.View != 1 {
		t.Fatalf("restored vote lost: %+v", vote)
	}
	// An equivocating proposal for the acked view is never acked...
	y := types.Value("y")
	propY := &msg.Propose{View: 1, X: y, Tau: f.scheme.Signer(leader).Sign(msg.ProposeDigest(y, 1))}
	if countKind(r2.Deliver(leader, propY), msg.KindAck) != 0 {
		t.Fatal("recovered replica equivocated against its pre-crash ack")
	}
	// ...and the adopted record is not overwritten by the refusal.
	if vote := r2.CurrentVote(); !vote.Value.Equal(x) {
		t.Fatal("refused proposal overwrote the restored vote")
	}
	// The identical proposal is re-acked (an identical ack cannot
	// equivocate, and the pre-crash one may never have been delivered).
	if countKind(r2.Deliver(leader, propX), msg.KindAck) != 1 {
		t.Fatal("recovered replica refused to re-ack its own pre-crash value")
	}
	// A later view is unrestricted: the guard pins only acked views.
	r2.EnterView(2)
	leader2 := f.cfg.Leader(2)
	okCert := f.progressCert(y, 2)
	propY2 := &msg.Propose{View: 2, X: y, Cert: okCert, Tau: f.scheme.Signer(leader2).Sign(msg.ProposeDigest(y, 2))}
	if countKind(r2.Deliver(leader2, propY2), msg.KindAck) != 1 {
		t.Fatal("restored guard leaked into views the replica never acked in")
	}
}

// TestReplicaFollowsShiftedLeaderSchedule: a replica asks its configuration
// who leads. With the schedule offset by 2 (a consensus group g ≥ 1),
// process 3 leads view 1 and process 0 leads view 2: they propose, their
// proposals are the ones acknowledged, votes go to them, and only they run
// the view change — the paper's leaders for those views do none of it.
func TestReplicaFollowsShiftedLeaderSchedule(t *testing.T) {
	f := newFixture(types.Generalized(1, 1).WithLeaderShift(2), 40) // n=4
	const leader1, leader2, paper1, paper2 = types.ProcessID(3), types.ProcessID(0), types.ProcessID(1), types.ProcessID(2)
	if f.cfg.Leader(1) != leader1 || f.cfg.Leader(2) != leader2 {
		t.Fatalf("leaders %s, %s", f.cfg.Leader(1), f.cfg.Leader(2))
	}
	propose := func(by types.ProcessID, x types.Value) *msg.Propose {
		return &msg.Propose{View: 1, X: x, Tau: f.scheme.Signer(by).Sign(msg.ProposeDigest(x, 1))}
	}
	input := types.Value("in")
	for _, id := range []types.ProcessID{leader1, paper1} {
		r, err := core.NewReplica(f.cfg, id, f.scheme.Signer(id), f.verifier(), input)
		if err != nil {
			t.Fatal(err)
		}
		if proposed := countKind(r.EnterView(1), msg.KindPropose) > 0; proposed != (id == leader1) {
			t.Fatalf("%s proposed in view 1: %v", id, proposed)
		}
	}
	x := types.Value("x")
	r := f.newReplica(t, paper2, nil)
	if countKind(r.Deliver(paper1, propose(paper1, x)), msg.KindAck) != 0 {
		t.Fatal("proposal by the unshifted map's leader acknowledged")
	}
	if countKind(r.Deliver(leader1, propose(leader1, x)), msg.KindAck) != 1 {
		t.Fatal("proposal by the group's view-1 leader rejected")
	}
	voted := false
	for _, a := range r.EnterView(2) {
		if s, ok := a.(core.SendAction); ok && s.Msg.Kind() == msg.KindVote {
			voted = true
			if s.To != leader2 {
				t.Fatalf("vote sent to %s, want the view-2 leader %s", s.To, leader2)
			}
		}
	}
	if !voted {
		t.Fatal("no vote sent on view entry")
	}
	// Only the shifted view-2 leader collects votes into a certificate round.
	for _, id := range []types.ProcessID{leader2, paper2} {
		nl := f.newReplica(t, id, input)
		acts := nl.EnterView(2)
		for _, voter := range []types.ProcessID{1, 3} {
			sv := f.signed(voter, f.adopted(x, 1), 2)
			acts = append(acts, nl.Deliver(voter, &msg.Vote{View: 2, SV: sv})...)
		}
		if got := countKind(acts, msg.KindCertRequest) > 0; got != (id == leader2) {
			t.Fatalf("%s started a certificate round: %v", id, got)
		}
	}
}
