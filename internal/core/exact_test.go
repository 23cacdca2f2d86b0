package core

import (
	"reflect"
	"testing"

	"repro/internal/msg"
	"repro/internal/sigcrypto"
	"repro/internal/types"
)

// The checks a replica skips are the ones whose result nothing reads: its
// own signatures (memoized as it makes them), AckSigs past its commit
// certificate, and Commits that cannot change its decision or its latest
// certificate. These tests pin both halves: what is skipped, and that every
// check that can change an outcome still runs.

// exactFixture is one replica, process 0 of n = 4 (CommitQuorum 3), over a
// counting inner verifier, with the scheme that signs for its peers.
type exactFixture struct {
	cfg    types.Config
	scheme sigcrypto.Scheme
	inner  *innerCounter
	r      *Replica
	x      types.Value
}

func newExactFixture(t *testing.T, seed int64) *exactFixture {
	t.Helper()
	cfg := types.Generalized(1, 1)
	scheme := sigcrypto.NewHMAC(cfg.N, seed)
	inner := &innerCounter{Verifier: scheme.Verifier()}
	r, err := NewReplica(cfg, 0, scheme.Signer(0), inner, nil)
	if err != nil {
		t.Fatal(err)
	}
	r.EnterView(1)
	return &exactFixture{cfg: cfg, scheme: scheme, inner: inner, r: r, x: types.Value("x")}
}

// propose delivers Leader(1)'s proposal of x, which the replica acks and
// ack-signs.
func (f *exactFixture) propose(t *testing.T) {
	t.Helper()
	l := f.cfg.Leader(1)
	tau := f.scheme.Signer(l).Sign(msg.ProposeDigest(f.x, 1))
	if countAcks(f.r.Deliver(l, &msg.Propose{View: 1, X: f.x, Tau: tau})) == 0 {
		t.Fatal("valid proposal not acked")
	}
}

func countAcks(actions []Action) int {
	n := 0
	for _, a := range actions {
		if b, ok := a.(BroadcastAction); ok && b.Msg.Kind() == msg.KindAck {
			n++
		}
	}
	return n
}

// ackSig is peer p's AckSig for (x, v).
func (f *exactFixture) ackSig(p types.ProcessID, v types.View) *msg.AckSig {
	return &msg.AckSig{View: v, X: f.x, Phi: f.scheme.Signer(p).Sign(msg.AckDigest(f.x, v))}
}

// cert is a commit certificate for (x, v) signed by the given processes.
func (f *exactFixture) cert(v types.View, signers ...types.ProcessID) msg.CommitCert {
	cc := msg.CommitCert{Value: f.x.Clone(), View: v}
	for _, p := range signers {
		cc.Sigs = append(cc.Sigs, f.scheme.Signer(p).Sign(msg.AckDigest(f.x, v)))
	}
	return cc
}

// forge replaces signer p's entry of cc with bytes that are not p's.
func (f *exactFixture) forge(cc msg.CommitCert, p types.ProcessID) msg.CommitCert {
	out := *cc.Clone()
	for i := range out.Sigs {
		if out.Sigs[i].Signer == p {
			out.Sigs[i].Bytes[0] ^= 1
		}
	}
	return out
}

func decidedIn(actions []Action) bool {
	for _, a := range actions {
		if _, ok := a.(DecideAction); ok {
			return true
		}
	}
	return false
}

// TestAckSigAfterCommitUnverified: once the replica's commit certificate is
// formed and its Commit sent, a further AckSig for that (view, value) costs
// no verification and changes nothing the replica does or reports.
func TestAckSigAfterCommitUnverified(t *testing.T) {
	f := newExactFixture(t, 6)
	f.propose(t)
	sent := 0
	for _, p := range []types.ProcessID{1, 2} {
		for _, a := range f.r.Deliver(p, f.ackSig(p, 1)) {
			if b, ok := a.(BroadcastAction); ok && b.Msg.Kind() == msg.KindCommit {
				sent++
			}
		}
	}
	if sent != 1 {
		t.Fatalf("%d Commits sent after a commit quorum of AckSigs, want 1", sent)
	}
	// The leader's τ and two peers' AckSigs; the replica's own is memoized.
	if f.inner.calls != 3 {
		t.Fatalf("%d verifications before the late AckSig, want 3", f.inner.calls)
	}
	vote := f.r.CurrentVote()
	late := f.ackSig(3, 1)
	forged := f.ackSig(3, 1)
	forged.Phi.Bytes[0] ^= 1
	for _, m := range []*msg.AckSig{late, forged} {
		if acts := f.r.Deliver(3, m); len(acts) != 0 {
			t.Fatalf("a late AckSig produced %d actions", len(acts))
		}
	}
	if f.inner.calls != 3 {
		t.Fatalf("late AckSigs cost %d verifications, want 0", f.inner.calls-3)
	}
	if !reflect.DeepEqual(vote, f.r.CurrentVote()) {
		t.Fatal("a late AckSig changed the replica's vote or certificate")
	}
}

// TestCommitAfterDecisionHigherView: after the replica decided, a Commit of
// no higher view than its latest certificate costs nothing, but one whose
// certificate is of a higher view is still verified and still becomes the
// latest certificate (CurrentVote().CC), and a forged one of
// a higher view is still rejected.
func TestCommitAfterDecisionHigherView(t *testing.T) {
	f := newExactFixture(t, 7)
	f.propose(t)
	for _, p := range []types.ProcessID{1, 2} {
		f.r.Deliver(p, &msg.Ack{View: 1, X: f.x})
		f.r.Deliver(p, f.ackSig(p, 1))
	}
	if d, ok := f.r.Decided(); !ok || d.View != 1 {
		t.Fatal("replica did not decide in view 1")
	}
	if cc := f.r.CurrentVote().CC; cc == nil || cc.View != 1 {
		t.Fatal("replica holds no view-1 certificate")
	}
	before := f.inner.calls
	for _, p := range []types.ProcessID{1, 2, 3} {
		f.r.Deliver(p, &msg.Commit{View: 1, X: f.x, CC: f.cert(1, 1, 2, 3)})
	}
	if f.inner.calls != before {
		t.Fatalf("view-1 Commits after the decision cost %d verifications, want 0", f.inner.calls-before)
	}

	forged := f.forge(f.cert(2, 1, 2, 3), 2)
	f.r.Deliver(3, &msg.Commit{View: 2, X: f.x, CC: forged})
	if f.inner.calls == before {
		t.Fatal("a higher-view Commit after the decision was not verified")
	}
	if cc := f.r.CurrentVote().CC; cc.View != 1 {
		t.Fatalf("a forged view-2 certificate became the latest (view %d)", cc.View)
	}
	// Sender 3's view-2 Commit is spent; another sender's counts.
	f.r.Deliver(2, &msg.Commit{View: 2, X: f.x, CC: f.cert(2, 1, 2, 3)})
	if cc := f.r.CurrentVote().CC; cc == nil || cc.View != 2 {
		t.Fatal("a valid view-2 certificate after the decision did not become the latest")
	}
}

// TestUndecidedRejectsForgedCommit: an undecided replica checks each
// sender's first Commit of a view — with no certificate of its own, and with
// its own certificate formed and its own Commit sent — so forged
// certificates neither decide nor become its latest, and a sender whose
// first Commit was forged has no second one counted. A replica decided on
// the fast path before any certificate formed also still checks them.
func TestUndecidedRejectsForgedCommit(t *testing.T) {
	t.Run("no certificate", func(t *testing.T) {
		f := newExactFixture(t, 8)
		forged := f.forge(f.cert(1, 1, 2, 3), 3)
		for _, p := range []types.ProcessID{1, 2, 3} {
			if decidedIn(f.r.Deliver(p, &msg.Commit{View: 1, X: f.x, CC: forged})) {
				t.Fatal("forged Commits decided")
			}
		}
		if f.r.CurrentVote().CC != nil {
			t.Fatal("a forged certificate became the latest")
		}
	})
	t.Run("own certificate formed", func(t *testing.T) {
		f := newExactFixture(t, 9)
		f.propose(t)
		f.r.Deliver(1, f.ackSig(1, 1))
		f.r.Deliver(2, f.ackSig(2, 1)) // commit quorum: the replica's own Commit is counted
		if _, ok := f.r.Decided(); ok {
			t.Fatal("decided on one Commit")
		}
		forged := f.forge(f.cert(1, 1, 2, 3), 3)
		for _, p := range []types.ProcessID{2, 3} {
			if decidedIn(f.r.Deliver(p, &msg.Commit{View: 1, X: f.x, CC: forged})) {
				t.Fatal("forged Commits decided next to the replica's own")
			}
		}
		if decidedIn(f.r.Deliver(1, &msg.Commit{View: 1, X: f.x, CC: f.cert(1, 1, 2, 3)})) {
			t.Fatal("decided on two genuine Commits and two forged ones")
		}
		if decidedIn(f.r.Deliver(2, &msg.Commit{View: 1, X: f.x, CC: f.cert(1, 1, 2, 3)})) {
			t.Fatal("a sender's genuine Commit after its forged one counted")
		}
	})
	t.Run("decided fast, no certificate", func(t *testing.T) {
		f := newExactFixture(t, 10)
		f.propose(t)
		f.r.Deliver(1, &msg.Ack{View: 1, X: f.x})
		f.r.Deliver(2, &msg.Ack{View: 1, X: f.x})
		if _, ok := f.r.Decided(); !ok {
			t.Fatal("no fast decision")
		}
		f.r.Deliver(3, &msg.Commit{View: 1, X: f.x, CC: f.forge(f.cert(1, 1, 2, 3), 3)})
		if f.r.CurrentVote().CC != nil {
			t.Fatal("a forged certificate became the latest after a fast decision")
		}
	})
}

// TestForgedOwnNameSigRejected: the replica has memoized its own AckSig, as
// it signed it. A certificate whose entry in the replica's own name carries
// other bytes is checked and fails — the memo vouches for the exact bytes,
// not the name — so it neither decides nor becomes the latest; with the
// genuine entry the same certificate is accepted, from the senders whose
// first Commit it is, next to the replica's own.
func TestForgedOwnNameSigRejected(t *testing.T) {
	f := newExactFixture(t, 11)
	f.propose(t) // the replica's own AckSig is now memoized
	forged := f.forge(f.cert(1, 0, 1, 2), 0)
	before := f.inner.calls
	if decidedIn(f.r.Deliver(3, &msg.Commit{View: 1, X: f.x, CC: forged})) {
		t.Fatal("a certificate with a forged signature in the replica's name decided")
	}
	if f.r.CurrentVote().CC != nil {
		t.Fatal("a certificate with a forged signature in the replica's name became the latest")
	}
	if f.inner.calls == before {
		t.Fatal("the forged entry in the replica's name was answered from the memo")
	}
	// Two peers' AckSigs complete the replica's own certificate, and its
	// own Commit goes out and counts.
	f.r.Deliver(1, f.ackSig(1, 1))
	f.r.Deliver(2, f.ackSig(2, 1))
	decided := false
	for _, p := range []types.ProcessID{1, 2} {
		decided = decidedIn(f.r.Deliver(p, &msg.Commit{View: 1, X: f.x, CC: f.cert(1, 0, 1, 2)})) || decided
	}
	if !decided {
		t.Fatal("the genuine certificate did not decide")
	}
}
