package core

import (
	"encoding/binary"
	"testing"

	"repro/internal/msg"
	"repro/internal/sigcrypto"
	"repro/internal/types"
)

// A quorum is a count of distinct senders, and a correct process sends one
// Ack, one AckSig and one Commit per view (Section 3.1, Appendix A.1), so a
// replica tallies the first of each per (view, sender) and drops a sender's
// later one unread. These tests pin what that closes: a Byzantine sender's
// flood of distinct values neither crowds out the real value's tally nor
// costs more than one signature check per (view, sender).

// floodSize is the junk flood of one sender: as many values as the
// value-keyed tallies used to track per instance before they stopped
// taking new values.
const floodSize = 4096

// junkValue is the i-th value of a flood: 5 bytes, distinct for every i.
func junkValue(i int) types.Value {
	x := make(types.Value, 5)
	x[0] = 0xff
	binary.BigEndian.PutUint32(x[1:], uint32(i))
	return x
}

// TestJunkAckFloodDecidesFast: n = 4. Process 3 sends process 0 4096 Acks
// for distinct junk values in view 1 before Leader(1)'s proposal arrives.
// When Acks were tallied per (view, value), in at most 4096 such pairs per
// instance, the junk took every pair and the real value's Acks counted
// nowhere: the replica never decided on the fast path. Now 3's first junk
// Ack is its one Ack of the view, its Ack for the real value counts no more
// than the junk after the first, and the real value's n − t Acks from 0, 1
// and 2 decide fast.
func TestJunkAckFloodDecidesFast(t *testing.T) {
	f := newExactFixture(t, 21)
	for i := 0; i < floodSize; i++ {
		if acts := f.r.Deliver(3, &msg.Ack{View: 1, X: junkValue(i)}); len(acts) != 0 {
			t.Fatalf("junk Ack %d produced %v", i, acts)
		}
	}
	f.propose(t)
	f.r.Deliver(3, &msg.Ack{View: 1, X: f.x})
	if decidedIn(f.r.Deliver(1, &msg.Ack{View: 1, X: f.x})) {
		t.Fatal("decided on 3's second Ack of the view")
	}
	if !decidedIn(f.r.Deliver(2, &msg.Ack{View: 1, X: f.x})) {
		t.Fatal("the real value's n − t Acks did not decide")
	}
	if d, _ := f.r.Decided(); d.Path != types.FastPath || !d.Value.Equal(f.x) || d.View != 1 {
		t.Fatalf("decided %+v, want %s in view 1 on the fast path", d, f.x)
	}
}

// TestJunkAckSigFloodOneCheckPerSender: n = 4. Process 3 sends 4096
// AckSigs for distinct junk values in view 1, each with bytes that are not
// its signature, then its genuine AckSig for the real value. The replica
// checks 3's first AckSig and no other of its view-1 AckSigs: one check per
// (view, sender), where the value-keyed tallies checked every one. The
// commit certificate then forms from the genuine AckSigs of 0, 1 and 2.
func TestJunkAckSigFloodOneCheckPerSender(t *testing.T) {
	f := newExactFixture(t, 22)
	f.propose(t)
	before := f.inner.calls
	for i := 0; i < floodSize; i++ {
		x := junkValue(i)
		phi := sigcrypto.Signature{Signer: 3, Bytes: append([]byte(nil), x...)}
		f.r.Deliver(3, &msg.AckSig{View: 1, X: x, Phi: phi})
	}
	f.r.Deliver(3, f.ackSig(3, 1))
	if got := f.inner.calls - before; got != 1 {
		t.Fatalf("%d AckSigs from one sender in one view cost %d checks, want 1", floodSize+1, got)
	}
	f.r.Deliver(1, f.ackSig(1, 1))
	commits := 0
	for _, a := range f.r.Deliver(2, f.ackSig(2, 1)) {
		if b, ok := a.(BroadcastAction); ok && b.Msg.Kind() == msg.KindCommit {
			cc := b.Msg.(*msg.Commit).CC
			for _, sig := range cc.Sigs {
				if sig.Signer == 3 {
					t.Fatal("the certificate carries 3's second AckSig of the view")
				}
			}
			commits++
		}
	}
	if commits != 1 {
		t.Fatalf("%d Commits after a commit quorum of genuine AckSigs, want 1", commits)
	}
	if got := f.inner.calls - before; got != 3 {
		t.Fatalf("%d checks in all, want 3: 3's first AckSig, 1's and 2's", got)
	}
}

// TestTalliesKeepFourViews: n = 4, in view 1. Each peer sends AckSigs and
// Commits for views 1 to 64, each for its own junk value with bytes that
// are not signatures. Only views 0 to 3 — the view before the current one
// to two views past it — are tallied, so the replica checks one AckSig and
// one certificate per sender in views 1, 2 and 3 and drops the rest before
// any check: however many views and values its peers name, an instance
// tallies at most tallyViews·n senders' records.
func TestTalliesKeepFourViews(t *testing.T) {
	f := newExactFixture(t, 23)
	for v := types.View(1); v <= 64; v++ {
		for p := types.ProcessID(1); p <= 3; p++ {
			x := junkValue(int(v)*4 + int(p))
			sig := sigcrypto.Signature{Signer: p, Bytes: []byte{1}}
			f.r.Deliver(p, &msg.AckSig{View: v, X: x, Phi: sig})
			cc := msg.CommitCert{Value: x, View: v, Sigs: []sigcrypto.Signature{
				{Signer: 1, Bytes: []byte{1}}, {Signer: 2, Bytes: []byte{2}}, {Signer: 3, Bytes: []byte{3}},
			}}
			f.r.Deliver(p, &msg.Commit{View: v, X: x, CC: cc})
		}
	}
	// Per tallied view and sender: one AckSig check, and one for each of
	// the certificate's three entries.
	if want := 3 * 3 * (1 + 3); f.inner.calls != want {
		t.Fatalf("%d checks, want %d", f.inner.calls, want)
	}
	if _, ok := f.r.Decided(); ok {
		t.Fatal("junk decided")
	}
}
