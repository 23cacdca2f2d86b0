package core

import (
	"testing"

	"repro/internal/msg"
	"repro/internal/types"
)

// A replica that holds its AckSig acks at once and signs the AckSig only
// when HoldAckSig(false) or a peer's valid AckSig for the same (view, value)
// releases it, once per view. These tests pin each trigger, what does not
// trigger it, and that a held AckSig never outlives its view.

// ackSigsIn counts the AckSig broadcasts among actions and checks that
// each is for (x, v) and signed by the replica itself.
func ackSigsIn(t *testing.T, f *exactFixture, actions []Action, v types.View) int {
	t.Helper()
	n := 0
	for _, a := range actions {
		b, ok := a.(BroadcastAction)
		if !ok || b.Msg.Kind() != msg.KindAckSig {
			continue
		}
		m := b.Msg.(*msg.AckSig)
		if m.View != v || !m.X.Equal(f.x) || m.Phi.Signer != f.r.ID() ||
			!f.scheme.Verifier().Verify(msg.AckDigest(f.x, v), m.Phi) {
			t.Fatalf("released %+v, want the replica's AckSig for (%s, %v)", m, f.x, v)
		}
		n++
	}
	return n
}

func newHoldFixture(t *testing.T) *exactFixture {
	t.Helper()
	f := newExactFixture(t, 7)
	if out := f.r.HoldAckSig(true); out != nil {
		t.Fatalf("setting the hold sent %v", out)
	}
	return f
}

// proposeHeld delivers Leader(1)'s proposal and checks that the replica
// acks it without an AckSig.
func (f *exactFixture) proposeHeld(t *testing.T) {
	t.Helper()
	l := f.cfg.Leader(1)
	tau := f.scheme.Signer(l).Sign(msg.ProposeDigest(f.x, 1))
	out := f.r.Deliver(l, &msg.Propose{View: 1, X: f.x, Tau: tau})
	if countAcks(out) != 1 || ackSigsIn(t, f, out, 1) != 0 {
		t.Fatalf("held replica answered a proposal with %v, want its Ack alone", out)
	}
}

// TestHoldAckSigReleasedOnce: HoldAckSig(false) signs and broadcasts the
// held AckSig exactly once; later calls, and the eager path it switches to,
// send nothing more in that view.
func TestHoldAckSigReleasedOnce(t *testing.T) {
	f := newHoldFixture(t)
	f.proposeHeld(t)
	if n := ackSigsIn(t, f, f.r.HoldAckSig(false), 1); n != 1 {
		t.Fatalf("release sent %d AckSigs, want 1", n)
	}
	if out := f.r.HoldAckSig(false); out != nil {
		t.Fatalf("second release sent %v", out)
	}
	if out := f.r.HoldAckSig(true); out != nil {
		t.Fatalf("holding again sent %v", out)
	}
	if out := f.r.HoldAckSig(false); out != nil {
		t.Fatalf("release after re-hold sent %v, want nothing: the view's AckSig is out", out)
	}
}

// TestHoldAckSigPeerTrigger: a peer's valid AckSig for the (view, value)
// the replica acked releases its own, once; one for another value, one with
// a forged signature, and one whose signer is not its sender do not, and
// the sender of the first two has no second AckSig in the view counted.
func TestHoldAckSigPeerTrigger(t *testing.T) {
	f := newHoldFixture(t)
	f.proposeHeld(t)

	other := &msg.AckSig{View: 1, X: types.Value("y"), Phi: f.scheme.Signer(2).Sign(msg.AckDigest(types.Value("y"), 1))}
	forged := f.ackSig(2, 1)
	forged.Phi.Bytes = append([]byte(nil), forged.Phi.Bytes...)
	forged.Phi.Bytes[0] ^= 1
	for name, c := range map[string]struct {
		from types.ProcessID
		m    *msg.AckSig
	}{
		"another value":    {2, other},
		"forged signature": {2, forged},
		"relayed":          {3, f.ackSig(2, 1)},
	} {
		if n := ackSigsIn(t, f, f.r.Deliver(c.from, c.m), 1); n != 0 {
			t.Fatalf("%s: released %d AckSigs", name, n)
		}
	}
	if n := ackSigsIn(t, f, f.r.Deliver(2, f.ackSig(2, 1)), 1); n != 0 {
		t.Fatalf("a sender's second AckSig of the view released %d AckSigs", n)
	}
	if n := ackSigsIn(t, f, f.r.Deliver(3, f.ackSig(3, 1)), 1); n != 1 {
		t.Fatalf("a peer's AckSig for the acked value released %d AckSigs, want 1", n)
	}
	if n := ackSigsIn(t, f, f.r.Deliver(1, f.ackSig(1, 1)), 1); n != 0 {
		t.Fatalf("a second peer AckSig released %d more", n)
	}
}

// TestHoldAckSigPeerFirst: a peer's AckSig that arrives before the proposal
// releases the replica's AckSig as soon as it acks.
func TestHoldAckSigPeerFirst(t *testing.T) {
	f := newHoldFixture(t)
	if out := f.r.Deliver(2, f.ackSig(2, 1)); len(out) != 0 {
		t.Fatalf("an AckSig before any ack produced %v", out)
	}
	l := f.cfg.Leader(1)
	tau := f.scheme.Signer(l).Sign(msg.ProposeDigest(f.x, 1))
	out := f.r.Deliver(l, &msg.Propose{View: 1, X: f.x, Tau: tau})
	if countAcks(out) != 1 || ackSigsIn(t, f, out, 1) != 1 {
		t.Fatalf("proposal after a peer's AckSig answered with %v, want the Ack and the AckSig", out)
	}
}

// TestHoldAckSigDroppedAtViewEntry: an AckSig held in view 1 is never sent
// once the replica entered view 2, and a release before any ack only turns
// the replica eager.
func TestHoldAckSigDroppedAtViewEntry(t *testing.T) {
	f := newHoldFixture(t)
	f.proposeHeld(t)
	f.r.EnterView(2)
	if out := f.r.HoldAckSig(false); out != nil {
		t.Fatalf("release in view 2 sent %v for the view-1 ack", out)
	}
	if n := ackSigsIn(t, f, f.r.Deliver(2, f.ackSig(2, 1)), 1); n != 0 {
		t.Fatalf("a view-1 AckSig in view 2 released %d AckSigs", n)
	}

	g := newHoldFixture(t)
	if out := g.r.HoldAckSig(false); out != nil {
		t.Fatalf("release before any ack sent %v", out)
	}
	l := g.cfg.Leader(1)
	tau := g.scheme.Signer(l).Sign(msg.ProposeDigest(g.x, 1))
	if n := ackSigsIn(t, g, g.r.Deliver(l, &msg.Propose{View: 1, X: g.x, Tau: tau}), 1); n != 1 {
		t.Fatalf("eager replica sent %d AckSigs with its ack, want 1", n)
	}
}
