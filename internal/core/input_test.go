package core_test

import (
	"testing"

	"repro/internal/core"
	"repro/internal/msg"
	"repro/internal/types"
)

// TestLeaderProposesAtFirstInput: leader(1) that enters view 1 with no input
// stays silent and proposes at the first SetInput, with the value it was
// given; a second SetInput in view 1 sends no second Propose.
func TestLeaderProposesAtFirstInput(t *testing.T) {
	f := newFixture(types.Generalized(1, 1), 22)
	r := f.newReplica(t, f.cfg.Leader(1), nil)
	if !r.AwaitsInput() {
		t.Fatal("leader in view 1 with no input does not await one")
	}
	x := types.Value("x")
	out := r.SetInput(x)
	if countKind(out, msg.KindPropose) != 1 || countKind(out, msg.KindAck) != 1 {
		t.Fatalf("first input sent %v, want one Propose and the leader's own Ack", out)
	}
	if vote := r.CurrentVote(); vote.Nil || !vote.Value.Equal(x) || vote.View != 1 {
		t.Fatalf("leader adopted %+v, want %s in view 1", vote, x)
	}
	if r.AwaitsInput() {
		t.Fatal("leader still awaits an input after proposing")
	}
	if out := r.SetInput(types.Value("y")); countKind(out, msg.KindPropose) != 0 {
		t.Fatalf("a second input in view 1 sent %v", out)
	}
}

// TestSetInputAfterViewOneProposal: a leader that proposed its input on
// entering view 1 proposes nothing more when SetInput gives it another, and
// neither does a follower, in view 1 or later.
func TestSetInputAfterViewOneProposal(t *testing.T) {
	f := newFixture(types.Generalized(1, 1), 23)
	leader := f.cfg.Leader(1)
	r, err := core.NewReplica(f.cfg, leader, f.scheme.Signer(leader), f.verifier(), types.Value("mine"))
	if err != nil {
		t.Fatal(err)
	}
	if countKind(r.EnterView(1), msg.KindPropose) != 1 {
		t.Fatal("view-1 leader must propose on entering view 1")
	}
	if out := r.SetInput(types.Value("y")); len(out) != 0 {
		t.Fatalf("an input after the view-1 proposal sent %v", out)
	}
	follower := f.cfg.Leader(2)
	fr := f.newReplica(t, follower, nil)
	if out := fr.SetInput(types.Value("y")); len(out) != 0 {
		t.Fatalf("a follower's input in view 1 sent %v", out)
	}
	fr.EnterView(2)
	if fr.AwaitsInput() {
		t.Fatal("a replica past view 1 awaits an input")
	}
}
