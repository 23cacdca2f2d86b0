// Package byz is the Byzantine adversary harness. It operates at two
// levels. The instance level — a Forger plus adversarial core.Machines
// (equivocating leaders, selective ack-senders, vote withholders,
// certificate forgers, flooders) that take a faulty process slot of a
// single consensus instance (sim.ClusterConfig.Faulty) and run, like the
// correct processes, on a node.Runner. And the replica level — a Driver
// running an adversarial Behavior over a real transport endpoint, attacking
// the full SMR stack (slot-salted signatures, pipelined windows,
// checkpoints, state transfer, recovery) in lockstep sim clusters and
// multi-process TCP clusters alike.
//
// The adversary model matches Section 2.1 of the paper, written out in
// docs/THREAT_MODEL.md: the adversary controls up to f processes (and owns
// their signing keys) but can neither forge signatures of correct
// processes nor tamper with channels between them.
package byz

import (
	"fmt"

	"repro/internal/core"
	"repro/internal/msg"
	"repro/internal/sigcrypto"
	"repro/internal/types"
)

// Forger crafts protocol messages on behalf of one corrupted process.
type Forger struct {
	id     types.ProcessID
	signer sigcrypto.Signer
}

// NewForger builds a forger for the corrupted process id using its signer
// (the adversary owns corrupted processes' keys).
func NewForger(id types.ProcessID, signer sigcrypto.Signer) *Forger {
	return &Forger{id: id, signer: signer}
}

// ID returns the corrupted process identifier.
func (f *Forger) ID() types.ProcessID { return f.id }

// Propose builds a signed proposal for (x, v) with the given certificate.
func (f *Forger) Propose(x types.Value, v types.View, cert *msg.ProgressCert) *msg.Propose {
	return &msg.Propose{
		View: v,
		X:    x.Clone(),
		Cert: cert,
		Tau:  f.signer.Sign(msg.ProposeDigest(x, v)),
	}
}

// Ack builds an acknowledgment for (x, v).
func (f *Forger) Ack(x types.Value, v types.View) *msg.Ack {
	return &msg.Ack{View: v, X: x.Clone()}
}

// AckSig builds a slow-path ack signature for (x, v).
func (f *Forger) AckSig(x types.Value, v types.View) *msg.AckSig {
	return &msg.AckSig{View: v, X: x.Clone(), Phi: f.signer.Sign(msg.AckDigest(x, v))}
}

// SignedVote builds a signed vote with an arbitrary record for new view v.
func (f *Forger) SignedVote(vr msg.VoteRecord, v types.View) msg.SignedVote {
	return msg.SignedVote{
		Voter: f.id,
		Vote:  vr,
		Phi:   f.signer.Sign(msg.VoteDigest(vr, v)),
	}
}

// Vote builds the vote message carrying an arbitrary record.
func (f *Forger) Vote(vr msg.VoteRecord, v types.View) *msg.Vote {
	return &msg.Vote{View: v, SV: f.SignedVote(vr, v)}
}

// CertAck builds an endorsement signature for (x, v) — a Byzantine process
// may endorse anything.
func (f *Forger) CertAck(x types.Value, v types.View) *msg.CertAck {
	return &msg.CertAck{View: v, X: x.Clone(), Phi: f.signer.Sign(msg.CertAckDigest(x, v))}
}

// Wish builds a view-synchronization wish.
func (f *Forger) Wish(v types.View) *msg.Wish { return &msg.Wish{View: v} }

// idle supplies the inputs an adversarial machine ignores; with the
// process identifier its embedded Forger provides, a strategy implements
// only the core.Machine methods it acts on.
type idle struct{}

func (idle) Init(core.Time) []core.Action                                  { return nil }
func (idle) Deliver(types.ProcessID, msg.Message, core.Time) []core.Action { return nil }
func (idle) Tick(core.Time) []core.Action                                  { return nil }

// EquivocatingLeader is a corrupted process that, as leader of view 1,
// proposes Value1 to the processes in GroupA and Value2 to everyone else,
// then acknowledges both values — the canonical equivocation attack of
// Section 3.2. In later views it stays silent.
type EquivocatingLeader struct {
	idle
	*Forger
	N      int
	Value1 types.Value
	Value2 types.Value
	// GroupA receives Value1; all other processes receive Value2.
	GroupA map[types.ProcessID]bool
}

// Init implements core.Machine: the equivocating proposals and acks.
func (e *EquivocatingLeader) Init(core.Time) []core.Action {
	p1 := e.Propose(e.Value1, 1, nil)
	p2 := e.Propose(e.Value2, 1, nil)
	var out []core.Action
	for i := 0; i < e.N; i++ {
		pid := types.ProcessID(i)
		if pid == e.ID() {
			continue
		}
		if e.GroupA[pid] {
			out = append(out, core.SendAction{To: pid, Msg: p1})
		} else {
			out = append(out, core.SendAction{To: pid, Msg: p2})
		}
	}
	// Acknowledge both values to push each partition toward its own fast
	// quorum.
	for i := 0; i < e.N; i++ {
		pid := types.ProcessID(i)
		if pid == e.ID() {
			continue
		}
		out = append(out,
			core.SendAction{To: pid, Msg: e.Ack(e.Value1, 1)},
			core.SendAction{To: pid, Msg: e.Ack(e.Value2, 1)},
			core.SendAction{To: pid, Msg: e.AckSig(e.Value1, 1)},
			core.SendAction{To: pid, Msg: e.AckSig(e.Value2, 1)})
	}
	return out
}

// SelectiveAcker is a corrupted non-leader that acknowledges every proposal
// but only to a chosen subset of processes, trying to split fast quorums.
type SelectiveAcker struct {
	idle
	*Forger
	// Targets receive the acks; everyone else is ignored.
	Targets []types.ProcessID
}

// Deliver implements core.Machine.
func (s *SelectiveAcker) Deliver(_ types.ProcessID, m msg.Message, _ core.Time) []core.Action {
	p, ok := m.(*msg.Propose)
	if !ok {
		return nil
	}
	var out []core.Action
	for _, to := range s.Targets {
		out = append(out,
			core.SendAction{To: to, Msg: s.Ack(p.X, p.View)},
			core.SendAction{To: to, Msg: s.AckSig(p.X, p.View)})
	}
	return out
}

// StaleVoter is a corrupted process that answers every new leader with a
// nil vote regardless of what it saw, trying to erase history during view
// changes.
type StaleVoter struct {
	idle
	*Forger
	Cluster types.Config
}

// Deliver implements core.Machine.
func (s *StaleVoter) Deliver(_ types.ProcessID, m msg.Message, _ core.Time) []core.Action {
	w, ok := m.(*msg.Wish)
	if !ok {
		return nil
	}
	// Echo wishes (to keep view synchronization moving) and send a nil vote
	// to the would-be leader of the wished view.
	return []core.Action{
		core.BroadcastAction{Msg: s.Wish(w.View)},
		core.SendAction{To: s.Cluster.Leader(w.View), Msg: s.Vote(msg.NilVote(), w.View)},
	}
}

// ForgedCertLeader is a corrupted new leader that proposes in its view with
// a fabricated progress certificate (too few signatures, or signatures from
// itself only). Correct processes must reject the proposal outright.
type ForgedCertLeader struct {
	idle
	*Forger
	N     int
	View  types.View
	Value types.Value

	proposed bool
}

// Deliver implements core.Machine: it waits for a wish toward its view and
// then proposes with the bogus certificate.
func (l *ForgedCertLeader) Deliver(_ types.ProcessID, m msg.Message, _ core.Time) []core.Action {
	w, ok := m.(*msg.Wish)
	if !ok || w.View < l.View || l.proposed {
		return nil
	}
	l.proposed = true
	// A "certificate" consisting of the leader's own signature repeated —
	// below CertQuorum distinct signers.
	phi := l.CertAck(l.Value, l.View).Phi
	cert := &msg.ProgressCert{
		Value: l.Value.Clone(),
		View:  l.View,
		Sigs:  []sigcrypto.Signature{phi, phi},
	}
	p := l.Propose(l.Value, l.View, cert)
	var out []core.Action
	for i := 0; i < l.N; i++ {
		if pid := types.ProcessID(i); pid != l.ID() {
			out = append(out, core.SendAction{To: pid, Msg: p})
		}
	}
	return out
}

// Flooder spams junk protocol state: acks and ack signatures for thousands
// of fabricated (view, value) pairs, plus wishes for huge views. Correct
// processes must neither crash nor let their per-instance state grow without
// bound (the replica tallies one message of each kind per sender in each of
// four views), and the protocol must still decide.
type Flooder struct {
	idle
	*Forger
	N int
	// Pairs is the number of junk (view, value) pairs to spray.
	Pairs int
}

// Init implements core.Machine.
func (fl *Flooder) Init(core.Time) []core.Action {
	var out []core.Action
	for i := 0; i < fl.Pairs; i++ {
		v := types.View(1000 + i)
		x := types.Value(fmt.Sprintf("junk-%d", i))
		for q := 0; q < fl.N; q++ {
			pid := types.ProcessID(q)
			if pid == fl.ID() {
				continue
			}
			out = append(out,
				core.SendAction{To: pid, Msg: fl.Ack(x, v)},
				core.SendAction{To: pid, Msg: fl.AckSig(x, v)})
		}
	}
	return out
}
