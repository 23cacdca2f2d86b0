// Package fab implements the common case of FaB Paxos (Martin & Alvisi,
// "Fast Byzantine Consensus", IEEE TDSC 2006), the resilience baseline of
// the reproduction: two message delays, but n = 3f+2t+1 processes — two
// more than the paper shows necessary.
//
// Scope: the fast path (propose → accept → learn on n−t matching accepts)
// is implemented faithfully; the recovery protocol is not, because every
// reproduced experiment compares common-case behaviour (latency in message
// delays, minimum process counts), where recovery never runs. The
// constructor enforces FaB's own resilience bound, which is the quantity
// the comparison tables report.
package fab

import (
	"errors"
	"fmt"

	"repro/internal/core"
	"repro/internal/msg"
	"repro/internal/sigcrypto"
	"repro/internal/types"
	"repro/internal/wire"
)

// Message subtypes within msg.ProtoFaB.
const (
	subPropose uint8 = 1
	subAccept  uint8 = 2
)

const domainPropose byte = 20

func proposeDigest(v types.View, x types.Value) []byte {
	w := wire.NewWriter(16 + len(x))
	w.Uint8(domainPropose)
	w.Uvarint(uint64(v))
	w.BytesField(x)
	return w.Bytes()
}

// MinProcesses returns FaB Paxos's resilience requirement, n = 3f+2t+1
// (5f+1 when t = f).
func MinProcesses(f, t int) int { return 3*f + 2*t + 1 }

// Replica is the FaB Paxos fast-path state machine for one process. In FaB
// terms every process is simultaneously proposer (only the view-1 leader
// proposes here), acceptor, and learner.
type Replica struct {
	n, f, t  int
	id       types.ProcessID
	signer   sigcrypto.Signer
	verifier sigcrypto.Verifier
	input    types.Value

	accepted types.Value
	accepts  map[string]map[types.ProcessID]struct{}
	decided  bool
	decision types.Decision
}

// NewReplica builds a FaB replica; n must be at least 3f+2t+1 (the bound
// Martin & Alvisi prove necessary for proposer/acceptor-separated
// protocols, Section 4.4 of the reproduced paper).
func NewReplica(n, f, t int, id types.ProcessID, signer sigcrypto.Signer, verifier sigcrypto.Verifier, input types.Value) (*Replica, error) {
	if f < 1 || t < 1 || t > f {
		return nil, fmt.Errorf("fab: invalid f=%d t=%d", f, t)
	}
	if n < MinProcesses(f, t) {
		return nil, fmt.Errorf("fab: n=%d below 3f+2t+1=%d", n, MinProcesses(f, t))
	}
	if !id.Valid(n) {
		return nil, errors.New("fab: invalid process id")
	}
	return &Replica{
		n: n, f: f, t: t, id: id,
		signer: signer, verifier: verifier,
		input:   input.Clone(),
		accepts: make(map[string]map[types.ProcessID]struct{}),
	}, nil
}

// ID returns the process identifier.
func (r *Replica) ID() types.ProcessID { return r.id }

// Decided returns the decision, if reached.
func (r *Replica) Decided() (types.Decision, bool) { return r.decision, r.decided }

// learnQuorum is the number of matching accepts that let a learner learn in
// the common case: n − t.
func (r *Replica) learnQuorum() int { return r.n - r.t }

// Init implements core.Machine: the view-1 leader proposes its input.
func (r *Replica) Init(core.Time) []core.Action {
	if (types.Config{N: r.n}).Leader(1) != r.id {
		return nil
	}
	tau := r.signer.Sign(proposeDigest(1, r.input))
	w := wire.NewWriter(72)
	w.Int32(int32(tau.Signer))
	w.BytesField(tau.Bytes)
	m := &msg.Raw{View: 1, Proto: msg.ProtoFaB, Sub: subPropose, X: r.input.Clone(), Payload: w.Bytes()}
	out := []core.Action{core.BroadcastAction{Msg: m}}
	return append(out, r.Deliver(r.id, m, 0)...)
}

// Deliver implements core.Machine.
func (r *Replica) Deliver(from types.ProcessID, raw msg.Message, _ core.Time) []core.Action {
	m, ok := raw.(*msg.Raw)
	if !ok || m.Proto != msg.ProtoFaB || !from.Valid(r.n) {
		return nil
	}
	switch m.Sub {
	case subPropose:
		return r.onPropose(from, m)
	case subAccept:
		return r.onAccept(from, m)
	default:
		return nil
	}
}

// Tick implements core.Machine. The fast path has no timers (recovery is out
// of scope; see the package comment).
func (r *Replica) Tick(core.Time) []core.Action { return nil }

func (r *Replica) onPropose(from types.ProcessID, m *msg.Raw) []core.Action {
	if m.View != 1 || r.accepted != nil {
		return nil
	}
	leader := types.Config{N: r.n}.Leader(m.View)
	if from != leader && from != r.id {
		return nil
	}
	rd := wire.NewReader(m.Payload)
	var tau sigcrypto.Signature
	tau.Signer = types.ProcessID(rd.Int32())
	tau.Bytes = rd.BytesField()
	if rd.Finish() != nil || tau.Signer != leader {
		return nil
	}
	if !r.verifier.Verify(proposeDigest(m.View, m.X), tau) {
		return nil
	}
	r.accepted = m.X.Clone()
	acc := &msg.Raw{View: m.View, Proto: msg.ProtoFaB, Sub: subAccept, X: m.X.Clone()}
	out := []core.Action{core.BroadcastAction{Msg: acc}}
	return append(out, r.Deliver(r.id, acc, 0)...)
}

func (r *Replica) onAccept(from types.ProcessID, m *msg.Raw) []core.Action {
	k := fmt.Sprintf("%d|%s", m.View, m.X)
	set, ok := r.accepts[k]
	if !ok {
		if len(r.accepts) >= 4096 {
			return nil
		}
		set = make(map[types.ProcessID]struct{})
		r.accepts[k] = set
	}
	set[from] = struct{}{}
	if len(set) >= r.learnQuorum() && !r.decided {
		r.decided = true
		r.decision = types.Decision{Value: m.X.Clone(), View: m.View, Path: types.FastPath}
		return []core.Action{core.DecideAction{Decision: r.decision}}
	}
	return nil
}
