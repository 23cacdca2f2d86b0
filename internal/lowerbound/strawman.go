// Package lowerbound makes Theorem 4.5 of the paper executable: it builds
// the five-execution construction of Section 4.2 (Figures 2–4) against a
// natural "strawman" fast protocol running on n = 3f + 2t − 2 processes —
// one fewer than the paper's tight bound — and exhibits the consistency
// violation the theorem predicts. The companion check runs the paper's
// protocol on n = 3f + 2t − 1 under the same adversarial pattern and shows
// that agreement survives, locating the bound exactly.
package lowerbound

import (
	"bytes"
	"fmt"

	"repro/internal/core"
	"repro/internal/msg"
	"repro/internal/types"
	"repro/internal/wire"
)

// Strawman message subtypes within msg.ProtoStrawman.
const (
	subPropose uint8 = 1
	subAck     uint8 = 2
)

// Strawman is a natural t-two-step consensus attempt on too few processes:
// a fixed leader (process 0) proposes its input; every process acknowledges
// the first proposal it receives; a process decides x on n−t matching
// acknowledgments (the proposal counts as the leader's own). If nothing is
// decided by the fallback deadline, the process decides the value with the
// highest acknowledgment count (ties broken toward the smaller value).
//
// The fast path satisfies the t-two-step property of Section 4.1: in every
// T-faulty two-step execution all correct processes decide at 2Δ. The
// fallback gives liveness. Theorem 4.5 says no such protocol can also be
// consistent at n = 3f + 2t − 2 — and Construction exhibits the violation.
type Strawman struct {
	n, t     int
	id       types.ProcessID
	input    types.Value
	fallback core.Time

	accepted types.Value
	acks     map[string]map[types.ProcessID]struct{}
	decided  bool
	decision types.Decision
}

// NewStrawman builds a strawman process. fallback is the absolute virtual
// time of the fallback decision.
func NewStrawman(n, t int, id types.ProcessID, input types.Value, fallback core.Time) *Strawman {
	return &Strawman{
		n: n, t: t, id: id,
		input:    input.Clone(),
		fallback: fallback,
		acks:     make(map[string]map[types.ProcessID]struct{}),
	}
}

// ID implements core.Machine.
func (s *Strawman) ID() types.ProcessID { return s.id }

// Decided returns the decision, if reached.
func (s *Strawman) Decided() (types.Decision, bool) { return s.decision, s.decided }

// Leader is the strawman's fixed leader.
const Leader types.ProcessID = 0

// ProposeMsg builds the strawman proposal for x (exported so the adversary
// can forge equivocating proposals from the corrupted leader).
func ProposeMsg(x types.Value) *msg.Raw {
	return &msg.Raw{View: 1, Proto: msg.ProtoStrawman, Sub: subPropose, X: x.Clone()}
}

// AckMsg builds the strawman acknowledgment for x.
func AckMsg(x types.Value) *msg.Raw {
	return &msg.Raw{View: 1, Proto: msg.ProtoStrawman, Sub: subAck, X: x.Clone()}
}

// Init implements core.Machine: the leader proposes, everyone arms the
// fallback timer.
func (s *Strawman) Init(core.Time) []core.Action {
	out := []core.Action{core.TimerAction{Deadline: s.fallback}}
	if s.id == Leader {
		m := ProposeMsg(s.input)
		out = append(out, core.BroadcastAction{Msg: m})
		out = append(out, s.Deliver(s.id, m, 0)...)
	}
	return out
}

// Deliver implements core.Machine.
func (s *Strawman) Deliver(from types.ProcessID, raw msg.Message, _ core.Time) []core.Action {
	m, ok := raw.(*msg.Raw)
	if !ok || m.Proto != msg.ProtoStrawman {
		return nil
	}
	switch m.Sub {
	case subPropose:
		if from != Leader || s.accepted != nil {
			return nil
		}
		s.accepted = m.X.Clone()
		s.count(m.X, Leader) // the proposal is the leader's acknowledgment
		ack := AckMsg(m.X)
		out := []core.Action{core.BroadcastAction{Msg: ack}}
		out = append(out, s.Deliver(s.id, ack, 0)...)
		out = append(out, s.tryDecide(m.X)...)
		return out
	case subAck:
		s.count(m.X, from)
		return s.tryDecide(m.X)
	default:
		return nil
	}
}

// Tick implements core.Machine: the fallback decision.
func (s *Strawman) Tick(core.Time) []core.Action {
	if s.decided {
		return nil
	}
	best := s.input
	bestCount := -1
	for k, set := range s.acks {
		x := decodeKey(k)
		switch {
		case len(set) > bestCount:
			best, bestCount = x, len(set)
		case len(set) == bestCount && bytes.Compare(x, best) < 0:
			best = x
		}
	}
	return s.decideNow(best, types.SlowPath)
}

func (s *Strawman) count(x types.Value, from types.ProcessID) {
	k := encodeKey(x)
	set, ok := s.acks[k]
	if !ok {
		set = make(map[types.ProcessID]struct{})
		s.acks[k] = set
	}
	set[from] = struct{}{}
}

func (s *Strawman) tryDecide(x types.Value) []core.Action {
	if len(s.acks[encodeKey(x)]) >= s.n-s.t {
		return s.decideNow(x, types.FastPath)
	}
	return nil
}

func (s *Strawman) decideNow(x types.Value, path types.DecidePath) []core.Action {
	if s.decided {
		return nil
	}
	s.decided = true
	s.decision = types.Decision{Value: x.Clone(), View: 1, Path: path}
	return []core.Action{core.DecideAction{Decision: s.decision}}
}

// encodeKey/decodeKey keep map keys reversible for the fallback scan.
func encodeKey(x types.Value) string {
	w := wire.NewWriter(len(x) + 4)
	w.BytesField(x)
	return string(w.Bytes())
}

func decodeKey(k string) types.Value {
	r := wire.NewReader([]byte(k))
	return r.BytesField()
}

// groupsString renders a partition for reports.
func groupsString(name string, ps []types.ProcessID) string {
	return fmt.Sprintf("%s=%v", name, ps)
}
