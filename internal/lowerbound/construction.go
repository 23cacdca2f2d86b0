package lowerbound

import (
	"bytes"
	"fmt"
	"slices"
	"sort"
	"strings"
	"time"

	"repro/internal/core"
	"repro/internal/msg"
	"repro/internal/sigcrypto"
	"repro/internal/sim"
	"repro/internal/types"
)

// Values used throughout the construction. "0" < "1" matters only for the
// strawman's deterministic tie-break.
var (
	value0 = types.Value("0")
	value1 = types.Value("1")
)

// Groups is the partition of Π used by the proof of Theorem 4.5 (Figure 2):
// the influential process p plus five groups with |P1| = |P5| = t and
// |P2| = |P3| = |P4| = f−1, for a total of n = 3f + 2t − 2 processes.
type Groups struct {
	F, T, N int
	P       types.ProcessID
	P1      []types.ProcessID
	P2      []types.ProcessID
	P3      []types.ProcessID
	P4      []types.ProcessID
	P5      []types.ProcessID
}

// MakeGroups partitions 3f+2t−2 processes as in Figure 2. The construction
// requires f ≥ t ≥ 2 (for t ≤ 1 the theorem already follows from the
// classic 3f+1 bound, as the paper notes).
func MakeGroups(f, t int) (Groups, error) {
	if t < 2 || f < t {
		return Groups{}, fmt.Errorf("lowerbound: construction needs f >= t >= 2, got f=%d t=%d", f, t)
	}
	n := 3*f + 2*t - 2
	g := Groups{F: f, T: t, N: n, P: Leader}
	next := 1
	take := func(k int) []types.ProcessID {
		out := make([]types.ProcessID, 0, k)
		for i := 0; i < k; i++ {
			out = append(out, types.ProcessID(next))
			next++
		}
		return out
	}
	g.P1 = take(t)
	g.P2 = take(f - 1)
	g.P3 = take(f - 1)
	g.P4 = take(f - 1)
	g.P5 = take(t)
	return g, nil
}

func (g Groups) String() string {
	return fmt.Sprintf("p=%v %s %s %s %s %s", g.P,
		groupsString("P1", g.P1), groupsString("P2", g.P2), groupsString("P3", g.P3),
		groupsString("P4", g.P4), groupsString("P5", g.P5))
}

func member(set []types.ProcessID, p types.ProcessID) bool {
	for _, q := range set {
		if q == p {
			return true
		}
	}
	return false
}

// ExecutionReport describes one constructed execution.
type ExecutionReport struct {
	Name      string
	Byzantine []types.ProcessID
	// Decisions maps every correct process to its decided value.
	Decisions map[types.ProcessID]types.Value
	// Steps maps every correct process to its decision latency in Δ units.
	Steps map[types.ProcessID]types.Step
	// Violation is non-empty when two correct processes decided different
	// values.
	Violation string
}

// decidedValues returns the distinct values decided by correct processes,
// in bytewise order.
func (r *ExecutionReport) decidedValues() []types.Value {
	var out []types.Value
	for _, v := range r.Decisions {
		i := sort.Search(len(out), func(i int) bool { return bytes.Compare(out[i], v) >= 0 })
		if i == len(out) || !out[i].Equal(v) {
			out = slices.Insert(out, i, v)
		}
	}
	return out
}

// Result is the outcome of running the full construction.
type Result struct {
	Groups  Groups
	Reports []*ExecutionReport // ρ1..ρ5 in order
	// Violations lists the executions in which the strawman's correct
	// processes disagreed — Theorem 4.5 predicts at least one among ρ2–ρ4.
	Violations []string
}

// RunConstruction executes the five-execution argument of Theorem 4.5
// against the strawman protocol at n = 3f + 2t − 2.
func RunConstruction(f, t int, delta time.Duration) (*Result, error) {
	g, err := MakeGroups(f, t)
	if err != nil {
		return nil, err
	}
	if delta <= 0 {
		delta = sim.DefaultDelta
	}
	res := &Result{Groups: g}
	for i := 1; i <= 5; i++ {
		rep, err := runExecution(g, i, delta)
		if err != nil {
			return nil, fmt.Errorf("rho%d: %w", i, err)
		}
		res.Reports = append(res.Reports, rep)
		if rep.Violation != "" {
			res.Violations = append(res.Violations, rep.Name)
		}
	}
	return res, nil
}

// runExecution builds and runs execution ρi of the proof:
//
//   - ρ1 (= ρ′′): p correct with input 1, P1 crashes at Δ → all decide 1 at
//     2Δ (a T-faulty two-step execution).
//   - ρ5 (= ρ′): p correct with input 0, P5 crashes at Δ → all decide 0.
//   - ρ2, ρ3, ρ4: p is Byzantine and equivocates, sending the ρ5 proposal
//     (value 0) to groups Pj with j < i and the ρ1 proposal (value 1) to
//     groups with j > i; group Pi is Byzantine (in ρ3 it crashes at Δ; in
//     ρ2/ρ4 it relays the two faces of p to keep P3's view consistent with
//     ρ1/ρ5); messages from P3 to non-P3 processes are delayed beyond every
//     decision, and the cross messages that would let P3 distinguish the
//     executions are delayed past 2Δ (Figure 3).
func runExecution(g Groups, i int, delta time.Duration) (*ExecutionReport, error) {
	rep := &ExecutionReport{
		Name:      fmt.Sprintf("rho%d", i),
		Decisions: make(map[types.ProcessID]types.Value),
		Steps:     make(map[types.ProcessID]types.Step),
	}
	fallback := 6 * delta
	holdback := 12 * delta // the proof's time T

	groupOf := func(p types.ProcessID) int {
		switch {
		case member(g.P1, p):
			return 1
		case member(g.P2, p):
			return 2
		case member(g.P3, p):
			return 3
		case member(g.P4, p):
			return 4
		case member(g.P5, p):
			return 5
		default:
			return 0 // p itself
		}
	}

	// Latency: Δ everywhere, with the proof's two delay patterns in ρ2/ρ4.
	latency := func(from, to types.ProcessID, _ msg.Message, now sim.Time) sim.Fate {
		d := sim.Time(delta)
		if i == 2 || i == 4 {
			if groupOf(from) == 3 && groupOf(to) != 3 {
				// P3 decides "in silence": its messages reach non-P3
				// processes only at time T.
				d = max(d, holdback-now)
			}
			// The group that is correct in ρi but Byzantine in ρ{i±1} must
			// not contaminate P3 before it decides at 2Δ: round-2 messages
			// from P1 (ρ2) / P5 (ρ4) to P3 arrive after 2Δ.
			shield := 1
			if i == 4 {
				shield = 5
			}
			if groupOf(from) == shield && groupOf(to) == 3 {
				d = max(d, 3*sim.Time(delta)-now)
			}
		}
		return sim.Fate{Delay: d}
	}

	// Correct processes run the strawman with input 0 — but p in ρ1.
	strawman := func(q types.ProcessID, _ sigcrypto.Scheme) (core.Machine, error) {
		if q == g.P && i == 1 {
			return NewStrawman(g.N, g.T, q, value1, fallback), nil
		}
		return NewStrawman(g.N, g.T, q, value0, fallback), nil
	}
	faulty := make(map[types.ProcessID]core.Machine)
	crashAt := make(map[types.ProcessID]sim.Time)
	switch i {
	case 1, 5:
		// ρ1 / ρ5: p correct with input 1 / 0; P1 / P5 crash at Δ.
		crashGroup := g.P1
		if i == 5 {
			crashGroup = g.P5
		}
		for _, q := range crashGroup {
			crashAt[q] = sim.Time(delta)
		}
	default:
		// ρ2..ρ4: p Byzantine, equivocating by group index.
		faulty[g.P] = &adversary{self: g.P, n: g.N, face: func(q types.ProcessID) msg.Message {
			switch grp := groupOf(q); {
			case grp < i, i == 3 && grp == 3:
				return ProposeMsg(value0)
			case grp > i:
				return ProposeMsg(value1)
			}
			return nil
		}}
		// Group Pi is Byzantine too. ρ3: P3 crashes at Δ before sending
		// round-2 messages. ρ2: P2 relays value 1 to P3 (as in ρ1) and value 0
		// to everyone else (as in ρ3/ρ4). ρ4: P4 relays value 0 to P3 (as in
		// ρ5) and value 1 to everyone else (as in ρ1).
		toP3, toRest := value0, value1
		if i == 2 {
			toP3, toRest = value1, value0
		}
		for q := types.ProcessID(1); int(q) < g.N; q++ {
			switch {
			case groupOf(q) != i:
			case i == 3:
				crashAt[q] = sim.Time(delta)
			default:
				faulty[q] = &adversary{self: q, n: g.N, at: delta, face: func(q types.ProcessID) msg.Message {
					if member(g.P3, q) {
						return AckMsg(toP3)
					}
					return AckMsg(toRest)
				}}
			}
		}
	}

	c, err := sim.NewCluster(sim.ClusterConfig{
		Cfg:     types.Config{N: g.N, F: g.F, T: g.T},
		Machine: strawman,
		Delta:   delta,
		Fate:    latency,
		Faulty:  faulty,
		CrashAt: crashAt,
	})
	if err != nil {
		return nil, err
	}
	if _, err := c.Run(time.Duration(g.N) * holdback); err != nil {
		return nil, err
	}
	for q := range faulty {
		rep.Byzantine = append(rep.Byzantine, q)
	}
	for q := range crashAt {
		rep.Byzantine = append(rep.Byzantine, q)
	}
	slices.Sort(rep.Byzantine)
	for _, p := range c.CorrectIDs() {
		d, _, ok := c.Decision(p)
		if !ok {
			return nil, fmt.Errorf("correct process %s did not decide", p)
		}
		rep.Decisions[p] = d.Value
		rep.Steps[p], _ = c.DecisionSteps(p)
	}
	if vals := rep.decidedValues(); len(vals) > 1 {
		strs := make([]string, len(vals))
		for i, v := range vals {
			strs[i] = v.String()
		}
		rep.Violation = fmt.Sprintf("correct processes decided %s", strings.Join(strs, " and "))
	}
	return rep, nil
}

// adversary is a Byzantine process of the construction: at time at (0: on
// start) it sends every other process q the message face(q), if any — the
// influential process p equivocating in ρi (the ρ5 proposal 0 to groups Pj
// with j < i, the ρ1 proposal 1 to groups with j > i), or a member of group
// Pi in ρ2/ρ4 acknowledging toward P3 and toward everyone else the value the
// corresponding adjacent execution has it acknowledge.
type adversary struct {
	self types.ProcessID
	n    int
	at   core.Time
	face func(q types.ProcessID) msg.Message
}

func (a *adversary) ID() types.ProcessID { return a.self }

func (a *adversary) Init(core.Time) []core.Action {
	if a.at > 0 {
		return []core.Action{core.TimerAction{Deadline: a.at}}
	}
	return a.Tick(0)
}

func (a *adversary) Deliver(types.ProcessID, msg.Message, core.Time) []core.Action { return nil }

func (a *adversary) Tick(core.Time) []core.Action {
	var out []core.Action
	for q := types.ProcessID(0); int(q) < a.n; q++ {
		if q == a.self {
			continue
		}
		if m := a.face(q); m != nil {
			out = append(out, core.SendAction{To: q, Msg: m})
		}
	}
	return out
}
