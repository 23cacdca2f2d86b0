package lowerbound

import (
	"fmt"
	"strings"
	"time"

	"repro/internal/msg"
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

// decidedValues returns the distinct values decided by correct processes.
func (r *ExecutionReport) decidedValues() []types.Value {
	var out []types.Value
	for _, v := range r.Decisions {
		dup := false
		for _, u := range out {
			if u.Equal(v) {
				dup = true
				break
			}
		}
		if !dup {
			out = append(out, v)
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

	byz := make(map[types.ProcessID]bool)
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
	latency := func(from, to types.ProcessID, _ msg.Message, now sim.Time) (sim.Time, bool) {
		d := sim.Time(delta)
		if i == 2 || i == 4 {
			if groupOf(from) == 3 && groupOf(to) != 3 {
				// P3 decides "in silence": its messages reach non-P3
				// processes only at time T.
				if arr := holdback - now; arr > d {
					d = arr
				}
			}
			// The group that is correct in ρi but Byzantine in ρ{i±1} must
			// not contaminate P3 before it decides at 2Δ: round-2 messages
			// from P1 (ρ2) / P5 (ρ4) to P3 arrive after 2Δ.
			shield := 1
			if i == 4 {
				shield = 5
			}
			if groupOf(from) == shield && groupOf(to) == 3 {
				if arr := 3*sim.Time(delta) - now; arr > d {
					d = arr
				}
			}
		}
		return d, true
	}

	net := sim.NewNetwork(g.N, sim.WithDelta(delta), sim.WithLatency(latency))
	correct := make(map[types.ProcessID]*Strawman)

	install := func(p types.ProcessID, input types.Value) {
		s := NewStrawman(g.N, g.T, p, input, fallback)
		correct[p] = s
		net.SetNode(p, sim.NewMachineNode(s))
	}
	installCrashAtDelta := func(p types.ProcessID, input types.Value) {
		s := NewStrawman(g.N, g.T, p, input, fallback)
		net.SetNode(p, sim.NewMachineNode(s))
		net.CrashAt(p, sim.Time(delta))
		byz[p] = true
	}

	switch i {
	case 1, 5:
		// ρ1 / ρ5: p correct; P1 / P5 crash at Δ.
		pInput := value1
		crashGroup := g.P1
		if i == 5 {
			pInput = value0
			crashGroup = g.P5
		}
		install(g.P, pInput)
		for q := types.ProcessID(1); int(q) < g.N; q++ {
			if member(crashGroup, q) {
				installCrashAtDelta(q, value0)
			} else {
				install(q, value0)
			}
		}
	default:
		// ρ2..ρ4: p Byzantine, equivocating by group index.
		byz[g.P] = true
		net.SetNode(g.P, equivocatingLeaderNode(g, i))
		for q := types.ProcessID(1); int(q) < g.N; q++ {
			grp := groupOf(q)
			switch {
			case grp != i:
				install(q, value0)
			case i == 3:
				// ρ3: P3 crashes at Δ before sending round-2 messages.
				installCrashAtDelta(q, value0)
			default:
				// ρ2: P2 relays value 1 to P3 (as in ρ1) and value 0 to
				// everyone else (as in ρ3/ρ4). ρ4: P4 relays value 0 to P3
				// (as in ρ5) and value 1 to everyone else (as in ρ1).
				byz[q] = true
				toP3, toRest := value0, value1
				if i == 2 {
					toP3, toRest = value1, value0
				}
				net.SetNode(q, twoFacedAckerNode(g, q, toP3, toRest, delta))
			}
		}
	}

	rep.Byzantine = sortedIDs(byz)
	allCorrectDecided := func() bool {
		for _, s := range correct {
			if _, ok := s.Decided(); !ok {
				return false
			}
		}
		return true
	}
	if _, err := net.Run(time.Duration(g.N)*holdback, allCorrectDecided); err != nil {
		return nil, err
	}
	for p, s := range correct {
		d, ok := s.Decided()
		if !ok {
			return nil, fmt.Errorf("correct process %s did not decide", p)
		}
		rep.Decisions[p] = d.Value
		if steps, ok := net.DecisionSteps(p); ok {
			rep.Steps[p] = steps
		}
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

// equivocatingLeaderNode implements the Byzantine influential process p in
// ρi: it sends the ρ5 proposal (0) to groups Pj with j < i and the ρ1
// proposal (1) to groups with j > i. Group Pi is Byzantine and needs no
// proposal (in ρ3, the crashed P3 receives value 0, matching the figure).
func equivocatingLeaderNode(g Groups, i int) sim.Node {
	return &sim.FuncNode{
		Start: func(env *sim.Env) {
			for q := types.ProcessID(1); int(q) < g.N; q++ {
				grp := 0
				switch {
				case member(g.P1, q):
					grp = 1
				case member(g.P2, q):
					grp = 2
				case member(g.P3, q):
					grp = 3
				case member(g.P4, q):
					grp = 4
				case member(g.P5, q):
					grp = 5
				}
				switch {
				case grp < i:
					env.Send(q, ProposeMsg(value0))
				case grp > i:
					env.Send(q, ProposeMsg(value1))
				case i == 3 && grp == 3:
					env.Send(q, ProposeMsg(value0))
				}
			}
		},
	}
}

// twoFacedAckerNode implements the Byzantine group Pi in ρ2/ρ4: at time Δ
// (when a correct process would acknowledge), it acknowledges toP3 toward
// group P3 and toRest toward every other process, impersonating the correct
// behaviour of the corresponding adjacent execution.
func twoFacedAckerNode(g Groups, self types.ProcessID, toP3, toRest types.Value, delta time.Duration) sim.Node {
	sent := false
	return &sim.FuncNode{
		Start: func(env *sim.Env) {
			env.SetTimer(sim.Time(delta))
		},
		Timer: func(env *sim.Env) {
			if sent {
				return
			}
			sent = true
			for q := types.ProcessID(0); int(q) < g.N; q++ {
				if q == self {
					continue
				}
				if member(g.P3, q) {
					env.Send(q, AckMsg(toP3))
				} else {
					env.Send(q, AckMsg(toRest))
				}
			}
		},
	}
}

func sortedIDs(set map[types.ProcessID]bool) []types.ProcessID {
	out := make([]types.ProcessID, 0, len(set))
	for p := range set {
		out = append(out, p)
	}
	for i := 1; i < len(out); i++ {
		for j := i; j > 0 && out[j] < out[j-1]; j-- {
			out[j], out[j-1] = out[j-1], out[j]
		}
	}
	return out
}
