package bench

import (
	"fmt"
	"sort"
	"time"

	"repro/internal/core"
	"repro/internal/lowerbound"
	"repro/internal/msg"
	"repro/internal/sim"
	"repro/internal/types"
)

// delta is the message-delay bound used by all figure experiments.
const delta = 10 * time.Millisecond

// timeline aggregates traced deliveries by (Δ-time, kind).
type timeline struct {
	counts map[[2]int]int // [stepOfDelivery, kind] -> messages
}

func newTimeline() *timeline {
	return &timeline{counts: make(map[[2]int]int)}
}

func (tl *timeline) trace(ev sim.TraceEvent, m msg.Message) {
	step := int((ev.Time + delta - 1) / delta)
	tl.counts[[2]int{step, int(m.Kind())}]++
}

func (tl *timeline) addRows(r *Report) {
	keys := make([][2]int, 0, len(tl.counts))
	for k := range tl.counts {
		keys = append(keys, k)
	}
	sort.Slice(keys, func(i, j int) bool {
		if keys[i][0] != keys[j][0] {
			return keys[i][0] < keys[j][0]
		}
		return keys[i][1] < keys[j][1]
	})
	for _, k := range keys {
		r.AddRow(
			fmt.Sprintf("%dΔ", k[0]),
			msg.Kind(k[1]).String(),
			fmt.Sprintf("%d", tl.counts[k]),
		)
	}
}

// Figure1a reproduces Figure 1a: a correct leader proposing in view v — two
// message delays from propose to decision, on the minimal n = 4 (f = t = 1)
// cluster.
func Figure1a() (*Report, error) {
	cfg := types.Generalized(1, 1)
	tl := newTimeline()
	c, err := sim.NewCluster(sim.ClusterConfig{
		Cfg:    cfg,
		Inputs: sim.UniformInputs(cfg.N, types.Value("x")),
		Seed:   1,
		Delta:  delta,
		Trace:  tl.trace,
	})
	if err != nil {
		return nil, err
	}
	if _, err := c.Run(time.Minute); err != nil {
		return nil, err
	}
	if err := c.CheckAgreement(true); err != nil {
		return nil, err
	}
	r := &Report{
		ID:     "F1a",
		Title:  "fast path: propose + ack, decision after 2 message delays (n=4, f=t=1)",
		Header: []string{"time", "message", "count"},
	}
	tl.addRows(r)
	steps, _ := c.MaxDecisionSteps()
	r.AddNote("paper: decision after 2 message delays; measured: %d", steps)
	for _, p := range c.CorrectIDs() {
		d, _ := c.Process(p).Decided()
		if d.Path != types.FastPath {
			r.AddNote("UNEXPECTED: %s decided via %s", p, d.Path)
		}
	}
	return r, nil
}

// Figure1b reproduces Figure 1b: the two-phase view change — votes to the
// new leader, then the CertReq/CertAck round that bounds the progress
// certificate — after which the new leader's proposal decides.
func Figure1b() (*Report, error) {
	cfg := types.Generalized(1, 1)
	leader1 := cfg.Leader(1)
	tl := newTimeline()
	c, err := sim.NewCluster(sim.ClusterConfig{
		Cfg:    cfg,
		Inputs: sim.DistinctInputs(cfg.N, "in"),
		Seed:   2,
		Delta:  delta,
		Trace:  tl.trace,
		Faulty: map[types.ProcessID]core.Machine{leader1: nil},
	})
	if err != nil {
		return nil, err
	}
	if _, err := c.Run(time.Minute); err != nil {
		return nil, err
	}
	if err := c.CheckAgreement(true); err != nil {
		return nil, err
	}
	r := &Report{
		ID:     "F1b",
		Title:  "view change: vote → CertReq → CertAck → propose (n=4, leader of view 1 crashed)",
		Header: []string{"time", "message", "count"},
	}
	tl.addRows(r)
	for _, p := range c.CorrectIDs() {
		d, _ := c.Process(p).Decided()
		r.AddNote("%s decided %s in view %s (%s path)", p, d.Value, d.View, d.Path)
	}
	r.AddNote("paper: the new leader collects n−f votes, gathers f+1 CertAcks from 2f+1 processes, then proposes")
	return r, nil
}

// Figure5 reproduces Figure 5: the slow path of the generalized protocol
// with n=7, f=2, t=1 and two actual failures — commit certificates decide
// after three message delays.
func Figure5() (*Report, error) {
	cfg := types.Generalized(2, 1) // n=7
	tl := newTimeline()
	c, err := sim.NewCluster(sim.ClusterConfig{
		Cfg:    cfg,
		Inputs: sim.UniformInputs(cfg.N, types.Value("x")),
		Seed:   3,
		Delta:  delta,
		Trace:  tl.trace,
		Faulty: map[types.ProcessID]core.Machine{5: nil, 6: nil},
	})
	if err != nil {
		return nil, err
	}
	if _, err := c.Run(time.Minute); err != nil {
		return nil, err
	}
	if err := c.CheckAgreement(true); err != nil {
		return nil, err
	}
	r := &Report{
		ID:     "F5",
		Title:  "slow path: ack signatures → Commit, decision after 3 message delays (n=7, f=2, t=1, 2 failures)",
		Header: []string{"time", "message", "count"},
	}
	tl.addRows(r)
	steps, _ := c.MaxDecisionSteps()
	r.AddNote("paper: with t < failures ≤ f the slow path decides in 3 message delays; measured: %d", steps)
	for _, p := range c.CorrectIDs() {
		d, _ := c.Process(p).Decided()
		if d.Path != types.SlowPath {
			r.AddNote("UNEXPECTED: %s decided via %s", p, d.Path)
		}
	}
	return r, nil
}

// LowerBound reproduces Figures 2–4: the five-execution construction of
// Theorem 4.5 breaking a strawman t-two-step protocol at n = 3f+2t−2, and
// the tight-configuration counterpart at n = 3f+2t−1 resisting the same
// adversarial pattern.
func LowerBound(f, t int) (*Report, error) {
	res, err := lowerbound.RunConstruction(f, t, delta)
	if err != nil {
		return nil, err
	}
	r := &Report{
		ID: "F2-F4",
		Title: fmt.Sprintf("lower bound (Theorem 4.5): strawman at n=3f+2t-2=%d vs protocol at n=3f+2t-1=%d (f=%d, t=%d)",
			res.Groups.N, types.MinProcesses(f, t), f, t),
		Header: []string{"execution", "byzantine", "decisions", "violation"},
	}
	for _, rep := range res.Reports {
		decided := summarizeDecisions(rep)
		viol := "-"
		if rep.Violation != "" {
			viol = rep.Violation
		}
		r.AddRow(rep.Name, fmt.Sprintf("%v", rep.Byzantine), decided, viol)
	}
	r.AddNote("groups: %s", res.Groups)
	if len(res.Violations) > 0 {
		r.AddNote("disagreement exhibited in %v — no t-two-step protocol exists on 3f+2t-2 processes", res.Violations)
	} else {
		r.AddNote("UNEXPECTED: no disagreement found")
	}
	tight, err := lowerbound.RunTightConfiguration(f, t, delta, 42)
	if err != nil {
		return nil, err
	}
	r.AddNote("tight bound n=%d under the same adversary: %d splits, %d violations, %d undecided",
		tight.Cfg.N, tight.Splits, tight.Violations, tight.Undecided)
	return r, nil
}

func summarizeDecisions(rep *lowerbound.ExecutionReport) string {
	byValue := make(map[string]int)
	for _, v := range rep.Decisions {
		byValue[string(v)]++
	}
	keys := make([]string, 0, len(byValue))
	for k := range byValue {
		keys = append(keys, k)
	}
	sort.Strings(keys)
	parts := make([]string, 0, len(keys))
	for _, k := range keys {
		parts = append(parts, fmt.Sprintf("%d×%q", byValue[k], k))
	}
	out := ""
	for i, p := range parts {
		if i > 0 {
			out += " "
		}
		out += p
	}
	return out
}
