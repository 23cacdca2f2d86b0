package sim

import (
	"errors"
	"fmt"

	"repro/internal/core"
	"repro/internal/msg"
	"repro/internal/node"
	"repro/internal/sigcrypto"
	"repro/internal/types"
)

// Cluster hosts one consensus instance on a simulated network: every process
// is a core.Machine run by a node.Runner — the runtime deployments use over
// TCP — on the process's endpoint and clock, started in process order. The
// machines are the paper's protocol unless the caller supplies others (the
// baselines, the lower-bound strawman), and any of them can be replaced by a
// faulty machine. It is the standard fixture of the single-instance tests
// and of the experiment harness, and the one place messages are decoded on
// the simulator: for the message-level Fate, the Trace and the Stats.
type Cluster struct {
	Net *Network
	Cfg types.Config

	delta    Time
	machines []core.Machine // nil for silent processes
	correct  []bool
	decided  []decision
	stats    Stats
}

// decision is one process's recorded Decide callback.
type decision struct {
	d  types.Decision
	at Time
	ok bool
}

// Stats aggregates delivered message counts per message kind.
type Stats struct {
	Messages map[msg.Kind]int
}

// TotalMessages returns the total number of delivered messages.
func (s Stats) TotalMessages() int {
	total := 0
	for _, c := range s.Messages {
		total += c
	}
	return total
}

// ClusterConfig parameterizes NewCluster.
type ClusterConfig struct {
	// Cfg is the resilience configuration (required). It configures the
	// paper's protocol; with Machine set only N and F are read.
	Cfg types.Config
	// Machine, if set, builds process p's machine, with the keys of the
	// cluster's signature scheme, in place of the paper's protocol — whose
	// view-1 timer is 10×Delta, long enough that the fast path never races
	// the first view change under synchrony.
	Machine func(p types.ProcessID, keys sigcrypto.Scheme) (core.Machine, error)
	// Inputs are the paper's protocol's per-process input values;
	// len(Inputs) must be n.
	Inputs []types.Value
	// Seed seeds the signature scheme, sigcrypto.NewHMAC(n, Seed): a faulty
	// machine's keys come from the same call.
	Seed int64
	// Delta is the message-delay bound (DefaultDelta if 0).
	Delta Time
	// Fate rules on every message sent, like a PayloadFunc on the decoded
	// message. Without one every message is delivered after Δ.
	Fate func(from, to types.ProcessID, m msg.Message, now Time) Fate
	// Trace observes every delivery with its decoded message.
	Trace func(ev TraceEvent, m msg.Message)
	// Faulty maps process IDs to the machines replacing them; a nil machine
	// is a process mute from the start (its endpoint takes deliveries and
	// ignores them). Processes in Faulty are excluded from the
	// all-correct-decided termination condition and from agreement checks.
	Faulty map[types.ProcessID]core.Machine
	// CrashAt makes the (otherwise correct) process go silent at the given
	// time (Network.CrashAt) — the T-faulty behaviour of Section 4.1.
	CrashAt map[types.ProcessID]Time
}

// NewCluster builds the simulated cluster and starts every process.
func NewCluster(cc ClusterConfig) (*Cluster, error) {
	cfg := cc.Cfg
	delta := cc.Delta
	if delta == 0 {
		delta = DefaultDelta
	}
	build := cc.Machine
	if build == nil {
		var err error
		if build, err = protocol(cc, delta); err != nil {
			return nil, err
		}
	}
	c := &Cluster{
		Cfg:      cfg,
		delta:    delta,
		machines: make([]core.Machine, cfg.N),
		correct:  make([]bool, cfg.N),
		decided:  make([]decision, cfg.N),
		stats:    Stats{Messages: make(map[msg.Kind]int)},
	}
	c.Net = NewNetwork(cfg.N, WithDelta(delta), WithTrace(c.observe(cc.Trace)))
	if rule := cc.Fate; rule != nil {
		c.Net.SetPayloadFunc(func(from, to types.ProcessID, payload []byte, now Time) Fate {
			m, err := msg.Decode(payload)
			if err != nil {
				return Fate{Delay: delta} // dropped on delivery
			}
			return rule(from, to, m, now)
		})
	}
	keys := sigcrypto.NewHMAC(cfg.N, cc.Seed)
	faulty := 0
	for i := range c.machines {
		pid := types.ProcessID(i)
		m, bad := cc.Faulty[pid]
		if !bad {
			var err error
			if m, err = build(pid, keys); err != nil {
				return nil, err
			}
		}
		c.machines[i] = m
		if crashAt, ok := cc.CrashAt[pid]; ok {
			c.Net.CrashAt(pid, crashAt)
			bad = true // counted as faulty for termination/agreement
		}
		c.correct[i] = !bad
		if bad {
			faulty++
		}
	}
	if faulty > cfg.F {
		return nil, fmt.Errorf("sim: %d faulty processes exceeds f=%d", faulty, cfg.F)
	}
	for i, m := range c.machines {
		pid := types.ProcessID(i)
		tr := c.Net.Transport(pid)
		if m == nil {
			tr.SetHandler(func(types.ProcessID, []byte) {})
			if err := tr.Start(); err != nil {
				return nil, err
			}
			continue
		}
		r := node.NewRunner(c.Net.Clock(pid), m, tr, func(d types.Decision) { c.record(pid, d) })
		if err := r.Start(); err != nil {
			return nil, err
		}
	}
	return c, nil
}

// protocol returns the builder of the paper's protocol configured by cc.
func protocol(cc ClusterConfig, delta Time) (func(types.ProcessID, sigcrypto.Scheme) (core.Machine, error), error) {
	cfg := cc.Cfg
	if err := cfg.Validate(); err != nil {
		return nil, err
	}
	if len(cc.Inputs) != cfg.N {
		return nil, fmt.Errorf("sim: %d inputs for n=%d", len(cc.Inputs), cfg.N)
	}
	return func(p types.ProcessID, keys sigcrypto.Scheme) (core.Machine, error) {
		return core.NewProcess(cfg, p, keys.Signer(p), keys.Verifier(), cc.Inputs[p], 10*delta)
	}, nil
}

// observe decodes every delivery for the statistics and the caller's trace;
// a payload that does not decode is dropped by its receiver and not counted.
func (c *Cluster) observe(trace func(TraceEvent, msg.Message)) TraceFunc {
	return func(ev TraceEvent) {
		m, err := msg.Decode(ev.Payload)
		if err != nil {
			return
		}
		c.stats.Messages[m.Kind()]++
		if trace != nil {
			trace(ev, m)
		}
	}
}

// record is process p's decide callback: the first decision, at the virtual
// time it was made.
func (c *Cluster) record(p types.ProcessID, d types.Decision) {
	if !c.decided[p].ok {
		c.decided[p] = decision{d: d, at: c.Net.Now(), ok: true}
	}
}

// Process returns the paper-protocol state machine of process p (nil for
// faulty slots and other protocols).
func (c *Cluster) Process(p types.ProcessID) *core.Process {
	proc, _ := c.machines[p].(*core.Process)
	return proc
}

// Stats returns delivery statistics collected so far.
func (c *Cluster) Stats() Stats { return c.stats }

// Decision returns process p's decision and the virtual time it was made.
func (c *Cluster) Decision(p types.ProcessID) (types.Decision, Time, bool) {
	rec := c.decided[p]
	return rec.d, rec.at, rec.ok
}

// DecisionSteps returns the decision latency of p in message delays
// (Δ units, rounded up), the unit the paper's "two-step" refers to.
func (c *Cluster) DecisionSteps(p types.ProcessID) (types.Step, bool) {
	rec := c.decided[p]
	if !rec.ok {
		return 0, false
	}
	return types.Step((rec.at + c.delta - 1) / c.delta), true
}

// CorrectIDs returns the identifiers of correct processes.
func (c *Cluster) CorrectIDs() []types.ProcessID {
	out := make([]types.ProcessID, 0, c.Cfg.N)
	for i, ok := range c.correct {
		if ok {
			out = append(out, types.ProcessID(i))
		}
	}
	return out
}

// AllCorrectDecided reports whether every correct process has decided.
func (c *Cluster) AllCorrectDecided() bool {
	for i, ok := range c.correct {
		if ok && !c.decided[i].ok {
			return false
		}
	}
	return true
}

// Run executes the simulation until every correct process decides or the
// virtual time limit expires.
func (c *Cluster) Run(limit Time) (RunResult, error) {
	return c.Net.Run(limit, c.AllCorrectDecided)
}

// Errors reported by cluster invariant checks.
var (
	// ErrDisagreement indicates a consistency violation.
	ErrDisagreement = errors.New("sim: correct processes decided different values")
	// ErrNotDecided indicates a liveness failure within the run limit.
	ErrNotDecided = errors.New("sim: a correct process did not decide")
)

// CheckAgreement verifies the consistency property over all correct
// processes that decided, and — when requireAll is set — that every correct
// process decided.
func (c *Cluster) CheckAgreement(requireAll bool) error {
	var ref *types.Decision
	for i, ok := range c.correct {
		if !ok {
			continue
		}
		rec := c.decided[i]
		if !rec.ok {
			if requireAll {
				return fmt.Errorf("%w: %s", ErrNotDecided, types.ProcessID(i))
			}
			continue
		}
		if ref == nil {
			ref = &rec.d
			continue
		}
		if !ref.Value.Equal(rec.d.Value) {
			return fmt.Errorf("%w: %s vs %s", ErrDisagreement, ref.Value, rec.d.Value)
		}
	}
	return nil
}

// MaxDecisionSteps returns the maximum decision latency over correct
// processes, in message delays.
func (c *Cluster) MaxDecisionSteps() (types.Step, bool) {
	var worst types.Step
	for _, p := range c.CorrectIDs() {
		steps, decided := c.DecisionSteps(p)
		if !decided {
			return 0, false
		}
		worst = max(worst, steps)
	}
	return worst, true
}

// UniformInputs builds n copies of one input value.
func UniformInputs(n int, v types.Value) []types.Value {
	out := make([]types.Value, n)
	for i := range out {
		out[i] = v.Clone()
	}
	return out
}

// DistinctInputs builds n distinct input values with a common prefix.
func DistinctInputs(n int, prefix string) []types.Value {
	out := make([]types.Value, n)
	for i := range out {
		out[i] = types.Value(fmt.Sprintf("%s-%d", prefix, i))
	}
	return out
}
