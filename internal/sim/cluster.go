package sim

import (
	"errors"
	"fmt"
	"time"

	"repro/internal/core"
	"repro/internal/sigcrypto"
	"repro/internal/types"
)

// Cluster wires n core.Process state machines into one simulated network,
// with hooks to replace any subset of them by faulty nodes. It is the
// standard fixture of the test suite and the experiment harness.
type Cluster struct {
	Net    *Network
	Cfg    types.Config
	Scheme sigcrypto.Scheme

	procs   []*core.Process // nil for replaced (faulty) slots
	correct []bool
}

// ClusterConfig parameterizes NewCluster.
type ClusterConfig struct {
	// Cfg is the resilience configuration (required).
	Cfg types.Config
	// Inputs are the per-process input values; len(Inputs) must be n.
	Inputs []types.Value
	// Seed seeds the deterministic signature scheme.
	Seed int64
	// Delta is the message-delay bound (DefaultDelta if 0).
	Delta Time
	// BaseTimeout is the view-1 timer (a multiple of Delta is sensible).
	// Defaults to 10×Delta, long enough that the fast path never races the
	// first view change under synchrony.
	BaseTimeout time.Duration
	// Latency overrides the synchronous Δ latency model.
	Latency LatencyFunc
	// Trace observes deliveries.
	Trace TraceFunc
	// Faulty maps process IDs to replacement nodes. A nil map entry value
	// installs SilentNode. Processes in Faulty are excluded from the
	// all-correct-decided termination condition and from agreement checks.
	Faulty map[types.ProcessID]Node
	// CrashAt makes the (otherwise correct) process go silent at the given
	// time (Network.CrashAt) — the T-faulty behaviour of Section 4.1.
	CrashAt map[types.ProcessID]Time
}

// NewCluster builds the simulated cluster.
func NewCluster(cc ClusterConfig) (*Cluster, error) {
	cfg := cc.Cfg
	if err := cfg.Validate(); err != nil {
		return nil, err
	}
	if len(cc.Inputs) != cfg.N {
		return nil, fmt.Errorf("sim: %d inputs for n=%d", len(cc.Inputs), cfg.N)
	}
	delta := cc.Delta
	if delta == 0 {
		delta = DefaultDelta
	}
	baseTimeout := cc.BaseTimeout
	if baseTimeout == 0 {
		baseTimeout = 10 * delta
	}
	net := NewNetwork(cfg.N, WithDelta(delta), WithLatency(cc.Latency), WithTrace(cc.Trace))
	scheme := sigcrypto.NewHMAC(cfg.N, cc.Seed)

	c := &Cluster{
		Net:     net,
		Cfg:     cfg,
		Scheme:  scheme,
		procs:   make([]*core.Process, cfg.N),
		correct: make([]bool, cfg.N),
	}
	faulty := 0
	for i := 0; i < cfg.N; i++ {
		pid := types.ProcessID(i)
		if node, bad := cc.Faulty[pid]; bad {
			faulty++
			if node == nil {
				node = SilentNode{}
			}
			net.SetNode(pid, node)
			continue
		}
		p, err := core.NewProcess(cfg, pid, scheme.Signer(pid), scheme.Verifier(), cc.Inputs[i], baseTimeout)
		if err != nil {
			return nil, err
		}
		c.procs[i] = p
		c.correct[i] = true
		net.SetNode(pid, NewMachineNode(p))
		if crashAt, ok := cc.CrashAt[pid]; ok {
			net.CrashAt(pid, crashAt)
			c.correct[i] = false // counted as faulty for termination/agreement
			faulty++
		}
	}
	if faulty > cfg.F {
		return nil, fmt.Errorf("sim: %d faulty processes exceeds f=%d", faulty, cfg.F)
	}
	return c, nil
}

// Process returns the state machine of process p (nil for faulty slots).
func (c *Cluster) Process(p types.ProcessID) *core.Process { return c.procs[p] }

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
		if !ok {
			continue
		}
		if _, decided := c.procs[i].Decided(); !decided {
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
		d, decided := c.procs[i].Decided()
		if !decided {
			if requireAll {
				return fmt.Errorf("%w: %s", ErrNotDecided, types.ProcessID(i))
			}
			continue
		}
		if ref == nil {
			dd := d
			ref = &dd
			continue
		}
		if !ref.Value.Equal(d.Value) {
			return fmt.Errorf("%w: %s vs %s", ErrDisagreement, ref.Value, d.Value)
		}
	}
	return nil
}

// MaxDecisionSteps returns the maximum decision latency over correct
// processes, in message delays.
func (c *Cluster) MaxDecisionSteps() (types.Step, bool) {
	var worst types.Step
	for i, ok := range c.correct {
		if !ok {
			continue
		}
		steps, decided := c.Net.DecisionSteps(types.ProcessID(i))
		if !decided {
			return 0, false
		}
		if steps > worst {
			worst = steps
		}
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
