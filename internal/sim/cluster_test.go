package sim

import (
	"testing"
	"time"

	"repro/internal/core"
	"repro/internal/types"
)

func TestFastPathAllCorrect(t *testing.T) {
	for _, cfg := range []types.Config{
		types.Generalized(1, 1), // n=4
		types.Vanilla(1),        // n=4
		types.Vanilla(2),        // n=9
		types.Generalized(2, 1), // n=7
		types.Generalized(3, 2), // n=12
	} {
		cfg := cfg
		t.Run(cfg.String(), func(t *testing.T) {
			c, err := NewCluster(ClusterConfig{
				Cfg:    cfg,
				Inputs: UniformInputs(cfg.N, types.Value("alpha")),
				Seed:   1,
			})
			if err != nil {
				t.Fatal(err)
			}
			if _, err := c.Run(10 * time.Second); err != nil {
				t.Fatal(err)
			}
			if err := c.CheckAgreement(true); err != nil {
				t.Fatal(err)
			}
			steps, ok := c.MaxDecisionSteps()
			if !ok {
				t.Fatal("not all decided")
			}
			if steps != 2 {
				t.Fatalf("expected 2-step decision, got %d", steps)
			}
			for _, p := range c.CorrectIDs() {
				d, _ := c.Process(p).Decided()
				if !d.Value.Equal(types.Value("alpha")) {
					t.Fatalf("process %s decided %s, want alpha", p, d.Value)
				}
				if d.Path != types.FastPath {
					t.Fatalf("process %s decided via %s, want fast", p, d.Path)
				}
			}
		})
	}
}

func TestFastPathWithTCrashedProcesses(t *testing.T) {
	// The generalized protocol stays fast while at most t processes are
	// faulty, even at optimal resilience n = 3f+1 with t = 1 (Section 3.4).
	for _, cfg := range []types.Config{
		types.Generalized(2, 1), // n=7
		types.Generalized(3, 1), // n=10
		types.Vanilla(2),        // n=9, t=2
	} {
		cfg := cfg
		t.Run(cfg.String(), func(t *testing.T) {
			faulty := make(map[types.ProcessID]core.Machine, cfg.T)
			// Silence the last t processes (never the view-1 leader, p1).
			for i := 0; i < cfg.T; i++ {
				faulty[types.ProcessID(cfg.N-1-i)] = nil
			}
			c, err := NewCluster(ClusterConfig{
				Cfg:    cfg,
				Inputs: UniformInputs(cfg.N, types.Value("beta")),
				Seed:   2,
				Faulty: faulty,
			})
			if err != nil {
				t.Fatal(err)
			}
			if _, err := c.Run(10 * time.Second); err != nil {
				t.Fatal(err)
			}
			if err := c.CheckAgreement(true); err != nil {
				t.Fatal(err)
			}
			steps, _ := c.MaxDecisionSteps()
			if steps != 2 {
				t.Fatalf("expected 2-step decision with %d silent processes, got %d", cfg.T, steps)
			}
		})
	}
}

func TestSlowPathWithMoreThanTFailures(t *testing.T) {
	// With t < failures ≤ f and a correct leader, the slow path decides in
	// three message delays (Appendix A.1, Figure 5: n=7, f=2, t=1).
	cfg := types.Generalized(2, 1) // n=7
	faulty := map[types.ProcessID]core.Machine{
		types.ProcessID(5): nil,
		types.ProcessID(6): nil,
	}
	c, err := NewCluster(ClusterConfig{
		Cfg:    cfg,
		Inputs: UniformInputs(cfg.N, types.Value("gamma")),
		Seed:   3,
		Faulty: faulty,
	})
	if err != nil {
		t.Fatal(err)
	}
	if _, err := c.Run(10 * time.Second); err != nil {
		t.Fatal(err)
	}
	if err := c.CheckAgreement(true); err != nil {
		t.Fatal(err)
	}
	steps, _ := c.MaxDecisionSteps()
	if steps != 3 {
		t.Fatalf("expected 3-step slow-path decision, got %d", steps)
	}
	for _, p := range c.CorrectIDs() {
		d, _ := c.Process(p).Decided()
		if d.Path != types.SlowPath {
			t.Fatalf("process %s decided via %s, want slow", p, d.Path)
		}
	}
}

func TestViewChangeAfterLeaderCrash(t *testing.T) {
	// Leader of view 1 is silent: the view synchronizer elects leader(2),
	// which runs the view change and proposes; all correct processes decide.
	for _, cfg := range []types.Config{
		types.Generalized(1, 1),
		types.Generalized(2, 1),
		types.Vanilla(2),
	} {
		cfg := cfg
		t.Run(cfg.String(), func(t *testing.T) {
			leader1 := cfg.Leader(1)
			c, err := NewCluster(ClusterConfig{
				Cfg:    cfg,
				Inputs: DistinctInputs(cfg.N, "in"),
				Seed:   4,
				Faulty: map[types.ProcessID]core.Machine{leader1: nil},
			})
			if err != nil {
				t.Fatal(err)
			}
			if _, err := c.Run(time.Minute); err != nil {
				t.Fatal(err)
			}
			if err := c.CheckAgreement(true); err != nil {
				t.Fatal(err)
			}
			// The decision must be in a view greater than 1.
			for _, p := range c.CorrectIDs() {
				d, _ := c.Process(p).Decided()
				if d.View < 2 {
					t.Fatalf("process %s decided in view %s, want ≥ 2", p, d.View)
				}
			}
		})
	}
}

func TestDistinctInputsAgreeOnProposerValue(t *testing.T) {
	// Extended validity: with all processes correct, only a proposed value
	// can be decided; with a correct leader it is the leader's input.
	cfg := types.Generalized(1, 1)
	c, err := NewCluster(ClusterConfig{
		Cfg:    cfg,
		Inputs: DistinctInputs(cfg.N, "val"),
		Seed:   5,
	})
	if err != nil {
		t.Fatal(err)
	}
	if _, err := c.Run(10 * time.Second); err != nil {
		t.Fatal(err)
	}
	if err := c.CheckAgreement(true); err != nil {
		t.Fatal(err)
	}
	leader := cfg.Leader(1)
	want := c.Process(leader).Replica().Input()
	for _, p := range c.CorrectIDs() {
		d, _ := c.Process(p).Decided()
		if !d.Value.Equal(want) {
			t.Fatalf("process %s decided %s, want leader input %s", p, d.Value, want)
		}
	}
}

func TestCrashAtDelta(t *testing.T) {
	// The T-faulty two-step execution of Section 4.1: t processes follow
	// the protocol during the first round and crash at Δ. All correct
	// processes still decide in two steps.
	cfg := types.Generalized(2, 1)
	c, err := NewCluster(ClusterConfig{
		Cfg:     cfg,
		Inputs:  UniformInputs(cfg.N, types.Value("x")),
		Seed:    6,
		CrashAt: map[types.ProcessID]Time{types.ProcessID(3): DefaultDelta},
	})
	if err != nil {
		t.Fatal(err)
	}
	if _, err := c.Run(10 * time.Second); err != nil {
		t.Fatal(err)
	}
	if err := c.CheckAgreement(true); err != nil {
		t.Fatal(err)
	}
	steps, _ := c.MaxDecisionSteps()
	if steps != 2 {
		t.Fatalf("expected 2-step decision, got %d", steps)
	}
}
