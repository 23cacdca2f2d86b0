package byz

import (
	"testing"
	"time"

	"repro/internal/core"
	"repro/internal/msg"
	"repro/internal/sigcrypto"
	"repro/internal/sim"
	"repro/internal/types"
)

// forger signs for process p with the key a cluster of cfg seeded with seed
// gives it.
func forger(cfg types.Config, seed int64, p types.ProcessID) *Forger {
	return NewForger(p, sigcrypto.NewHMAC(cfg.N, seed).Signer(p))
}

// equivocationCluster builds a cluster whose view-1 leader equivocates
// between "left" and "right", sending "left" to the first k correct
// processes.
func equivocationCluster(t *testing.T, cfg types.Config, k int, seed int64) *sim.Cluster {
	t.Helper()
	leader := cfg.Leader(1)
	groupA := make(map[types.ProcessID]bool)
	added := 0
	for i := 0; i < cfg.N && added < k; i++ {
		pid := types.ProcessID(i)
		if pid == leader {
			continue
		}
		groupA[pid] = true
		added++
	}
	eq := &EquivocatingLeader{
		Forger: forger(cfg, seed, leader),
		N:      cfg.N,
		Value1: types.Value("left"),
		Value2: types.Value("right"),
		GroupA: groupA,
	}
	c, err := sim.NewCluster(sim.ClusterConfig{
		Cfg:    cfg,
		Inputs: sim.DistinctInputs(cfg.N, "input"),
		Seed:   seed,
		Faulty: map[types.ProcessID]core.Machine{leader: eq},
	})
	if err != nil {
		t.Fatal(err)
	}
	return c
}

func TestEquivocatingLeaderNeverViolatesConsistency(t *testing.T) {
	for _, cfg := range []types.Config{
		types.Generalized(1, 1), // n=4
		types.Generalized(2, 1), // n=7
		types.Vanilla(2),        // n=9
	} {
		for k := 0; k < cfg.N; k++ {
			c := equivocationCluster(t, cfg, k, int64(100+k))
			if _, err := c.Run(time.Minute); err != nil {
				t.Fatal(err)
			}
			if err := c.CheckAgreement(true); err != nil {
				t.Fatalf("%s split=%d: %v", cfg, k, err)
			}
			// Every decided value must be one of the equivocated values (no
			// third value can gather a quorum in view 1; later views must
			// select a safe value which, if constrained, is one of these).
			for _, p := range c.CorrectIDs() {
				d, _ := c.Process(p).Decided()
				ok := d.Value.Equal(types.Value("left")) || d.Value.Equal(types.Value("right"))
				if !ok && d.View == 1 {
					t.Fatalf("%s split=%d: %s decided unexpected value %s in view 1", cfg, k, p, d.Value)
				}
			}
		}
	}
}

func TestSelectiveAckerCannotBlockOrSplit(t *testing.T) {
	// A corrupted non-leader acks only to one target; everyone still
	// decides the leader's value consistently.
	cfg := types.Generalized(1, 1)
	c, err := sim.NewCluster(sim.ClusterConfig{
		Cfg:    cfg,
		Inputs: sim.UniformInputs(cfg.N, types.Value("v")),
		Seed:   7,
		Faulty: map[types.ProcessID]core.Machine{3: &SelectiveAcker{
			Forger:  forger(cfg, 7, 3),
			Targets: []types.ProcessID{0},
		}},
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
	for _, p := range c.CorrectIDs() {
		d, _ := c.Process(p).Decided()
		if !d.Value.Equal(types.Value("v")) {
			t.Fatalf("%s decided %s", p, d.Value)
		}
	}
}

func TestStaleVoterCannotEraseDecision(t *testing.T) {
	// Partition the network so only a fast quorum sees view 1, let them
	// decide, then let a Byzantine stale voter push nil votes in view 2.
	// The remaining correct process must still decide the same value. The
	// attack only bites if the forged votes reach the process that collects
	// them — the leader of the wished view under this configuration's
	// schedule — so the delivery trace is checked for that, under the
	// paper's schedule and a shifted one.
	base := types.Generalized(1, 1) // n=4, fast quorum 3
	for _, cfg := range []types.Config{base, base.WithLeaderShift(1)} {
		leader := cfg.Leader(1)
		// The voter leads neither view, the isolated process is a third one.
		voter, isolated := types.NoProcess, types.NoProcess
		for i := cfg.N - 1; i >= 0; i-- {
			switch pid := types.ProcessID(i); {
			case pid == leader || pid == cfg.Leader(2):
			case voter == types.NoProcess:
				voter = pid
			default:
				isolated = pid
			}
		}
		delta := sim.DefaultDelta
		forgedToLeader2 := 0
		c, err := sim.NewCluster(sim.ClusterConfig{
			Cfg:    cfg,
			Inputs: sim.UniformInputs(cfg.N, types.Value("keep")),
			Seed:   8,
			Faulty: map[types.ProcessID]core.Machine{voter: &StaleVoter{Forger: forger(cfg, 8, voter), Cluster: cfg}},
			// Drop every message to the isolated process during view 1 (before
			// 5Δ); deliver normally afterwards.
			Fate: func(from, to types.ProcessID, m msg.Message, now sim.Time) sim.Fate {
				return sim.Fate{Delay: delta, Drop: to == isolated && now < 5*delta}
			},
			Trace: func(ev sim.TraceEvent, m msg.Message) {
				v, ok := m.(*msg.Vote)
				if !ok || ev.From != voter {
					return
				}
				if !v.SV.Vote.Nil || ev.To != cfg.Leader(v.View) {
					t.Errorf("leader(1)=%s: forged vote for view %d (nil=%v) delivered to %s, want a nil vote to %s",
						leader, v.View, v.SV.Vote.Nil, ev.To, cfg.Leader(v.View))
				}
				if v.View == 2 {
					forgedToLeader2++
				}
			},
		})
		if err != nil {
			t.Fatal(err)
		}
		if _, err := c.Run(time.Minute); err != nil {
			t.Fatal(err)
		}
		if forgedToLeader2 == 0 {
			t.Fatalf("leader(1)=%s: no forged nil vote reached %s, the leader of view 2", leader, cfg.Leader(2))
		}
		if err := c.CheckAgreement(true); err != nil {
			t.Fatal(err)
		}
		for _, p := range c.CorrectIDs() {
			d, _ := c.Process(p).Decided()
			if !d.Value.Equal(types.Value("keep")) {
				t.Fatalf("leader(1)=%s: %s decided %s, want keep", leader, p, d.Value)
			}
		}
	}
}

func TestForgedCertificateLeaderCannotDecideOrBlock(t *testing.T) {
	// The view-2 leader is Byzantine and proposes with a fabricated
	// progress certificate (its own signature twice). Correct processes
	// reject it; the system rotates past the bad leader and still decides,
	// and never decides the forged value in view 2.
	cfg := types.Generalized(1, 1)
	leader1 := cfg.Leader(1)
	leader2 := cfg.Leader(2)
	if leader1 == leader2 {
		t.Fatal("test setup: distinct leaders expected")
	}
	c, err := sim.NewCluster(sim.ClusterConfig{
		Cfg:    cfg,
		Inputs: sim.UniformInputs(cfg.N, types.Value("honest")),
		Seed:   40,
		Faulty: map[types.ProcessID]core.Machine{leader2: &ForgedCertLeader{
			Forger: forger(cfg, 40, leader2),
			N:      cfg.N,
			View:   2,
			Value:  types.Value("forged"),
		}},
		// Suppress view 1 entirely so view 2's forged proposal is the first
		// thing correct processes see.
		Fate: func(from, to types.ProcessID, m msg.Message, now sim.Time) sim.Fate {
			drop := from == leader1 && m.Kind() == msg.KindPropose && m.InView() == 1
			return sim.Fate{Delay: sim.DefaultDelta, Drop: drop}
		},
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
	for _, p := range c.CorrectIDs() {
		d, _ := c.Process(p).Decided()
		if d.Value.Equal(types.Value("forged")) {
			t.Fatalf("%s decided the forged value", p)
		}
	}
}

func TestFlooderCannotBlockDecisionOrExhaustState(t *testing.T) {
	// A corrupted process sprays thousands of junk (view, value) tallies.
	// The replicas' bounded-state maps must absorb it and the instance must
	// still decide the honest value in two steps.
	cfg := types.Generalized(1, 1)
	c, err := sim.NewCluster(sim.ClusterConfig{
		Cfg:    cfg,
		Inputs: sim.UniformInputs(cfg.N, types.Value("real")),
		Seed:   41,
		Faulty: map[types.ProcessID]core.Machine{3: &Flooder{Forger: forger(cfg, 41, 3), N: cfg.N, Pairs: 5000}},
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
	for _, p := range c.CorrectIDs() {
		d, _ := c.Process(p).Decided()
		if !d.Value.Equal(types.Value("real")) {
			t.Fatalf("%s decided %s", p, d.Value)
		}
	}
}
