package lowerbound

import (
	"errors"
	"fmt"
	"time"

	"repro/internal/byz"
	"repro/internal/core"
	"repro/internal/msg"
	"repro/internal/sigcrypto"
	"repro/internal/sim"
	"repro/internal/types"
)

// TightReport is the outcome of running the paper's protocol at the tight
// bound n = 3f + 2t − 1 under the same adversarial pattern that breaks the
// strawman one process below.
type TightReport struct {
	Cfg types.Config
	// Splits is the number of adversarial splits tried (the equivocating
	// leader's group-A size sweeps 0..n−1).
	Splits int
	// Violations counts consistency violations observed — the theorem and
	// the protocol's proof say it must be 0.
	Violations int
	// Undecided counts runs in which some correct process failed to decide
	// within the time limit (must also be 0).
	Undecided int
}

// RunTightConfiguration attacks the paper's protocol at n = 3f + 2t − 1
// with an equivocating leader and delayed partitions, sweeping the split
// point, and reports whether agreement ever broke. Together with
// RunConstruction it locates the resilience bound exactly: 3f + 2t − 2
// processes admit disagreement, 3f + 2t − 1 do not.
func RunTightConfiguration(f, t int, delta time.Duration, seed int64) (*TightReport, error) {
	cfg := types.Generalized(f, t)
	if delta <= 0 {
		delta = sim.DefaultDelta
	}
	rep := &TightReport{Cfg: cfg}
	leader := cfg.Leader(1)
	for split := 0; split < cfg.N; split++ {
		rep.Splits++
		groupA := make(map[types.ProcessID]bool)
		added := 0
		for i := 0; i < cfg.N && added < split; i++ {
			pid := types.ProcessID(i)
			if pid == leader {
				continue
			}
			groupA[pid] = true
			added++
		}
		// Delay messages between the two partitions during view 1 so each
		// side tallies its own value first, mirroring the construction's
		// delivery schedule.
		latency := func(from, to types.ProcessID, _ msg.Message, now sim.Time) sim.Fate {
			d := sim.Time(delta)
			if groupA[from] != groupA[to] && now < 4*sim.Time(delta) {
				d = max(d, 4*sim.Time(delta)-now)
			}
			return sim.Fate{Delay: d}
		}
		seed := seed + int64(split)
		c, err := sim.NewCluster(sim.ClusterConfig{
			Cfg:    cfg,
			Inputs: sim.DistinctInputs(cfg.N, "in"),
			Seed:   seed,
			Delta:  delta,
			Fate:   latency,
			Faulty: map[types.ProcessID]core.Machine{leader: &byz.EquivocatingLeader{
				Forger: byz.NewForger(leader, sigcrypto.NewHMAC(cfg.N, seed).Signer(leader)),
				N:      cfg.N,
				Value1: value0,
				Value2: value1,
				GroupA: groupA,
			}},
		})
		if err != nil {
			return nil, fmt.Errorf("split %d: %w", split, err)
		}
		if _, err := c.Run(5 * time.Minute); err != nil {
			return nil, fmt.Errorf("split %d: %w", split, err)
		}
		switch err := c.CheckAgreement(true); {
		case err == nil:
		case errors.Is(err, sim.ErrDisagreement):
			rep.Violations++
		default:
			rep.Undecided++
		}
	}
	return rep, nil
}
