// Benchmarks regenerating every reproduced figure and table of the paper
// (one bench per artifact). Run them all with:
//
//	go test -bench=. -benchmem
//
// The deployed system's performance is measured by the repository benchmark
// (benchmark/, BENCHMARK.json), not here.
package fastbft

import (
	"fmt"
	"testing"
	"time"

	"repro/internal/baseline/fab"
	"repro/internal/baseline/pbft"
	"repro/internal/core"
	"repro/internal/lowerbound"
	"repro/internal/msg"
	"repro/internal/sigcrypto"
	"repro/internal/sim"
	"repro/internal/types"
)

func runSim(b *testing.B, cfg types.Config, silent int, seed int64) types.Step {
	b.Helper()
	faulty := make(map[types.ProcessID]core.Machine, silent)
	for i := 0; i < silent; i++ {
		faulty[types.ProcessID(cfg.N-1-i)] = nil
	}
	c, err := sim.NewCluster(sim.ClusterConfig{
		Cfg:    cfg,
		Inputs: sim.UniformInputs(cfg.N, types.Value("bench")),
		Seed:   seed,
		Faulty: faulty,
	})
	if err != nil {
		b.Fatal(err)
	}
	if _, err := c.Run(time.Minute); err != nil {
		b.Fatal(err)
	}
	if err := c.CheckAgreement(true); err != nil {
		b.Fatal(err)
	}
	steps, _ := c.MaxDecisionSteps()
	return steps
}

// BenchmarkFigure1aFastPath regenerates Figure 1a: the two-step fast path
// on the minimal n=4 cluster. The reported metric of interest is
// steps/decision (always 2).
func BenchmarkFigure1aFastPath(b *testing.B) {
	cfg := types.Generalized(1, 1)
	var steps types.Step
	for i := 0; i < b.N; i++ {
		steps = runSim(b, cfg, 0, int64(i))
	}
	b.ReportMetric(float64(steps), "steps/decision")
}

// BenchmarkFigure1bViewChange regenerates Figure 1b: a full view change
// (crashed first leader, votes, certificate round, new proposal).
func BenchmarkFigure1bViewChange(b *testing.B) {
	cfg := types.Generalized(1, 1)
	leader1 := cfg.Leader(1)
	for i := 0; i < b.N; i++ {
		c, err := sim.NewCluster(sim.ClusterConfig{
			Cfg:    cfg,
			Inputs: sim.DistinctInputs(cfg.N, "in"),
			Seed:   int64(i),
			Faulty: map[types.ProcessID]core.Machine{leader1: nil},
		})
		if err != nil {
			b.Fatal(err)
		}
		if _, err := c.Run(time.Minute); err != nil {
			b.Fatal(err)
		}
		if err := c.CheckAgreement(true); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkFigure5SlowPath regenerates Figure 5: the three-step slow path
// with n=7, f=2, t=1 and two failures.
func BenchmarkFigure5SlowPath(b *testing.B) {
	cfg := types.Generalized(2, 1)
	var steps types.Step
	for i := 0; i < b.N; i++ {
		steps = runSim(b, cfg, 2, int64(i))
	}
	b.ReportMetric(float64(steps), "steps/decision")
}

// BenchmarkLowerBoundConstruction regenerates Figures 2–4: the Theorem 4.5
// five-execution construction at f=t=2.
func BenchmarkLowerBoundConstruction(b *testing.B) {
	for i := 0; i < b.N; i++ {
		res, err := lowerbound.RunConstruction(2, 2, sim.DefaultDelta)
		if err != nil {
			b.Fatal(err)
		}
		if len(res.Violations) == 0 {
			b.Fatal("construction failed to exhibit disagreement")
		}
	}
}

// BenchmarkTableResilience regenerates Table T1 row by row: the paper's
// protocol at its minimal n with t silent processes, per (f, t).
func BenchmarkTableResilience(b *testing.B) {
	for f := 1; f <= 3; f++ {
		for t := 1; t <= f; t++ {
			cfg := types.Generalized(f, t)
			b.Run(fmt.Sprintf("f=%d/t=%d/n=%d", f, t, cfg.N), func(b *testing.B) {
				var steps types.Step
				for i := 0; i < b.N; i++ {
					steps = runSim(b, cfg, t, int64(i))
				}
				if steps != 2 {
					b.Fatalf("steps=%d, want 2", steps)
				}
				b.ReportMetric(float64(cfg.N), "processes")
				b.ReportMetric(float64(steps), "steps/decision")
			})
		}
	}
}

// BenchmarkTableLatency regenerates Table T2: ours vs FaB vs PBFT in the
// fault-free common case at f=1.
func BenchmarkTableLatency(b *testing.B) {
	b.Run("paper/n=4", func(b *testing.B) {
		cfg := types.Generalized(1, 1)
		var steps types.Step
		for i := 0; i < b.N; i++ {
			steps = runSim(b, cfg, 0, int64(i))
		}
		b.ReportMetric(float64(steps), "steps/decision")
	})
	b.Run("fab/n=6", func(b *testing.B) {
		n := fab.MinProcesses(1, 1)
		for i := 0; i < b.N; i++ {
			runMachines(b, types.Config{N: n, F: 1, T: 1}, int64(i), func(p types.ProcessID, keys sigcrypto.Scheme) (core.Machine, error) {
				return fab.NewReplica(n, 1, 1, p, keys.Signer(p), keys.Verifier(), types.Value("x"))
			})
		}
	})
	b.Run("pbft/n=4", func(b *testing.B) {
		n := pbft.MinProcesses(1)
		for i := 0; i < b.N; i++ {
			runMachines(b, types.Config{N: n, F: 1}, int64(i), func(p types.ProcessID, keys sigcrypto.Scheme) (core.Machine, error) {
				return pbft.NewProcess(n, 1, p, keys.Signer(p), keys.Verifier(), types.Value("x"), 100*time.Millisecond)
			})
		}
	})
}

// runMachines runs one instance of a baseline protocol until every process
// decides.
func runMachines(b *testing.B, cfg types.Config, seed int64, build func(types.ProcessID, sigcrypto.Scheme) (core.Machine, error)) {
	b.Helper()
	c, err := sim.NewCluster(sim.ClusterConfig{Cfg: cfg, Seed: seed, Machine: build})
	if err != nil {
		b.Fatal(err)
	}
	if _, err := c.Run(time.Minute); err != nil {
		b.Fatal(err)
	}
	if !c.AllCorrectDecided() {
		b.Fatal("not every process decided")
	}
}

// BenchmarkTableCertSize regenerates Table T3: a run with forced view
// changes whose deciding proposal still carries only an f+1-signature
// certificate.
func BenchmarkTableCertSize(b *testing.B) {
	cfg := types.Generalized(1, 1)
	blackout := 400 * time.Millisecond
	var certBytes int
	for i := 0; i < b.N; i++ {
		certBytes = 0
		c, err := sim.NewCluster(sim.ClusterConfig{
			Cfg:    cfg,
			Inputs: sim.UniformInputs(cfg.N, types.Value("x")),
			Seed:   int64(i),
			Fate: func(from, to types.ProcessID, m msg.Message, now sim.Time) sim.Fate {
				k := m.Kind()
				return sim.Fate{Delay: sim.DefaultDelta, Drop: now < blackout && (k == msg.KindPropose || k == msg.KindCertRequest)}
			},
			Trace: func(ev sim.TraceEvent, m msg.Message) {
				if m.Kind() == msg.KindPropose {
					certBytes = len(ev.Payload)
				}
			},
		})
		if err != nil {
			b.Fatal(err)
		}
		if _, err := c.Run(time.Hour); err != nil {
			b.Fatal(err)
		}
		if err := c.CheckAgreement(true); err != nil {
			b.Fatal(err)
		}
	}
	b.ReportMetric(float64(certBytes), "propose-bytes")
}

// BenchmarkTableOptimalResilienceFast regenerates Table T4: the fast path
// at n=3f+1 (t=1) with one silent fault.
func BenchmarkTableOptimalResilienceFast(b *testing.B) {
	for f := 2; f <= 4; f++ {
		cfg := types.Generalized(f, 1)
		b.Run(fmt.Sprintf("f=%d/n=%d", f, cfg.N), func(b *testing.B) {
			var steps types.Step
			for i := 0; i < b.N; i++ {
				steps = runSim(b, cfg, 1, int64(i))
			}
			if steps != 2 {
				b.Fatalf("steps=%d, want 2", steps)
			}
			b.ReportMetric(float64(steps), "steps/decision")
		})
	}
}

// ---------------------------------------------------------------------------
// Substrate micro-benchmarks
// ---------------------------------------------------------------------------

// BenchmarkViewChangeDepthAblation measures how the time to the first
// decision grows as more initial leaders are unreachable (deeper view
// change chains) — the cost model behind the view synchronizer's growing
// timeouts.
func BenchmarkViewChangeDepthAblation(b *testing.B) {
	cfg := types.Generalized(2, 1) // n=7, can silence up to f=2 leaders
	for _, depth := range []int{0, 1, 2} {
		b.Run(fmt.Sprintf("silent-leaders=%d", depth), func(b *testing.B) {
			var elapsed sim.Time
			for i := 0; i < b.N; i++ {
				faulty := make(map[types.ProcessID]core.Machine, depth)
				for d := 0; d < depth; d++ {
					faulty[cfg.Leader(types.View(1+d))] = nil
				}
				c, err := sim.NewCluster(sim.ClusterConfig{
					Cfg:    cfg,
					Inputs: sim.UniformInputs(cfg.N, types.Value("x")),
					Seed:   int64(i),
					Faulty: faulty,
				})
				if err != nil {
					b.Fatal(err)
				}
				res, err := c.Run(time.Minute)
				if err != nil {
					b.Fatal(err)
				}
				if err := c.CheckAgreement(true); err != nil {
					b.Fatal(err)
				}
				elapsed = res.Elapsed
			}
			b.ReportMetric(float64(elapsed)/float64(sim.DefaultDelta), "delta-to-decide")
		})
	}
}
