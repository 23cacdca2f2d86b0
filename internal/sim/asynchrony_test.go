package sim

import (
	"fmt"
	"math/rand"
	"testing"
	"time"

	"repro/internal/core"
	"repro/internal/msg"
	"repro/internal/types"
)

// TestLivenessAfterGST models the partially synchronous system of Section
// 2.1: before GST messages suffer arbitrary (here: large, sender-dependent)
// delays; after GST every message arrives within Δ. The protocol must
// decide once a correct leader is elected after GST, whatever happened
// before.
func TestLivenessAfterGST(t *testing.T) {
	for _, cfg := range []types.Config{
		types.Generalized(1, 1),
		types.Generalized(2, 1),
		types.Vanilla(2),
	} {
		cfg := cfg
		t.Run(cfg.String(), func(t *testing.T) {
			delta := DefaultDelta
			gst := 50 * delta
			latency := func(from, to types.ProcessID, _ msg.Message, now Time) Fate {
				if now < gst {
					// Arbitrary pre-GST behaviour: delays that scale with
					// the sender, far beyond Δ, but all bounded by GST+Δ
					// (reliable channels: nothing is lost).
					d := gst + delta - now + Time(from)*delta
					return Fate{Delay: d}
				}
				return Fate{Delay: delta}
			}
			c, err := NewCluster(ClusterConfig{
				Cfg:    cfg,
				Inputs: DistinctInputs(cfg.N, "in"),
				Seed:   31,
				Delta:  delta,
				Fate:   latency,
			})
			if err != nil {
				t.Fatal(err)
			}
			if _, err := c.Run(10 * time.Minute); err != nil {
				t.Fatal(err)
			}
			if err := c.CheckAgreement(true); err != nil {
				t.Fatal(err)
			}
		})
	}
}

// TestChaosRandomDelaysAndCrashes is the randomized adversarial sweep: for
// many seeds, random per-message delays (occasionally far beyond Δ), plus up
// to f crash failures at random times. Consistency must hold in every run
// and every correct process must decide.
func TestChaosRandomDelaysAndCrashes(t *testing.T) {
	cfg := types.Generalized(2, 1) // n=7
	delta := DefaultDelta
	for seed := int64(0); seed < 30; seed++ {
		seed := seed
		t.Run(fmt.Sprintf("seed=%d", seed), func(t *testing.T) {
			rng := rand.New(rand.NewSource(seed))
			// Random delays: mostly within Δ, sometimes up to 20Δ, but only
			// before a "calm" point, after which the network is synchronous
			// (GST must exist for liveness).
			calm := Time(rng.Intn(40)) * Time(delta)
			latency := func(from, to types.ProcessID, _ msg.Message, now Time) Fate {
				if now >= calm {
					return Fate{Delay: delta}
				}
				// Deterministic pseudo-random delay derived from the
				// arguments so the latency function stays reproducible.
				h := uint64(from)*31 + uint64(to)*17 + uint64(now/Time(delta))*13 + uint64(seed)
				extra := Time(h%20) * Time(delta) / 2
				return Fate{Delay: delta + extra}
			}
			crashes := make(map[types.ProcessID]Time)
			nCrash := rng.Intn(cfg.F + 1)
			for len(crashes) < nCrash {
				p := types.ProcessID(rng.Intn(cfg.N))
				crashes[p] = Time(rng.Intn(30)) * Time(delta)
			}
			c, err := NewCluster(ClusterConfig{
				Cfg:     cfg,
				Inputs:  DistinctInputs(cfg.N, "chaos"),
				Seed:    seed,
				Delta:   delta,
				Fate:    latency,
				CrashAt: crashes,
			})
			if err != nil {
				t.Fatal(err)
			}
			if _, err := c.Run(30 * time.Minute); err != nil {
				t.Fatal(err)
			}
			if err := c.CheckAgreement(true); err != nil {
				t.Fatalf("seed %d (crashes %v): %v", seed, crashes, err)
			}
		})
	}
}

// TestDeterminism: identical seeds and schedules produce identical
// executions — decision values, views, times, and message statistics. This
// is the property every experiment of cmd/fastbft-bench relies on.
func TestDeterminism(t *testing.T) {
	run := func() (map[types.ProcessID]types.Decision, map[types.ProcessID]Time, Stats) {
		cfg := types.Generalized(2, 1)
		leader1 := cfg.Leader(1)
		c, err := NewCluster(ClusterConfig{
			Cfg:    cfg,
			Inputs: DistinctInputs(cfg.N, "det"),
			Seed:   77,
			Faulty: map[types.ProcessID]core.Machine{leader1: nil},
		})
		if err != nil {
			t.Fatal(err)
		}
		if _, err := c.Run(time.Minute); err != nil {
			t.Fatal(err)
		}
		decisions := make(map[types.ProcessID]types.Decision)
		times := make(map[types.ProcessID]Time)
		for _, p := range c.CorrectIDs() {
			d, at, ok := c.Decision(p)
			if !ok {
				t.Fatalf("%s did not decide", p)
			}
			decisions[p] = d
			times[p] = at
		}
		return decisions, times, c.Stats()
	}
	d1, t1, s1 := run()
	d2, t2, s2 := run()
	for p, d := range d1 {
		if !d.Value.Equal(d2[p].Value) || d.View != d2[p].View || d.Path != d2[p].Path {
			t.Fatalf("%s: decisions differ across identical runs", p)
		}
		if t1[p] != t2[p] {
			t.Fatalf("%s: decision times differ (%v vs %v)", p, t1[p], t2[p])
		}
	}
	if s1.TotalMessages() != s2.TotalMessages() {
		t.Fatalf("message counts differ: %d vs %d", s1.TotalMessages(), s2.TotalMessages())
	}
	for k, v := range s1.Messages {
		if s2.Messages[k] != v {
			t.Fatalf("per-kind counts differ for %s", k)
		}
	}
}

// TestWeakValidityUnanimous: the weak validity property of Section 2.2 — if
// all processes are correct and propose the same value, only that value can
// be decided — across several configurations and network conditions.
func TestWeakValidityUnanimous(t *testing.T) {
	for _, cfg := range []types.Config{types.Generalized(1, 1), types.Vanilla(2)} {
		for seed := int64(0); seed < 5; seed++ {
			c, err := NewCluster(ClusterConfig{
				Cfg:    cfg,
				Inputs: UniformInputs(cfg.N, types.Value("the-one")),
				Seed:   seed,
			})
			if err != nil {
				t.Fatal(err)
			}
			if _, err := c.Run(time.Minute); err != nil {
				t.Fatal(err)
			}
			for _, p := range c.CorrectIDs() {
				d, ok := c.Process(p).Decided()
				if !ok {
					t.Fatalf("%s undecided", p)
				}
				if !d.Value.Equal(types.Value("the-one")) {
					t.Fatalf("weak validity violated: %s decided %s", p, d.Value)
				}
			}
		}
	}
}

// TestExtendedValidityAllCorrect: extended validity — with all processes
// correct, the decided value is some process's input, even with distinct
// inputs and leader crashes forcing view changes.
func TestExtendedValidityAllCorrect(t *testing.T) {
	cfg := types.Generalized(1, 1)
	inputs := DistinctInputs(cfg.N, "ev")
	c, err := NewCluster(ClusterConfig{Cfg: cfg, Inputs: inputs, Seed: 9})
	if err != nil {
		t.Fatal(err)
	}
	if _, err := c.Run(time.Minute); err != nil {
		t.Fatal(err)
	}
	for _, p := range c.CorrectIDs() {
		d, _ := c.Process(p).Decided()
		found := false
		for _, in := range inputs {
			if d.Value.Equal(in) {
				found = true
				break
			}
		}
		if !found {
			t.Fatalf("extended validity violated: %s decided %s, not any input", p, d.Value)
		}
	}
}

// TestMessageComplexityQuadratic sanity-checks the common-case message
// complexity: one propose broadcast plus all-to-all acks and ack signatures
// — Θ(n²) messages, with the constant the trace actually observes.
func TestMessageComplexityQuadratic(t *testing.T) {
	for _, cfg := range []types.Config{types.Generalized(1, 1), types.Generalized(2, 1), types.Vanilla(2)} {
		c, err := NewCluster(ClusterConfig{
			Cfg:    cfg,
			Inputs: UniformInputs(cfg.N, types.Value("m")),
			Seed:   13,
		})
		if err != nil {
			t.Fatal(err)
		}
		if _, err := c.Run(time.Minute); err != nil {
			t.Fatal(err)
		}
		stats := c.Stats()
		n := cfg.N
		// Upper bound: propose (n−1) + acks (n(n−1)) + acksigs (n(n−1)).
		upper := (n - 1) + 2*n*(n-1)
		if got := stats.TotalMessages(); got > upper {
			t.Fatalf("%s: %d messages exceeds common-case bound %d", cfg, got, upper)
		}
		if stats.Messages[0] != 0 {
			t.Fatal("unknown message kind recorded")
		}
	}
}
