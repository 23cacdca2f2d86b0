// Benchmarks regenerating every reproduced figure and table (one bench per
// artifact), plus micro-benchmarks of the substrates. Run them all with:
//
//	go test -bench=. -benchmem
package fastbft

import (
	"fmt"
	"os"
	"path/filepath"
	"sort"
	"strconv"
	"strings"
	"testing"
	"time"

	"repro/internal/baseline/fab"
	"repro/internal/baseline/pbft"
	"repro/internal/group"
	"repro/internal/lowerbound"
	"repro/internal/msg"
	"repro/internal/obs"
	"repro/internal/sigcrypto"
	"repro/internal/sim"
	"repro/internal/smr"
	"repro/internal/storage"
	"repro/internal/transport"
	"repro/internal/types"
)

// runSim executes one simulated consensus instance and reports the worst
// decision latency in message delays via the returned value.
// submit drives one command through HandleRequest — the path production
// runs — as request seq of the client's session in group g, fire-and-forget.
// A session keeps one request in flight, so benchmarks that burst commands
// give each its own session.
func submit(r *smr.Replica, g uint64, client string, seq uint64, cmd smr.Command) error {
	return r.HandleRequest(&msg.Request{Client: types.ClientID(client), Seq: seq, Op: cmd, Group: g}, nil)
}

func runSim(b *testing.B, cfg types.Config, silent int, seed int64) types.Step {
	b.Helper()
	faulty := make(map[types.ProcessID]sim.Node, silent)
	for i := 0; i < silent; i++ {
		faulty[types.ProcessID(cfg.N-1-i)] = sim.SilentNode{}
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
	leader1 := types.View(1).Leader(cfg.N)
	for i := 0; i < b.N; i++ {
		c, err := sim.NewCluster(sim.ClusterConfig{
			Cfg:    cfg,
			Inputs: sim.DistinctInputs(cfg.N, "in"),
			Seed:   int64(i),
			Faulty: map[types.ProcessID]sim.Node{leader1: sim.SilentNode{}},
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
			scheme := sigcrypto.NewHMAC(n, int64(i))
			net := sim.NewNetwork(n)
			reps := make([]*fab.Replica, n)
			for p := 0; p < n; p++ {
				r, err := fab.NewReplica(n, 1, 1, types.ProcessID(p), scheme.Signer(types.ProcessID(p)), scheme.Verifier(), types.Value("x"))
				if err != nil {
					b.Fatal(err)
				}
				reps[p] = r
				net.SetNode(types.ProcessID(p), sim.NewMachineNode(r))
			}
			if _, err := net.Run(time.Minute, func() bool {
				for _, r := range reps {
					if _, ok := r.Decided(); !ok {
						return false
					}
				}
				return true
			}); err != nil {
				b.Fatal(err)
			}
		}
	})
	b.Run("pbft/n=4", func(b *testing.B) {
		n := pbft.MinProcesses(1)
		for i := 0; i < b.N; i++ {
			scheme := sigcrypto.NewHMAC(n, int64(i))
			net := sim.NewNetwork(n)
			procs := make([]*pbft.Process, n)
			for p := 0; p < n; p++ {
				proc, err := pbft.NewProcess(n, 1, types.ProcessID(p), scheme.Signer(types.ProcessID(p)), scheme.Verifier(), types.Value("x"), 100*time.Millisecond)
				if err != nil {
					b.Fatal(err)
				}
				procs[p] = proc
				net.SetNode(types.ProcessID(p), sim.NewMachineNode(proc))
			}
			if _, err := net.Run(time.Minute, func() bool {
				for _, p := range procs {
					if _, ok := p.Decided(); !ok {
						return false
					}
				}
				return true
			}); err != nil {
				b.Fatal(err)
			}
		}
	})
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
		trace := func(ev sim.TraceEvent) {
			if ev.Kind == msg.KindPropose {
				certBytes = ev.Bytes
			}
		}
		latency := func(from, to types.ProcessID, m msg.Message, now sim.Time) (sim.Time, bool) {
			if now < sim.Time(blackout) {
				switch m.Kind() {
				case msg.KindPropose, msg.KindCertRequest:
					return 0, false
				}
			}
			return sim.DefaultDelta, true
		}
		c, err := sim.NewCluster(sim.ClusterConfig{
			Cfg:     cfg,
			Inputs:  sim.UniformInputs(cfg.N, types.Value("x")),
			Seed:    int64(i),
			Latency: latency,
			Trace:   trace,
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

// BenchmarkSMRThroughput regenerates Table T5: replicated key-value writes
// per second over the in-memory transport for several cluster sizes.
func BenchmarkSMRThroughput(b *testing.B) {
	for _, p := range []struct{ f, t int }{{1, 1}, {2, 1}, {2, 2}} {
		cfg := types.Generalized(p.f, p.t)
		b.Run(fmt.Sprintf("n=%d", cfg.N), func(b *testing.B) {
			scheme := sigcrypto.NewHMAC(cfg.N, 1)
			net := transport.NewMemNetwork(cfg.N, 0)
			defer func() { _ = net.Close() }()
			reps := make([]*smr.Replica, cfg.N)
			stores := make([]*smr.KVStore, cfg.N)
			for i := 0; i < cfg.N; i++ {
				pid := types.ProcessID(i)
				stores[i] = smr.NewKVStore()
				r, err := smr.NewReplica(smr.Config{
					Cluster:     cfg,
					Self:        pid,
					Signer:      scheme.Signer(pid),
					Verifier:    scheme.Verifier(),
					Transport:   net.Transport(pid),
					App:         stores[i],
					BaseTimeout: 500 * time.Millisecond,
				})
				if err != nil {
					b.Fatal(err)
				}
				reps[i] = r
			}
			for _, r := range reps {
				if err := r.Start(); err != nil {
					b.Fatal(err)
				}
			}
			defer func() {
				for _, r := range reps {
					_ = r.Close()
				}
			}()
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				cmd := smr.EncodeKV(smr.KVCommand{
					Op: smr.OpSet, Client: "bench", Seq: uint64(i),
					Key: fmt.Sprintf("k%d", i%64), Value: "v",
				})
				if err := submit(reps[0], 0, "bench", uint64(i+1), cmd); err != nil {
					b.Fatal(err)
				}
				// Wait for the write to apply everywhere: the benchmark
				// measures end-to-end replicated-write latency.
				for {
					done := true
					for _, st := range stores {
						if st.AppliedOps() < uint64(i+1) {
							done = false
							break
						}
					}
					if done {
						break
					}
					time.Sleep(50 * time.Microsecond)
				}
			}
		})
	}
}

// benchMetricsPath, when non-empty, is a file the pipelined benchmark
// writes its leader's metrics-registry JSON snapshot to (last window run
// wins), so `make bench-json` can attach the observability layer's own view
// of the run — stage-latency histograms included — to the committed report.
var benchMetricsPath = os.Getenv("FASTBFT_BENCH_METRICS")

// BenchmarkSMRPipelinedThroughput measures decided-commands/sec as the
// consensus window grows: window=1 serializes the log (one batch per
// consensus round-trip), larger windows pipeline concurrent slots over
// disjoint chunks of the pending queue. The "cmds/s" metric at window 8
// versus window 1 is the headline speedup of pipelined replication. Every
// replica runs with a live metrics registry and staged request tracer, so
// the number also prices the instrumented hot path — the configuration
// production replicas actually run.
func BenchmarkSMRPipelinedThroughput(b *testing.B) {
	cfg := types.Generalized(1, 1)
	const burst = 64   // commands submitted per iteration
	const maxBatch = 4 // fixed batching, so the window is the only variable
	// A realistic (LAN-scale) message delay: pipelining exists to overlap
	// consensus round-trips, so the benchmark must have round-trips worth
	// overlapping — with a zero-latency network the run is CPU-bound and
	// every window size measures the same thing.
	const delay = 200 * time.Microsecond
	for _, window := range []int{1, 4, 8} {
		b.Run(fmt.Sprintf("window=%d", window), func(b *testing.B) {
			scheme := sigcrypto.NewHMAC(cfg.N, 1)
			net := transport.NewMemNetwork(cfg.N, delay)
			defer func() { _ = net.Close() }()
			reg := obs.NewRegistry()
			reps := make([]*smr.Replica, cfg.N)
			stores := make([]*smr.KVStore, cfg.N)
			for i := 0; i < cfg.N; i++ {
				pid := types.ProcessID(i)
				stores[i] = smr.NewKVStore()
				r, err := smr.NewReplica(smr.Config{
					Cluster:       cfg,
					Self:          pid,
					Signer:        scheme.Signer(pid),
					Verifier:      scheme.Verifier(),
					Transport:     net.Transport(pid),
					App:           stores[i],
					BaseTimeout:   500 * time.Millisecond,
					WindowSize:    window,
					MaxBatch:      maxBatch,
					Metrics:       reg,
					MetricsLabels: obs.Labels{"replica": strconv.Itoa(i)},
				})
				if err != nil {
					b.Fatal(err)
				}
				reps[i] = r
			}
			for _, r := range reps {
				if err := r.Start(); err != nil {
					b.Fatal(err)
				}
			}
			defer func() {
				for _, r := range reps {
					_ = r.Close()
				}
			}()
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				// One burst upfront: the pending queue is deep enough to
				// fill the window, so throughput is window-bound, not
				// submission-bound.
				for k := 0; k < burst; k++ {
					op := i*burst + k
					cmd := smr.EncodeKV(smr.KVCommand{
						Op: smr.OpSet, Client: "pipe", Seq: uint64(op),
						Key: fmt.Sprintf("k%d", op%64), Value: "v",
					})
					if err := submit(reps[0], 0, fmt.Sprintf("pipe-%d", op), 1, cmd); err != nil {
						b.Fatal(err)
					}
				}
				target := uint64((i + 1) * burst)
				for {
					done := true
					for _, st := range stores {
						if st.AppliedOps() < target {
							done = false
							break
						}
					}
					if done {
						break
					}
					time.Sleep(50 * time.Microsecond)
				}
			}
			b.StopTimer()
			b.ReportMetric(float64(b.N*burst)/b.Elapsed().Seconds(), "cmds/s")
			if benchMetricsPath != "" {
				var sb strings.Builder
				if err := reg.Snapshot().WriteJSON(&sb); err != nil {
					b.Fatal(err)
				}
				if err := os.WriteFile(benchMetricsPath, []byte(sb.String()), 0o644); err != nil {
					b.Fatal(err)
				}
			}
		})
	}
}

// BenchmarkSMRDurableThroughput measures what durability costs on the
// pipelined hot path: the window-8 configuration of
// BenchmarkSMRPipelinedThroughput, run with every replica writing a
// write-ahead log under each SyncMode, against the in-memory baseline.
// "group" is the headline number — group commit amortizes one fsync over
// every record queued while the previous fsync was in flight, so the
// pipelining win survives durability (the acceptance bar is ≥70% of the
// in-memory cmds/s).
func BenchmarkSMRDurableThroughput(b *testing.B) {
	cfg := types.Generalized(1, 1)
	const burst = 64
	const maxBatch = 4
	const window = 8
	// Two deployment profiles: a LAN-scale message delay (the pipelined
	// benchmark's setting), where an fsync is comparable to a round trip
	// and durability is at its most expensive, and a geo-scale delay
	// (availability zones / nearby regions — the deployment BFT resilience
	// is actually for), where group commit hides almost entirely behind
	// the network.
	delays := []struct {
		name string
		d    time.Duration
	}{
		{"lan=200µs", 200 * time.Microsecond},
		{"geo=2ms", 2 * time.Millisecond},
	}
	modes := []struct {
		name string
		mode storage.SyncMode
		disk bool
	}{
		{"memory", 0, false},
		{"sync=none", storage.SyncNone, true},
		{"sync=group", storage.SyncGroup, true},
		{"sync=always", storage.SyncAlways, true},
	}
	for _, dl := range delays {
		for _, m := range modes {
			b.Run(dl.name+"/"+m.name, func(b *testing.B) {
				scheme := sigcrypto.NewHMAC(cfg.N, 1)
				net := transport.NewMemNetwork(cfg.N, dl.d)
				defer func() { _ = net.Close() }()
				base := b.TempDir()
				reps := make([]*smr.Replica, cfg.N)
				stores := make([]*smr.KVStore, cfg.N)
				for i := 0; i < cfg.N; i++ {
					pid := types.ProcessID(i)
					stores[i] = smr.NewKVStore()
					rcfg := smr.Config{
						Cluster:            cfg,
						Self:               pid,
						Signer:             scheme.Signer(pid),
						Verifier:           scheme.Verifier(),
						Transport:          net.Transport(pid),
						App:                stores[i],
						BaseTimeout:        500 * time.Millisecond,
						WindowSize:         window,
						MaxBatch:           maxBatch,
						CheckpointInterval: 256,
					}
					if m.disk {
						disk, err := storage.Open(storage.Config{
							Dir:  filepath.Join(base, fmt.Sprintf("r%d", i)),
							Mode: m.mode,
						})
						if err != nil {
							b.Fatal(err)
						}
						rcfg.Storage = disk
					}
					r, err := smr.NewReplica(rcfg)
					if err != nil {
						b.Fatal(err)
					}
					reps[i] = r
				}
				for _, r := range reps {
					if err := r.Start(); err != nil {
						b.Fatal(err)
					}
				}
				defer func() {
					for _, r := range reps {
						_ = r.Close()
					}
				}()
				b.ResetTimer()
				for i := 0; i < b.N; i++ {
					for k := 0; k < burst; k++ {
						op := i*burst + k
						cmd := smr.EncodeKV(smr.KVCommand{
							Op: smr.OpSet, Client: "dur", Seq: uint64(op),
							Key: fmt.Sprintf("k%d", op%64), Value: "v",
						})
						if err := submit(reps[0], 0, fmt.Sprintf("dur-%d", op), 1, cmd); err != nil {
							b.Fatal(err)
						}
					}
					target := uint64((i + 1) * burst)
					for {
						done := true
						for _, st := range stores {
							if st.AppliedOps() < target {
								done = false
								break
							}
						}
						if done {
							break
						}
						time.Sleep(50 * time.Microsecond)
					}
				}
				b.StopTimer()
				b.ReportMetric(float64(b.N*burst)/b.Elapsed().Seconds(), "cmds/s")
			})
		}
	}
}

// ---------------------------------------------------------------------------
// Substrate micro-benchmarks
// ---------------------------------------------------------------------------

// BenchmarkSignVerify measures the two signature schemes on a propose
// digest.
func BenchmarkSignVerify(b *testing.B) {
	digest := msg.ProposeDigest(types.Value("value"), 3)
	ed := sigcrypto.NewEd25519Deterministic(4, 1)
	hm := sigcrypto.NewHMAC(4, 1)
	for name, scheme := range map[string]sigcrypto.Scheme{"ed25519": ed, "hmac": hm} {
		scheme := scheme
		b.Run(name+"/sign", func(b *testing.B) {
			signer := scheme.Signer(0)
			for i := 0; i < b.N; i++ {
				_ = signer.Sign(digest)
			}
		})
		b.Run(name+"/verify", func(b *testing.B) {
			sig := scheme.Signer(0).Sign(digest)
			ver := scheme.Verifier()
			for i := 0; i < b.N; i++ {
				if !ver.Verify(digest, sig) {
					b.Fatal("verify failed")
				}
			}
		})
	}
}

// BenchmarkCodec measures encode/decode of the largest common message (a
// view-change CertRequest carrying n−f signed votes).
func BenchmarkCodec(b *testing.B) {
	cfg := types.Generalized(1, 1)
	scheme := sigcrypto.NewHMAC(cfg.N, 1)
	x := types.Value("value")
	votes := make([]msg.SignedVote, 0, 3)
	for i := 0; i < 3; i++ {
		vr := msg.NilVote()
		votes = append(votes, msg.SignedVote{
			Voter: types.ProcessID(i),
			Vote:  vr,
			Phi:   scheme.Signer(types.ProcessID(i)).Sign(msg.VoteDigest(vr, 2)),
		})
	}
	m := &msg.CertRequest{View: 2, X: x, Votes: votes}
	encoded := msg.Encode(m)
	b.Run("encode", func(b *testing.B) {
		for i := 0; i < b.N; i++ {
			_ = msg.Encode(m)
		}
	})
	b.Run("decode", func(b *testing.B) {
		for i := 0; i < b.N; i++ {
			if _, err := msg.Decode(encoded); err != nil {
				b.Fatal(err)
			}
		}
	})
	b.SetBytes(int64(len(encoded)))
}

// BenchmarkSMRBatchingAblation is the batching ablation: replicated-write
// cost per command as the leader's batch size grows. Larger batches amortize the two consensus rounds.
func BenchmarkSMRBatchingAblation(b *testing.B) {
	cfg := types.Generalized(1, 1)
	for _, batch := range []int{1, 8, 32} {
		b.Run(fmt.Sprintf("batch=%d", batch), func(b *testing.B) {
			scheme := sigcrypto.NewHMAC(cfg.N, 1)
			net := transport.NewMemNetwork(cfg.N, 0)
			defer func() { _ = net.Close() }()
			reps := make([]*smr.Replica, cfg.N)
			stores := make([]*smr.KVStore, cfg.N)
			for i := 0; i < cfg.N; i++ {
				pid := types.ProcessID(i)
				stores[i] = smr.NewKVStore()
				r, err := smr.NewReplica(smr.Config{
					Cluster:     cfg,
					Self:        pid,
					Signer:      scheme.Signer(pid),
					Verifier:    scheme.Verifier(),
					Transport:   net.Transport(pid),
					App:         stores[i],
					BaseTimeout: 500 * time.Millisecond,
					MaxBatch:    batch,
				})
				if err != nil {
					b.Fatal(err)
				}
				reps[i] = r
			}
			for _, r := range reps {
				if err := r.Start(); err != nil {
					b.Fatal(err)
				}
			}
			defer func() {
				for _, r := range reps {
					_ = r.Close()
				}
			}()
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				cmd := smr.EncodeKV(smr.KVCommand{
					Op: smr.OpSet, Client: "abl", Seq: uint64(i),
					Key: fmt.Sprintf("k%d", i%64), Value: "v",
				})
				if err := submit(reps[i%cfg.N], 0, fmt.Sprintf("abl-%d", i), 1, cmd); err != nil {
					b.Fatal(err)
				}
			}
			// Drain: wait until everything submitted in this run applied.
			for {
				done := true
				for _, st := range stores {
					if st.AppliedOps() < uint64(b.N) {
						done = false
						break
					}
				}
				if done {
					break
				}
				time.Sleep(100 * time.Microsecond)
			}
		})
	}
}

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
				faulty := make(map[types.ProcessID]sim.Node, depth)
				for d := 0; d < depth; d++ {
					faulty[types.View(1+d).Leader(cfg.N)] = sim.SilentNode{}
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

// BenchmarkSMRShardedThroughput is the PR's acceptance benchmark
// (BENCH_PR9): aggregate decided-commands/sec as one process hosts more
// consensus groups over one shared transport. A single group can keep at
// most WindowSize slots in flight, so once the burst outgrows one window the
// deployment serializes window generations — each a fixed number of message
// delays — on one leader's pipeline. With k groups the keyspace splits k
// ways, each group pipelines its own window, and each group's leader lands
// on a different physical process (group g leads at process (1+g) mod n):
// the deployment's in-flight capacity is k*WindowSize and the serialized
// generations overlap across groups. The profile is a geo-scale message
// delay (availability zones / nearby regions — the deployment BFT
// resilience is for) with a burst several windows deep, where the
// round-trip serialization dominates; the claim is the 2-shard aggregate
// beating the 1-shard aggregate by ≥1.5x. On multi-core hosts sharding
// additionally parallelizes leader work (batching, signing, the ordering
// hot path) across processes; this benchmark does not depend on that.
func BenchmarkSMRShardedThroughput(b *testing.B) {
	cfg := types.Generalized(1, 1)
	const burst = 256  // commands submitted per iteration, split across groups
	const maxBatch = 4 // as in BenchmarkSMRPipelinedThroughput
	const window = 8
	const delay = 5 * time.Millisecond
	for _, shards := range []int{1, 2, 4} {
		b.Run(fmt.Sprintf("shards=%d", shards), func(b *testing.B) {
			scheme := sigcrypto.NewHMAC(cfg.N, 1)
			net := transport.NewMemNetwork(cfg.N, delay)
			defer func() { _ = net.Close() }()
			groups := make([][]*group.Group, cfg.N)
			stores := make([][]*smr.KVStore, cfg.N)
			for p := 0; p < cfg.N; p++ {
				pid := types.ProcessID(p)
				mux := transport.NewGroupMux(net.Transport(pid), shards)
				for g := 0; g < shards; g++ {
					st := smr.NewKVStore()
					grp, err := group.New(group.Config{
						Cluster:     cfg,
						Index:       g,
						Shards:      shards,
						Self:        pid,
						Signer:      scheme.Signer(pid),
						Verifier:    scheme.Verifier(),
						Transport:   mux.View(g),
						App:         st,
						BaseTimeout: 500 * time.Millisecond,
						WindowSize:  window,
						MaxBatch:    maxBatch,
					})
					if err != nil {
						b.Fatal(err)
					}
					groups[p] = append(groups[p], grp)
					stores[p] = append(stores[p], st)
				}
				for _, grp := range groups[p] {
					if err := grp.Start(); err != nil {
						b.Fatal(err)
					}
				}
			}
			defer func() {
				for p := range groups {
					for _, grp := range groups[p] {
						_ = grp.Close()
					}
				}
			}()
			// Submit each group's traffic at its own leader, as a routing
			// client would.
			leaders := make([]int, shards)
			for g := 0; g < shards; g++ {
				leaders[g] = int(groups[0][g].Leader())
			}
			seqs := make([]uint64, shards)
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				for k := 0; k < burst; k++ {
					g := k * shards / burst
					seqs[g]++
					cmd := smr.EncodeKV(smr.KVCommand{
						Op: smr.OpSet, Client: "shard", Seq: seqs[g],
						Key: fmt.Sprintf("g%dk%d", g, seqs[g]%64), Value: "v",
					})
					if err := submit(groups[leaders[g]][g].Replica(), uint64(g), fmt.Sprintf("shard-%d", seqs[g]), 1, cmd); err != nil {
						b.Fatal(err)
					}
				}
				for {
					done := true
					for p := 0; p < cfg.N; p++ {
						for g := 0; g < shards; g++ {
							if stores[p][g].AppliedOps() < seqs[g] {
								done = false
							}
						}
					}
					if done {
						break
					}
					time.Sleep(50 * time.Microsecond)
				}
			}
			b.StopTimer()
			b.ReportMetric(float64(b.N*burst)/b.Elapsed().Seconds(), "cmds/s")
		})
	}
}

// leaderKillRun boots a fresh SMR cluster, commits preOps commands through
// the live view-1 leader (seeding every replica's decide-latency EWMA),
// kill -9's the leader (Close is the in-process equivalent: the transport
// drops, no goodbye), and then measures the submit-to-applied latency of
// postOps further commands, each of which must ride the windowed view
// change — the view-1 leader of every slot is the dead process. The
// returned slice holds the post-kill latencies.
func leaderKillRun(b *testing.B, cfg types.Config, fixed bool, preOps, postOps int) []time.Duration {
	b.Helper()
	const delay = 200 * time.Microsecond
	scheme := sigcrypto.NewHMAC(cfg.N, 7)
	net := transport.NewMemNetwork(cfg.N, delay)
	defer func() { _ = net.Close() }()
	reps := make([]*smr.Replica, cfg.N)
	stores := make([]*smr.KVStore, cfg.N)
	for i := 0; i < cfg.N; i++ {
		pid := types.ProcessID(i)
		stores[i] = smr.NewKVStore()
		r, err := smr.NewReplica(smr.Config{
			Cluster:      cfg,
			Self:         pid,
			Signer:       scheme.Signer(pid),
			Verifier:     scheme.Verifier(),
			Transport:    net.Transport(pid),
			App:          stores[i],
			BaseTimeout:  500 * time.Millisecond,
			FixedTimeout: fixed,
			WindowSize:   8,
			MaxBatch:     4,
		})
		if err != nil {
			b.Fatal(err)
		}
		reps[i] = r
	}
	for _, r := range reps {
		if err := r.Start(); err != nil {
			b.Fatal(err)
		}
	}
	defer func() {
		for _, r := range reps {
			_ = r.Close()
		}
	}()
	leader := int(types.View(1).Leader(cfg.N))
	oneOp := func(seq int, waitOn []int) time.Duration {
		cmd := smr.EncodeKV(smr.KVCommand{
			Op: smr.OpSet, Client: "lk", Seq: uint64(seq),
			Key: fmt.Sprintf("k%d", seq), Value: "v",
		})
		start := time.Now()
		if err := submit(reps[0], 0, "lk", uint64(seq+1), cmd); err != nil {
			b.Fatal(err)
		}
		for {
			done := true
			for _, i := range waitOn {
				if stores[i].AppliedOps() < uint64(seq+1) {
					done = false
					break
				}
			}
			if done {
				return time.Since(start)
			}
			if time.Since(start) > time.Minute {
				b.Fatalf("op %d not applied within a minute", seq)
			}
			time.Sleep(50 * time.Microsecond)
		}
	}
	all := make([]int, 0, cfg.N)
	survivors := make([]int, 0, cfg.N-1)
	for i := 0; i < cfg.N; i++ {
		all = append(all, i)
		if i != leader {
			survivors = append(survivors, i)
		}
	}
	for seq := 0; seq < preOps; seq++ {
		oneOp(seq, all)
	}
	_ = reps[leader].Close()
	lat := make([]time.Duration, 0, postOps)
	for seq := preOps; seq < preOps+postOps; seq++ {
		lat = append(lat, oneOp(seq, survivors))
	}
	return lat
}

// BenchmarkSMRLeaderKillP99 is the PR's acceptance benchmark (BENCH_PR8):
// tail latency of commands committed after the view-1 leader dies. The
// fixed-500ms arm is the pre-fix behavior — a hard BaseTimeout of leader
// suspicion charged to every slot the dead leader never proposes — and the
// adaptive arm is the windowed view change with EWMA-tracked suspicion
// (floor BaseTimeout/16). The fix's claim is the adaptive p99 beating the
// fixed p99 by at least 2x.
func BenchmarkSMRLeaderKillP99(b *testing.B) {
	cfg := types.Generalized(1, 1)
	const preOps, postOps = 30, 20
	for _, mode := range []struct {
		name  string
		fixed bool
	}{
		{"timeout=fixed-500ms", true},
		{"timeout=adaptive", false},
	} {
		b.Run(mode.name, func(b *testing.B) {
			var lat []time.Duration
			for i := 0; i < b.N; i++ {
				lat = append(lat, leaderKillRun(b, cfg, mode.fixed, preOps, postOps)...)
			}
			sort.Slice(lat, func(i, j int) bool { return lat[i] < lat[j] })
			p := func(q float64) float64 {
				i := int(q*float64(len(lat))+0.5) - 1
				if i < 0 {
					i = 0
				}
				if i >= len(lat) {
					i = len(lat) - 1
				}
				return float64(lat[i].Microseconds()) / 1000
			}
			b.ReportMetric(p(0.50), "p50-ms")
			b.ReportMetric(p(0.99), "p99-ms")
		})
	}
}
