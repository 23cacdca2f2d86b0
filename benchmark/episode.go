package main

import (
	"errors"
	"fmt"
	"runtime"
	"runtime/metrics"
	"sort"
	"syscall"
	"time"

	fastbft "repro"
)

const (
	// sliceLen is the grain of the throughput, CPU and allocation figures:
	// each is taken per slice of the measured window and reported as the
	// median over the slices, which a slow stretch of the host shifts far
	// less than it shifts a mean.
	sliceLen = 500 * time.Millisecond
	// quiesceTimeout bounds the wait for the live replicas to converge after
	// the load stops.
	quiesceTimeout = 20 * time.Second
	// drainWrites bounds the extra writes issued while waiting: a replica
	// that fell out of the window under load catches up by state transfer at
	// the next stable checkpoint, which only further writes bring about.
	drainWrites = 4 * checkpointInterval
	// minFastShare is the least share of slots a fault-free cluster must
	// decide on the fast path. It is not 1: a saturated cluster whose
	// fourth replica lags collects a commit certificate from the other three
	// before the fourth ack arrives, for up to 0.3 % of the slots measured.
	minFastShare = 0.98
	// lateLimit is the generator lateness (p99) above which an open-loop
	// episode is flagged: its schedule was not the one that was asked for.
	lateLimit = 5 * time.Millisecond
)

// episode is one fresh cluster driven through warm-up and one measured
// window, with everything the metrics are computed from.
type episode struct {
	w workload
	// epoch is the instant all sample and window offsets count from.
	epoch time.Time
	// setup is boot to the first confirmed write.
	setup time.Duration
	// winStart and winEnd bound the measured window. Where the leader is
	// killed, the window ends at the kill and the load runs on until
	// loadEnd, so that requests fall due while no leader exists.
	winStart, winEnd, loadEnd time.Duration
	// killAt is when the leader was closed, or 0 if it never was.
	killAt time.Duration
	// samples holds every request of every session, warm-up included.
	samples []sample
	// attempted, confirmed and failed count the window's requests (and,
	// where the leader is killed, the ones due after the kill).
	attempted, confirmed, failed int
	// lats are the latencies of the window's confirmed requests, sorted, ms.
	lats []float64
	// Per-slice figures of the window.
	sliceOpsPerS, sliceCPUms, sliceAllocs []float64
	// cpu is the process CPU time spent in the window.
	cpu   time.Duration
	layer map[string]float64
	// flags name what made this episode unusual (a late generator).
	flags []string
	// spans are the attributed spans of the window (traced episodes only),
	// which began at spanOrigin on the tracer's clock.
	spans      []span
	spanOrigin int64
}

// tick is the process's CPU time and allocation count at an instant.
type tick struct {
	at      time.Duration
	cpu     time.Duration
	mallocs uint64
}

// probe is what the driver reads at a window boundary.
type probe struct {
	tick
	gcPause uint64
	heapSys uint64
	regs    []*fastbft.MetricsSnapshot // indexed like cluster.nodes; nil if not live
	client  clientCounts               // traced runs only
}

// processCPU returns the user plus system CPU time the process has used.
func processCPU() time.Duration {
	var ru syscall.Rusage
	if err := syscall.Getrusage(syscall.RUSAGE_SELF, &ru); err != nil {
		return 0 // cannot fail for RUSAGE_SELF with a valid pointer
	}
	return time.Duration(ru.Utime.Nano() + ru.Stime.Nano())
}

// takeTick reads the process counters without stopping the world.
func takeTick(epoch time.Time) tick {
	s := []metrics.Sample{{Name: "/gc/heap/allocs:objects"}}
	metrics.Read(s)
	return tick{at: time.Since(epoch), cpu: processCPU(), mallocs: s[0].Value.Uint64()}
}

// takeProbe reads the process counters and every live replica's registry.
func takeProbe(c *cluster, epoch time.Time) probe {
	var ms runtime.MemStats
	runtime.ReadMemStats(&ms)
	p := probe{
		tick: takeTick(epoch), gcPause: ms.PauseTotalNs, heapSys: ms.HeapSys,
		regs: make([]*fastbft.MetricsSnapshot, len(c.nodes)),
	}
	for i, nd := range c.nodes {
		if nd != nil {
			p.regs[i] = nd.Metrics().Snapshot()
		}
	}
	if c.tr != nil {
		p.client = c.tr.clientSnapshot()
	}
	return p
}

// afterKill is how long the load keeps running after the leader is closed:
// long enough for the view change to complete and be seen, short enough to
// leave most of the episode to the steady window.
func afterKill(measure time.Duration) time.Duration {
	if measure < 2*time.Second {
		return measure / 2
	}
	return time.Second
}

// sleepUntil blocks until offset d past epoch.
func sleepUntil(epoch time.Time, d time.Duration) {
	if wait := d - time.Since(epoch); wait > 0 {
		time.Sleep(wait)
	}
}

// setUp boots a fresh cluster for the workload, opens its sessions and
// confirms one write, and returns how long that took: the set-up time a
// user waits before the service answers. Whatever it built is returned even
// on error, for tearDown.
func setUp(w workload, seed int64, dataRoot string, tr *tracer, opLists [][]op) (*cluster, []*sessionState, time.Duration, error) {
	start := time.Now()
	c, err := boot(w, seed, dataRoot, tr)
	if err != nil {
		return nil, nil, 0, fmt.Errorf("boot: %w", err)
	}
	states := make([]*sessionState, 0, w.sessions)
	for s := 0; s < w.sessions; s++ {
		sess, err := c.newSession(s)
		if err != nil {
			return c, states, 0, fmt.Errorf("session %d: %w", s, err)
		}
		states = append(states, newSessionState(s, sess, opLists[s]))
	}
	states[0].do(start, 0)
	took := time.Since(start)
	if !states[0].samples[0].ok {
		return c, states, 0, errors.New("first write was not confirmed")
	}
	// The set-up write was timed on its own clock; it is not a sample.
	states[0].samples = states[0].samples[:0]
	return c, states, took, nil
}

// tearDown closes the sessions and the cluster setUp returned.
func tearDown(c *cluster, states []*sessionState) {
	for _, s := range states {
		_ = s.sess.Close() // read side only; nothing left to lose
	}
	if c != nil {
		c.close()
	}
}

// runEpisode boots a fresh cluster for the workload, warms it up, measures
// one window of the given length, and checks the outcome. The operation
// lists are generated from the seed before the clock starts. With a tracer
// the cluster is the traced assembly.
func runEpisode(w workload, seed int64, measure time.Duration, dataRoot string, tr *tracer) (*episode, error) {
	opLists := make([][]op, w.sessions)
	for s := range opLists {
		opLists[s] = genOps(seed, s, opsPerSession)
	}

	c, states, setup, err := setUp(w, seed, dataRoot, tr, opLists)
	defer tearDown(c, states)
	if err != nil {
		return nil, err
	}
	ep := &episode{w: w, setup: setup}

	ep.epoch = time.Now()
	ep.winStart = w.warmup
	ep.loadEnd = w.warmup + measure
	ep.winEnd = ep.loadEnd
	if w.killLeader {
		ep.winEnd -= afterKill(measure)
	}
	loadDone := make(chan struct{})
	go func() {
		defer close(loadDone)
		if w.rate > 0 {
			runOpen(states, ep.epoch, schedule(w.rate, ep.loadEnd))
		} else {
			runClosed(states, ep.epoch, ep.loadEnd)
		}
	}()

	sleepUntil(ep.epoch, ep.winStart)
	begin := takeProbe(c, ep.epoch)
	ticks := []tick{begin.tick}
	for at := ep.winStart + sliceLen; at < ep.winEnd; at += sliceLen {
		sleepUntil(ep.epoch, at)
		ticks = append(ticks, takeTick(ep.epoch))
	}
	sleepUntil(ep.epoch, ep.winEnd)
	end := takeProbe(c, ep.epoch)
	ticks = append(ticks, end.tick)
	if w.killLeader {
		ep.killAt = time.Since(ep.epoch)
		if err := c.kill(c.leader()); err != nil {
			return nil, fmt.Errorf("closing the leader: %w", err)
		}
	}
	<-loadDone
	final := takeProbe(c, ep.epoch)

	for _, s := range states {
		ep.samples = append(ep.samples, s.samples...)
	}
	ep.measure(begin, end, final, ticks)
	if tr != nil {
		ep.traceMetrics(tr, begin, end)
	}
	if err := ep.gate(c, states, end); err != nil {
		return nil, fmt.Errorf("correctness gate: %w", err)
	}
	return ep, nil
}

// instant is the time that places a request in the window: its due time in
// an open loop (every scheduled request counts, however late it completes),
// its completion in a closed loop.
func (ep *episode) instant(s sample) time.Duration {
	if ep.w.rate > 0 {
		return s.due
	}
	return s.done
}

// measure computes the episode's figures from the samples, the probes at
// the window's two ends and after the load, and the ticks at every slice
// boundary.
func (ep *episode) measure(begin, end, final probe, ticks []tick) {
	var late []float64
	var firstAfterKill time.Duration
	sliceOps := make([]int, len(ticks)-1)
	for _, s := range ep.samples {
		at := ep.instant(s)
		afterKill := ep.killAt > 0 && s.due >= ep.killAt
		if !afterKill && (at < ticks[0].at || at >= ticks[len(ticks)-1].at) {
			continue
		}
		ep.attempted++
		if !s.ok {
			ep.failed++
			continue
		}
		if afterKill {
			if firstAfterKill == 0 || s.done < firstAfterKill {
				firstAfterKill = s.done
			}
			continue
		}
		ep.confirmed++
		ep.lats = append(ep.lats, float64(s.latency())/1e6)
		late = append(late, float64(s.sent-s.due)/1e6)
		sliceOps[sort.Search(len(sliceOps)-1, func(k int) bool { return ticks[k+1].at > at })]++
	}
	sort.Float64s(ep.lats)
	sort.Float64s(late)
	for k, n := range sliceOps {
		a, b := ticks[k], ticks[k+1]
		ops := float64(n)
		ep.sliceOpsPerS = append(ep.sliceOpsPerS, ops/(b.at-a.at).Seconds())
		if n > 0 {
			ep.sliceCPUms = append(ep.sliceCPUms, float64(b.cpu-a.cpu)/1e6/ops)
			ep.sliceAllocs = append(ep.sliceAllocs, float64(b.mallocs-a.mallocs)/ops)
		}
	}
	ep.cpu = end.cpu - begin.cpu

	var deltas, sinceLoad []regDelta
	leader := 0
	for i, b := range begin.regs {
		if b == nil {
			continue
		}
		if i == leaderOf(len(begin.regs)) {
			leader = len(deltas)
		}
		deltas = append(deltas, regDelta{begin: b, end: end.regs[i]})
		if final.regs[i] != nil {
			sinceLoad = append(sinceLoad, regDelta{begin: b, end: final.regs[i]})
		}
	}
	ep.layer = registryMetrics(deltas, leader, float64(ep.confirmed), ep.w.shards)
	// Leader suspicions are counted until the load has drained, so that the
	// view changes a kill causes are in them.
	ep.layer["smr.view_changes"], ep.layer["smr.regime_timeouts"] = 0, 0
	for _, d := range sinceLoad {
		ep.layer["smr.view_changes"] += d.counter("fastbft_view_changes_total", nil)
		ep.layer["smr.regime_timeouts"] += d.counter("fastbft_regime_timeouts_total", nil)
	}
	ep.layer["latency_p95_ms"] = percentile(ep.lats, 95)
	ep.layer["latency_p99_ms"] = percentile(ep.lats, 99)
	ep.layer["failed_share"] = ratio(float64(ep.failed), float64(ep.attempted))
	ep.layer["failover_ms"] = 0
	if firstAfterKill > 0 {
		ep.layer["failover_ms"] = float64(firstAfterKill-ep.killAt) / 1e6
	}
	ep.layer["loadgen.late_p99_ms"] = percentile(late, 99)
	if ep.layer["loadgen.late_p99_ms"] > float64(lateLimit)/1e6 {
		ep.flags = append(ep.flags, "late-generator")
	}
	ep.layer["runtime.gc_pause_ms"] = float64(end.gcPause-begin.gcPause) / 1e6
	ep.layer["runtime.heap_mb_peak"] = float64(end.heapSys) / (1 << 20)
}

// traceMetrics derives the (T) metrics from the spans that started in the
// measured window. Per-operation figures are the mean over the replicas,
// like the registry's.
func (ep *episode) traceMetrics(tr *tracer, begin, end probe) {
	ep.spanOrigin = int64(ep.epoch.Sub(tr.begin) + ep.winStart)
	ep.spans = tr.window(ep.spanOrigin, ep.spanOrigin+int64(ep.winEnd-ep.winStart))
	attribute(ep.spans)
	b := sumLayers(ep.spans)
	replicas := 0
	for _, r := range begin.regs {
		if r != nil {
			replicas++
		}
	}
	ops := float64(ep.confirmed)
	perOp := ops * float64(replicas)
	cpu := float64(ep.cpu)
	l := ep.layer
	l["sigcrypto.signs_per_op"] = ratio(float64(b.counts[kindSign]), perOp)
	l["sigcrypto.verifies_per_op"] = ratio(float64(b.counts[kindVerify]), perOp)
	l["sigcrypto.busy_ms_per_op"] = ratio(float64(b.sign+b.verify)/1e6, perOp)
	l["sigcrypto.busy_share"] = ratio(float64(b.sign+b.verify), cpu)
	l["smr.handler_self_ms_per_op"] = ratio(float64(b.handlerSelf)/1e6, perOp)
	l["smr.handler_wait_ms_per_op"] = ratio(float64(b.handlerWait)/1e6, perOp)
	l["smr.apply_us_per_op"] = ratio(float64(b.apply)/1e3, perOp)
	l["transport.send_calls_per_op"] = ratio(float64(b.counts[kindSend]), perOp)
	l["transport.send_busy_us_per_op"] = ratio(float64(b.send)/1e3, perOp)
	sent := end.client.sends - begin.client.sends
	l["client.sends_per_op"] = ratio(float64(sent), ops)
	l["client.retransmits_per_op"] = ratio(float64(end.client.resends-begin.client.resends), ops)
	l["client.replies_per_op"] = ratio(float64(end.client.replies-begin.client.replies), ops)
	l["client.reply_skew_ms"] = ratio(float64(end.client.skewNS-begin.client.skewNS)/1e6,
		float64(end.client.settled-begin.client.settled))
	l["layers.unattributed_share"] = 1 - ratio(float64(b.total()), cpu)
}

// converged reports whether the live replicas have applied the same number
// of commands, at least as many as were confirmed.
func converged(live []node, confirmed uint64) (lo, hi uint64, ok bool) {
	lo, hi = live[0].AppliedOps(), live[0].AppliedOps()
	for _, nd := range live[1:] {
		a := nd.AppliedOps()
		if a < lo {
			lo = a
		}
		if a > hi {
			hi = a
		}
	}
	return lo, hi, lo == hi && lo >= confirmed
}

// gate is the correctness check of one episode: the live replicas converge
// on one applied count covering every confirmed write, no reply disagreed
// with the model, every key reads everywhere as its owner's last confirmed
// write, and the decision path is the one the workload exists to exercise.
func (ep *episode) gate(c *cluster, states []*sessionState, end probe) error {
	confirmed := uint64(1) // the set-up write
	for _, s := range ep.samples {
		if s.ok {
			confirmed++
		}
	}
	live := c.live()
	deadline := time.Now().Add(quiesceTimeout)
	for drained := 0; ; {
		lo, hi, ok := converged(live, confirmed)
		if ok {
			break
		}
		if time.Now().After(deadline) {
			return fmt.Errorf("replicas did not converge within %v: applied %d..%d, confirmed %d, %d drain writes\n%s",
				quiesceTimeout, lo, hi, confirmed, drained, c.describe())
		}
		if lo != hi && drained < drainWrites {
			// One write per poll: enough to reach the next checkpoint, slow
			// enough for the straggler to follow once it has the state.
			s := states[drained%len(states)]
			s.do(ep.epoch, time.Since(ep.epoch))
			if s.samples[len(s.samples)-1].ok {
				confirmed++
			}
			drained++
		}
		time.Sleep(2 * time.Millisecond)
	}
	wrong := 0
	for _, s := range states {
		wrong += s.wrong
	}
	if wrong > 0 {
		return fmt.Errorf("%d confirmed replies disagree with the model", wrong)
	}
	for _, s := range states {
		for k := 0; k < keysPerSession; k++ {
			key := keyName(s.id, k)
			if s.unknown[key] {
				continue
			}
			want, present := s.model[key]
			for i, nd := range c.nodes {
				if nd == nil {
					continue
				}
				if got, ok := nd.Get(key); ok != present || got != want {
					return fmt.Errorf("replica %d reads %s as %q (present=%v), want %q (present=%v)",
						i, key, got, ok, want, present)
				}
			}
		}
	}

	// Decision path since boot on every replica, up to the end of the
	// window: where the leader is killed that is the moment before the kill.
	var fast, slow float64
	for _, reg := range end.regs {
		if reg != nil {
			fast += sumValue(reg, "fastbft_decided_path_total", map[string]string{"path": "fast"})
			slow += sumValue(reg, "fastbft_decided_path_total", map[string]string{"path": "slow"})
		}
	}
	if ep.w.slowPath && fast != 0 {
		return fmt.Errorf("%v slots decided on the fast path; the workload must force the slow path", fast)
	}
	if share := ratio(fast, fast+slow); !ep.w.slowPath && share < minFastShare {
		return fmt.Errorf("%v slots decided fast and %v slow (fast share %.4f, want at least %v) in a fault-free cluster",
			fast, slow, share, minFastShare)
	}
	if ep.w.killLeader && ep.layer["smr.view_changes"] < 1 {
		return errors.New("the leader was closed but no view change was recorded")
	}
	if ms, limit := ep.layer["failover_ms"], float64(ep.loadEnd-ep.winEnd)/1e6; ep.w.killLeader && !(ms > 0 && ms <= limit) {
		return fmt.Errorf("first confirmation of a request due after the leader was closed took %.0f ms (0: none came); the limit is %.0f ms", ms, limit)
	}
	return nil
}
