package main

import (
	"fmt"
	"os"
	"path/filepath"
	"time"
)

// metricValue is one reported metric, with the min–max range of the
// per-episode values behind it where there are several.
type metricValue struct {
	Value  float64 `json:"value"`
	Unit   string  `json:"unit"`
	Spread *spread `json:"spread,omitempty"`
}

// runReport is the outcome of one run of one workload.
type runReport struct {
	Workload string `json:"workload"`
	Seed     int64  `json:"seed"`
	Seconds  int    `json:"seconds"`
	Trace    bool   `json:"trace"`
	// Correct is true when every episode passed the correctness gate.
	Correct   bool `json:"correct"`
	Attempted int  `json:"attempted"`
	Failed    int  `json:"failed"`
	// LatencySamples is the smallest number of latency samples behind one
	// episode's percentiles.
	LatencySamples int                    `json:"latency_samples"`
	Flags          []string               `json:"flags,omitempty"`
	Metrics        map[string]metricValue `json:"metrics"`
}

// episodeSeed derives the seed of one episode of a run, so that episodes of
// one run, and runs with different seeds, never share an operation list.
func episodeSeed(seed int64, rep int) int64 { return seed*16 + int64(rep) }

// episodeDir is the fresh data root of one episode, private to this process.
func episodeDir(dataBase string, w workload, e int) string {
	return filepath.Join(dataBase, fmt.Sprintf("%s-%d-%d", w.name, os.Getpid(), e))
}

// count adds one episode's request counts and flags to the report.
func (r *runReport) count(ep *episode) {
	r.Attempted += ep.attempted
	r.Failed += ep.failed
	if r.LatencySamples == 0 || len(ep.lats) < r.LatencySamples {
		r.LatencySamples = len(ep.lats)
	}
	r.Flags = append(r.Flags, ep.flags...)
}

// endToEndOf computes the end-to-end metrics of a set of episodes. Each
// episode gives one value per metric — for throughput, CPU and allocations
// the median over its 500 ms slices, for latency the median of its samples —
// and the run reports the mean of the episodes' values: a durable cluster
// settles into one of two fsync regimes for as long as it lives (README.md,
// "How steady the numbers are"), so the episodes of a run are draws from two
// values a seventh apart, and their median would be one or the other where
// their mean is in between. Set-up time is the median of all the boots.
func endToEndOf(eps []*episode, extraSetups ...time.Duration) map[string]metricValue {
	perEpisode := make(map[string][]float64)
	for _, ep := range eps {
		for name, v := range map[string]float64{
			"throughput_ops_s": median(ep.sliceOpsPerS),
			"cpu_ms_per_op":    median(ep.sliceCPUms),
			"allocs_per_op":    median(ep.sliceAllocs),
			"latency_p50_ms":   percentile(ep.lats, 50),
			"setup_s":          ep.setup.Seconds(),
		} {
			perEpisode[name] = append(perEpisode[name], v)
		}
	}
	out := make(map[string]metricValue, len(endToEnd))
	for _, d := range endToEnd {
		mv := metricValue{Value: mean(perEpisode[d.name]), Unit: d.unit}
		if len(eps) > 1 {
			sp := spreadOf(perEpisode[d.name])
			mv.Spread = &sp
		}
		out[d.name] = mv
	}
	setups := perEpisode["setup_s"]
	for _, d := range extraSetups {
		setups = append(setups, d.Seconds())
	}
	setup := out["setup_s"]
	setup.Value = median(setups)
	out["setup_s"] = setup
	return out
}

// measureEpisode runs episode number e of a run and adds it to the report.
func (r *runReport) measureEpisode(w workload, e int, measure time.Duration, dataBase string, tr *tracer) (*episode, error) {
	ep, err := runEpisode(w, episodeSeed(r.Seed, e), measure, episodeDir(dataBase, w, e), tr)
	if err != nil {
		return nil, fmt.Errorf("%s episode %d: %w", w.name, e, err)
	}
	r.count(ep)
	return ep, nil
}

// runUntraced measures the workload's end-to-end metrics with tracing off:
// the run's seconds are divided among the episodes, each on a fresh
// cluster built by the public constructor.
func runUntraced(w workload, seed int64, seconds int, dataBase string) (*runReport, error) {
	rep := &runReport{Workload: w.name, Seed: seed, Seconds: seconds}
	measure := time.Duration(seconds) * time.Second / episodes
	var eps []*episode
	for e := 0; e < episodes; e++ {
		ep, err := rep.measureEpisode(w, e, measure, dataBase, nil)
		if err != nil {
			return rep, err
		}
		eps = append(eps, ep)
	}
	// Set-up takes milliseconds and varies by a third from boot to boot;
	// a few more boots, with nothing measured on them, steady its median.
	var setups []time.Duration
	for e := 0; e < extraSetups; e++ {
		lists := make([][]op, w.sessions)
		lists[0] = genOps(seed, 0, 1) // only the first write is sent
		c, states, took, err := setUp(w, seed, episodeDir(dataBase, w, episodes+e), nil, lists)
		tearDown(c, states)
		if err != nil {
			return rep, fmt.Errorf("%s extra set-up %d: %w", w.name, e, err)
		}
		setups = append(setups, took)
	}
	rep.Metrics = endToEndOf(eps, setups...)
	rep.Correct = true
	return rep, nil
}

// extraSetups is how many clusters an untraced run boots only to time the
// set-up, on top of its episodes.
const extraSetups = 6

// runTraced measures the workload's per-layer metrics. Half of the run's
// seconds go to an untraced episode, which gives the registry (R) and
// harness (H) figures; the other half to a traced episode on the assembly
// with span-recording wrappers, which gives the (T) figures and, against
// the first half, the tracing overhead; then the layers are timed in
// isolation (µ). The spans are written to tracePath.
func runTraced(w workload, seed int64, seconds int, dataBase, tracePath string) (*runReport, error) {
	rep := &runReport{Workload: w.name, Seed: seed, Seconds: seconds, Trace: true}
	measure := time.Duration(seconds) * time.Second / 2
	plain, err := rep.measureEpisode(w, 0, measure, dataBase, nil)
	if err != nil {
		return rep, err
	}
	tr := newTracer()
	traced, err := rep.measureEpisode(w, 1, measure, dataBase, tr)
	if err != nil {
		return rep, err
	}
	if tr.full {
		rep.Flags = append(rep.Flags, "trace-truncated")
	}
	if err := writeTrace(tracePath, seed, traced, tr.full); err != nil {
		return rep, fmt.Errorf("writing %s: %w", tracePath, err)
	}
	micro, err := runMicro(seed, filepath.Join(dataBase, fmt.Sprintf("micro-%d", os.Getpid())))
	if err != nil {
		return rep, fmt.Errorf("layer timings: %w", err)
	}

	values := make(map[string]float64)
	for name, v := range plain.layer {
		values[name] = v
	}
	for _, d := range perLayer {
		if d.source == "T" {
			values[d.name] = traced.layer[d.name]
		}
	}
	for name, v := range micro {
		values[name] = v
	}
	// Tracing costs CPU: the overhead is the growth of CPU per operation.
	values["trace.overhead_pct"] = 100 * (ratio(median(traced.sliceCPUms), median(plain.sliceCPUms)) - 1)
	values["layers.unattributed_share"] = traced.layer["layers.unattributed_share"]
	rep.Metrics = make(map[string]metricValue, len(perLayer))
	for _, d := range perLayer {
		rep.Metrics[d.name] = metricValue{Value: values[d.name], Unit: d.unit}
	}
	rep.Correct = true
	return rep, nil
}
