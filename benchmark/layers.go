package main

import (
	"sort"
	"strconv"

	fastbft "repro"
)

// The (R) per-layer metrics: deltas of the replicas' public metrics
// registries over the measured window, divided by the operations confirmed
// in it. Nothing here reaches into the program; the registry is what an
// operator scrapes.

// stageNames are the request-pipeline stages the replicas time, each as the
// cumulative latency from submit (see internal/obs).
var stageNames = []string{"proposed", "ackquorum", "decided", "applied", "durable", "replied"}

// regDelta is the change of one replica's registry between two snapshots.
type regDelta struct {
	begin, end *fastbft.MetricsSnapshot
}

// matches reports whether a series carries every label in want.
func matches(labels, want map[string]string) bool {
	for k, v := range want {
		if labels[k] != v {
			return false
		}
	}
	return true
}

// sumValue adds up every counter series of the snapshot with the given name
// and labels (across groups).
func sumValue(s *fastbft.MetricsSnapshot, name string, want map[string]string) float64 {
	total := 0.0
	for i := range s.Metrics {
		if m := &s.Metrics[i]; m.Name == name && matches(m.Labels, want) {
			total += m.Value
		}
	}
	return total
}

// counter is the growth of a counter family over the window.
func (d regDelta) counter(name string, want map[string]string) float64 {
	return sumValue(d.end, name, want) - sumValue(d.begin, name, want)
}

// hist is a histogram family merged across series: observation count, sum
// and cumulative buckets.
type hist struct {
	count float64
	sum   float64
	les   []float64
	cum   []float64
}

// sumHist merges every histogram series with the given name and labels.
// All series of one family share their bucket bounds.
func sumHist(s *fastbft.MetricsSnapshot, name string, want map[string]string) hist {
	var h hist
	for i := range s.Metrics {
		m := &s.Metrics[i]
		if m.Name != name || !matches(m.Labels, want) {
			continue
		}
		h.count += float64(m.Count)
		h.sum += m.Sum
		if h.cum == nil {
			h.les = make([]float64, len(m.Buckets))
			h.cum = make([]float64, len(m.Buckets))
			for j, b := range m.Buckets {
				h.les[j] = b.LE
			}
		}
		for j, b := range m.Buckets {
			h.cum[j] += float64(b.Count)
		}
	}
	return h
}

// histogram is the growth of a histogram family over the window.
func (d regDelta) histogram(name string, want map[string]string) hist {
	b, e := sumHist(d.begin, name, want), sumHist(d.end, name, want)
	e.count -= b.count
	e.sum -= b.sum
	for j := range b.cum {
		e.cum[j] -= b.cum[j]
	}
	return e
}

// add merges another histogram delta of the same family into h.
func (h *hist) add(o hist) {
	h.count += o.count
	h.sum += o.sum
	if h.cum == nil {
		h.les, h.cum = o.les, append([]float64(nil), o.cum...)
		return
	}
	for j := range o.cum {
		h.cum[j] += o.cum[j]
	}
}

// quantile estimates the q-quantile of the merged histogram.
func (h hist) quantile(q float64) float64 { return histQuantile(h.les, h.cum, q) }

// ratio is a/b, or 0 when b is 0.
func ratio(a, b float64) float64 {
	if b == 0 {
		return 0
	}
	return a / b
}

// registryMetrics derives the (R) metrics from the per-replica deltas.
// ops is the number of operations confirmed in the window; leader is the
// index in deltas of the group-0 view-1 leader, whose stage histograms time
// requests from the proposer's pending queue. Per-operation figures are the
// mean over the replicas in deltas.
func registryMetrics(deltas []regDelta, leader int, ops float64, shards int) map[string]float64 {
	out := make(map[string]float64)
	var msgsOut, fast, slow, views, regime, reproposed float64
	var applied, decided float64
	var records, walBytes, syncs, frames, netBytes, muxFrames float64
	var fsync hist
	for _, d := range deltas {
		msgsOut += d.counter("fastbft_messages_out_total", nil)
		fast += d.counter("fastbft_decided_path_total", map[string]string{"path": "fast"})
		slow += d.counter("fastbft_decided_path_total", map[string]string{"path": "slow"})
		views += d.counter("fastbft_view_changes_total", nil)
		regime += d.counter("fastbft_regime_timeouts_total", nil)
		reproposed += d.counter("fastbft_commands_reproposed_total", nil)
		applied += d.counter("fastbft_commands_applied_total", nil)
		decided += d.counter("fastbft_slots_decided_total", nil)
		records += d.counter("fastbft_wal_records_total", nil)
		walBytes += d.counter("fastbft_wal_bytes_total", nil)
		syncs += d.counter("fastbft_wal_syncs_total", nil)
		frames += d.counter("fastbft_net_frames_out_total", nil)
		netBytes += d.counter("fastbft_net_bytes_out_total", nil)
		muxFrames += d.counter("fastbft_mux_frames_out_total", nil)
		fsync.add(d.histogram("fastbft_fsync_seconds", nil))
	}
	perOp := ops * float64(len(deltas))
	out["smr.msgs_out_per_op"] = ratio(msgsOut, perOp)
	out["smr.batch_size_mean"] = ratio(applied, decided)
	out["smr.fast_path_share"] = ratio(fast, fast+slow)
	out["smr.view_changes"] = views
	out["smr.regime_timeouts"] = regime
	out["smr.reproposed"] = reproposed
	out["storage.wal_records_per_op"] = ratio(records, perOp)
	out["storage.wal_bytes_per_op"] = ratio(walBytes, perOp)
	out["storage.fsyncs_per_op"] = ratio(syncs, perOp)
	out["storage.records_per_fsync"] = ratio(records, syncs)
	out["storage.fsync_p50_ms"] = fsync.quantile(0.50) * 1e3
	out["storage.fsync_p99_ms"] = fsync.quantile(0.99) * 1e3
	out["transport.frames_out_per_op"] = ratio(frames, perOp)
	out["transport.bytes_out_per_op"] = ratio(netBytes, perOp)
	out["transport.mux_frames_per_op"] = ratio(muxFrames, perOp)
	for _, st := range stageNames {
		h := deltas[leader].histogram("fastbft_stage_seconds", map[string]string{"stage": st})
		out["smr.stage_ms."+st] = ratio(h.sum, h.count) * 1e3
	}
	// Slots decided per group, over all replicas: how evenly the shards
	// share the load.
	var perGroup []float64
	for g := 0; g < shards; g++ {
		want := map[string]string{"group": strconv.Itoa(g)}
		slots := 0.0
		for _, d := range deltas {
			slots += d.counter("fastbft_slots_decided_total", want)
		}
		perGroup = append(perGroup, slots)
	}
	sort.Float64s(perGroup)
	out["group.slots_min_over_max"] = ratio(perGroup[0], perGroup[len(perGroup)-1])
	return out
}
