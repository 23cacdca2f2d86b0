// Package obs is the replica's observability layer: a dependency-free
// metrics registry (atomic counters, gauges, and fixed-bucket histograms,
// allocation-free on the hot path), a nil-safe leveled logger, a staged
// request tracer, and an HTTP introspection server exposing Prometheus text
// exposition, a JSON snapshot, and net/http/pprof.
//
// The registry is deliberately small. Metrics are registered once, up
// front, with their constant labels (e.g. group="0"); registration is
// idempotent by (name, labels), so several consensus groups of one process
// can share a process-wide registry and per-group series coexist with
// aggregate reads. After registration every operation — Inc, Add, Set,
// Observe — is one or two atomic instructions with no allocation and no
// lock, cheap enough to leave enabled unconditionally: the SMR hot path
// (signatures, fsync, network round trips) is orders of magnitude above it.
//
// All methods on a nil *Registry still return live metrics; they are simply
// never exported. Layers therefore instrument unconditionally and callers
// opt in to exposition by supplying a real registry.
package obs

import (
	"encoding/json"
	"fmt"
	"io"
	"math"
	"sort"
	"strings"
	"sync"
	"sync/atomic"
	"time"
)

// Labels are a metric's constant labels, fixed at registration.
type Labels map[string]string

// With returns a copy of l with label k set to v.
func (l Labels) With(k, v string) Labels {
	out := Labels{k: v}
	for key, val := range l {
		out[key] = val
	}
	return out
}

// Counter is a monotonically increasing atomic counter.
type Counter struct{ v atomic.Uint64 }

// Inc adds one.
func (c *Counter) Inc() { c.Add(1) }

// Add adds n.
func (c *Counter) Add(n uint64) {
	if c == nil {
		return
	}
	c.v.Add(n)
}

// Load returns the current value. The read is atomic: never torn, even
// against concurrent writers.
func (c *Counter) Load() uint64 {
	if c == nil {
		return 0
	}
	return c.v.Load()
}

// Gauge is an atomic instantaneous value that can move both ways.
type Gauge struct{ v atomic.Int64 }

// Set stores v.
func (g *Gauge) Set(v int64) {
	if g == nil {
		return
	}
	g.v.Store(v)
}

// Add adds n (which may be negative).
func (g *Gauge) Add(n int64) {
	if g == nil {
		return
	}
	g.v.Add(n)
}

// Load returns the current value.
func (g *Gauge) Load() int64 {
	if g == nil {
		return 0
	}
	return g.v.Load()
}

// Histogram is a fixed-bucket histogram over uint64 observations (typically
// nanoseconds). Bucket upper bounds are set at registration and never
// change; Observe is a linear scan over a handful of bounds plus three
// atomic adds — no locks, no allocation. Exported values are divided by
// Scale (1e9 turns nanosecond observations into Prometheus-conventional
// seconds).
type Histogram struct {
	bounds []uint64
	scale  float64
	counts []atomic.Uint64 // len(bounds)+1; last is +Inf
	sum    atomic.Uint64
}

// Observe records v.
func (h *Histogram) Observe(v uint64) {
	if h == nil {
		return
	}
	i := 0
	for i < len(h.bounds) && v > h.bounds[i] {
		i++
	}
	h.counts[i].Add(1)
	h.sum.Add(v)
}

// ObserveDuration records d as nanoseconds; negative durations clamp to 0.
func (h *Histogram) ObserveDuration(d time.Duration) {
	if d < 0 {
		d = 0
	}
	h.Observe(uint64(d))
}

// Count returns the number of observations: the sum of the buckets. There
// is no separate counter — every view of the histogram derives its count
// from the same pass that reads its buckets, so count and +Inf bucket agree
// however writers interleave.
func (h *Histogram) Count() uint64 {
	if h == nil {
		return 0
	}
	total := uint64(0)
	for i := range h.counts {
		total += h.counts[i].Load()
	}
	return total
}

// DefaultLatencyBuckets are exponential (doubling) nanosecond bounds from
// 50µs to ~26s — wide enough to cover a fast-path decide on loopback and a
// view change riding an fsync stall.
func DefaultLatencyBuckets() []uint64 {
	b := make([]uint64, 20)
	v := uint64(50_000) // 50µs
	for i := range b {
		b[i] = v
		v *= 2
	}
	return b
}

// CoalesceBuckets are power-of-two bounds for small cardinalities such as
// WAL records coalesced per fsync.
func CoalesceBuckets() []uint64 {
	b := make([]uint64, 10)
	v := uint64(1)
	for i := range b {
		b[i] = v
		v *= 2
	}
	return b
}

type metricKind uint8

const (
	kindCounter metricKind = iota
	kindGauge
	kindGaugeFunc
	kindHistogram
)

func (k metricKind) String() string {
	switch k {
	case kindCounter:
		return "counter"
	case kindGauge, kindGaugeFunc:
		return "gauge"
	case kindHistogram:
		return "histogram"
	}
	return "unknown"
}

type metric struct {
	name     string
	help     string
	labels   Labels
	labelStr string // pre-rendered {k="v",...} or ""
	kind     metricKind
	c        *Counter
	g        *Gauge
	fn       func() float64
	h        *Histogram
}

// Registry holds registered metrics. A nil *Registry is valid: registration
// returns live, unexported metrics, so instrumented code never branches on
// whether observability was requested.
type Registry struct {
	mu    sync.Mutex
	byKey map[string]*metric
	order []*metric
}

// NewRegistry returns an empty registry.
func NewRegistry() *Registry {
	return &Registry{byKey: make(map[string]*metric)}
}

// register finds or creates the metric (name, labels); mismatched
// re-registration (same series, different kind) is a programming error and
// panics.
func (r *Registry) register(name, help string, labels Labels, kind metricKind) *metric {
	ls := renderLabels(labels)
	if r == nil {
		return &metric{name: name, help: help, labels: labels, labelStr: ls, kind: kind}
	}
	key := name + ls
	r.mu.Lock()
	defer r.mu.Unlock()
	if m, ok := r.byKey[key]; ok {
		if m.kind != kind {
			panic(fmt.Sprintf("obs: metric %s%s re-registered as %s (was %s)", name, ls, kind, m.kind))
		}
		return m
	}
	m := &metric{name: name, help: help, labels: labels, labelStr: ls, kind: kind}
	r.byKey[key] = m
	r.order = append(r.order, m)
	return m
}

// Counter registers (or finds) a counter.
func (r *Registry) Counter(name, help string, labels Labels) *Counter {
	m := r.register(name, help, labels, kindCounter)
	if m.c == nil {
		m.c = &Counter{}
	}
	return m.c
}

// Gauge registers (or finds) a gauge.
func (r *Registry) Gauge(name, help string, labels Labels) *Gauge {
	m := r.register(name, help, labels, kindGauge)
	if m.g == nil {
		m.g = &Gauge{}
	}
	return m.g
}

// GaugeFunc registers a gauge whose value is read from fn at snapshot time
// — for quantities that already live behind the owner's lock (queue depths,
// window occupancy), where mirroring into an atomic would be a second
// source of truth. fn must be safe to call from any goroutine.
func (r *Registry) GaugeFunc(name, help string, labels Labels, fn func() float64) {
	m := r.register(name, help, labels, kindGaugeFunc)
	m.fn = fn
}

// Histogram registers (or finds) a histogram with the given bucket upper
// bounds; scale divides exported values (use 1e9 for nanosecond
// observations exported as seconds, 1 for unitless).
func (r *Registry) Histogram(name, help string, labels Labels, scale float64, bounds []uint64) *Histogram {
	m := r.register(name, help, labels, kindHistogram)
	if m.h == nil {
		if scale <= 0 {
			scale = 1
		}
		h := &Histogram{bounds: append([]uint64(nil), bounds...), scale: scale}
		h.counts = make([]atomic.Uint64, len(h.bounds)+1)
		m.h = h
	}
	return m.h
}

// BucketSnapshot is one cumulative histogram bucket.
type BucketSnapshot struct {
	LE    float64 `json:"le"` // +Inf encodes as math.Inf(1) -> "+Inf" in text; JSON uses a large sentinel below
	Count uint64  `json:"count"`
}

// MetricSnapshot is one series' point-in-time value.
type MetricSnapshot struct {
	Name   string            `json:"name"`
	Labels map[string]string `json:"labels,omitempty"`
	Type   string            `json:"type"`
	Value  float64           `json:"value"`
	Count  uint64            `json:"count,omitempty"`
	Sum    float64           `json:"sum,omitempty"`
	// Buckets are cumulative counts; the +Inf bucket is encoded with
	// LE = -1 in JSON (JSON has no infinity).
	Buckets []BucketSnapshot `json:"buckets,omitempty"`
}

// Snapshot is a consistent-enough point-in-time read of every registered
// series: each individual value is read atomically (never torn), though
// series sampled microseconds apart may straddle concurrent updates.
type Snapshot struct {
	TakenUnixNano int64            `json:"taken_unix_nano"`
	Metrics       []MetricSnapshot `json:"metrics"`
}

// Snapshot reads every registered metric.
func (r *Registry) Snapshot() *Snapshot {
	s := &Snapshot{TakenUnixNano: time.Now().UnixNano()}
	if r == nil {
		return s
	}
	r.mu.Lock()
	metrics := append([]*metric(nil), r.order...)
	r.mu.Unlock()
	for _, m := range metrics {
		ms := MetricSnapshot{Name: m.name, Labels: m.labels, Type: m.kind.String()}
		switch m.kind {
		case kindCounter:
			ms.Value = float64(m.c.Load())
		case kindGauge:
			ms.Value = float64(m.g.Load())
		case kindGaugeFunc:
			ms.Value = m.fn()
		case kindHistogram:
			h := m.h
			ms.Sum = float64(h.sum.Load()) / h.scale
			cum := uint64(0)
			for i := range h.counts {
				cum += h.counts[i].Load()
				le := -1.0 // +Inf sentinel for JSON
				if i < len(h.bounds) {
					le = float64(h.bounds[i]) / h.scale
				}
				ms.Buckets = append(ms.Buckets, BucketSnapshot{LE: le, Count: cum})
			}
			ms.Count = cum // the +Inf bucket, by construction (see Count)
		}
		s.Metrics = append(s.Metrics, ms)
	}
	return s
}

// Value returns the value of the counter/gauge series (name, labels).
func (s *Snapshot) Value(name string, labels Labels) (float64, bool) {
	m := s.find(name, labels)
	if m == nil {
		return 0, false
	}
	return m.Value, true
}

// Sum adds up the values of every counter/gauge series named name whose
// labels include all of subset (an empty subset matches the whole family),
// e.g. one replica's decided slots across its groups. No match sums to 0.
func (s *Snapshot) Sum(name string, subset Labels) float64 {
	total := 0.0
next:
	for _, m := range s.Metrics {
		if m.Name != name {
			continue
		}
		for k, v := range subset {
			if got, ok := m.Labels[k]; !ok || got != v {
				continue next
			}
		}
		total += m.Value
	}
	return total
}

// HistCount returns the observation count of the histogram series.
func (s *Snapshot) HistCount(name string, labels Labels) (uint64, bool) {
	m := s.find(name, labels)
	if m == nil {
		return 0, false
	}
	return m.Count, true
}

// Has reports whether the series (name, labels) exists.
func (s *Snapshot) Has(name string, labels Labels) bool { return s.find(name, labels) != nil }

func (s *Snapshot) find(name string, labels Labels) *MetricSnapshot {
	want := renderLabels(labels)
	for i := range s.Metrics {
		m := &s.Metrics[i]
		if m.Name == name && renderLabels(m.Labels) == want {
			return m
		}
	}
	return nil
}

// MarshalJSON on Snapshot uses the default encoding; WriteJSON is a
// convenience for HTTP handlers.
func (s *Snapshot) WriteJSON(w io.Writer) error {
	enc := json.NewEncoder(w)
	enc.SetIndent("", " ")
	return enc.Encode(s)
}

// WritePrometheus renders the registry in Prometheus text exposition
// format, grouping series of one name under a single HELP/TYPE header.
func (r *Registry) WritePrometheus(w io.Writer) error {
	if r == nil {
		return nil
	}
	r.mu.Lock()
	metrics := append([]*metric(nil), r.order...)
	r.mu.Unlock()
	var b strings.Builder
	seen := make(map[string]bool)
	for _, m := range metrics {
		if !seen[m.name] {
			seen[m.name] = true
			if m.help != "" {
				fmt.Fprintf(&b, "# HELP %s %s\n", m.name, m.help)
			}
			fmt.Fprintf(&b, "# TYPE %s %s\n", m.name, m.kind)
			for _, other := range metrics {
				if other.name == m.name {
					writeSeries(&b, other)
				}
			}
		}
	}
	_, err := io.WriteString(w, b.String())
	return err
}

func writeSeries(b *strings.Builder, m *metric) {
	switch m.kind {
	case kindCounter:
		fmt.Fprintf(b, "%s%s %s\n", m.name, m.labelStr, formatFloat(float64(m.c.Load())))
	case kindGauge:
		fmt.Fprintf(b, "%s%s %s\n", m.name, m.labelStr, formatFloat(float64(m.g.Load())))
	case kindGaugeFunc:
		fmt.Fprintf(b, "%s%s %s\n", m.name, m.labelStr, formatFloat(m.fn()))
	case kindHistogram:
		h := m.h
		cum := uint64(0)
		for i := range h.counts {
			cum += h.counts[i].Load()
			le := "+Inf"
			if i < len(h.bounds) {
				le = formatFloat(float64(h.bounds[i]) / h.scale)
			}
			fmt.Fprintf(b, "%s_bucket%s %d\n", m.name, withLabel(m.labelStr, "le", le), cum)
		}
		fmt.Fprintf(b, "%s_sum%s %s\n", m.name, m.labelStr, formatFloat(float64(h.sum.Load())/h.scale))
		fmt.Fprintf(b, "%s_count%s %d\n", m.name, m.labelStr, cum)
	}
}

func formatFloat(v float64) string {
	if v == math.Trunc(v) && math.Abs(v) < 1e15 {
		return fmt.Sprintf("%d", int64(v))
	}
	return fmt.Sprintf("%g", v)
}

// renderLabels renders labels deterministically: {a="x",b="y"} with keys
// sorted, or "" when empty.
func renderLabels(labels Labels) string {
	if len(labels) == 0 {
		return ""
	}
	keys := make([]string, 0, len(labels))
	for k := range labels {
		keys = append(keys, k)
	}
	sort.Strings(keys)
	var b strings.Builder
	b.WriteByte('{')
	for i, k := range keys {
		if i > 0 {
			b.WriteByte(',')
		}
		// %q escapes \, ", and \n — the three characters Prometheus text
		// exposition requires escaping in label values.
		fmt.Fprintf(&b, "%s=%q", k, labels[k])
	}
	b.WriteByte('}')
	return b.String()
}

// withLabel splices one extra label into a pre-rendered label string.
func withLabel(labelStr, k, v string) string {
	extra := fmt.Sprintf("%s=%q", k, v)
	if labelStr == "" {
		return "{" + extra + "}"
	}
	return labelStr[:len(labelStr)-1] + "," + extra + "}"
}
