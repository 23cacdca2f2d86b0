package obs

import (
	"encoding/json"
	"io"
	"net/http"
	"strings"
	"sync"
	"testing"
	"time"
)

// TestConcurrentCounters hammers one counter, one gauge, and one histogram
// from many goroutines (run under -race in CI) and checks the totals.
func TestConcurrentCounters(t *testing.T) {
	reg := NewRegistry()
	c := reg.Counter("test_ops_total", "ops", nil)
	g := reg.Gauge("test_depth", "depth", nil)
	h := reg.Histogram("test_lat", "lat", nil, 1, []uint64{10, 100})
	const workers, per = 8, 10000
	var wg sync.WaitGroup
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i := 0; i < per; i++ {
				c.Inc()
				g.Add(1)
				g.Add(-1)
				h.Observe(uint64(i % 200))
			}
		}()
	}
	wg.Wait()
	if got := c.Load(); got != workers*per {
		t.Fatalf("counter = %d, want %d", got, workers*per)
	}
	if got := g.Load(); got != 0 {
		t.Fatalf("gauge = %d, want 0", got)
	}
	if got := h.Count(); got != workers*per {
		t.Fatalf("histogram count = %d, want %d", got, workers*per)
	}
}

// TestHistogramBucketBoundaries pins the le convention: a value equal to a
// bucket's upper bound lands in that bucket (Prometheus le is inclusive).
func TestHistogramBucketBoundaries(t *testing.T) {
	reg := NewRegistry()
	h := reg.Histogram("b", "", nil, 1, []uint64{10, 20})
	h.Observe(10) // == first bound: bucket 0
	h.Observe(11) // bucket 1
	h.Observe(20) // == second bound: bucket 1
	h.Observe(21) // +Inf bucket
	snap := reg.Snapshot()
	m := snap.find("b", nil)
	if m == nil {
		t.Fatal("histogram missing from snapshot")
	}
	// Buckets are cumulative: [1, 3, 4].
	want := []uint64{1, 3, 4}
	if len(m.Buckets) != len(want) {
		t.Fatalf("bucket count = %d, want %d", len(m.Buckets), len(want))
	}
	for i, w := range want {
		if m.Buckets[i].Count != w {
			t.Fatalf("bucket[%d] = %d, want %d", i, m.Buckets[i].Count, w)
		}
	}
	if m.Count != 4 || m.Sum != 62 {
		t.Fatalf("count/sum = %d/%g, want 4/62", m.Count, m.Sum)
	}
}

// TestSnapshotWhileWriting takes snapshots concurrently with writers and
// checks every observed value is internally sane (counters monotonic,
// histogram bucket sums equal the count).
func TestSnapshotWhileWriting(t *testing.T) {
	reg := NewRegistry()
	c := reg.Counter("w_total", "", Labels{"group": "0"})
	h := reg.Histogram("w_lat", "", Labels{"group": "0"}, 1, []uint64{5})
	stop := make(chan struct{})
	var wg sync.WaitGroup
	wg.Add(1)
	go func() {
		defer wg.Done()
		for {
			select {
			case <-stop:
				return
			default:
				c.Inc()
				h.Observe(3)
			}
		}
	}()
	var last float64
	for i := 0; i < 200; i++ {
		s := reg.Snapshot()
		v, ok := s.Value("w_total", Labels{"group": "0"})
		if !ok {
			t.Fatal("w_total missing")
		}
		if v < last {
			t.Fatalf("counter went backwards: %g -> %g", last, v)
		}
		last = v
		m := s.find("w_lat", Labels{"group": "0"})
		if m.Buckets[len(m.Buckets)-1].Count != m.Count {
			t.Fatalf("+Inf cumulative %d != count %d", m.Buckets[len(m.Buckets)-1].Count, m.Count)
		}
	}
	close(stop)
	wg.Wait()
}

// TestRegistryIdempotentAndNil checks re-registration returns the same
// metric and that a nil registry still hands out working metrics.
func TestRegistryIdempotentAndNil(t *testing.T) {
	reg := NewRegistry()
	a := reg.Counter("same", "", Labels{"g": "1"})
	b := reg.Counter("same", "", Labels{"g": "1"})
	if a != b {
		t.Fatal("re-registration returned a different counter")
	}
	other := reg.Counter("same", "", Labels{"g": "2"})
	if a == other {
		t.Fatal("distinct labels returned the same counter")
	}
	defer func() {
		if recover() == nil {
			t.Fatal("kind mismatch did not panic")
		}
	}()
	var nilReg *Registry
	c := nilReg.Counter("unregistered", "", nil)
	c.Inc()
	if c.Load() != 1 {
		t.Fatal("nil-registry counter does not count")
	}
	nilReg.GaugeFunc("fn", "", nil, func() float64 { return 1 })
	h := nilReg.Histogram("h", "", nil, 1, []uint64{1})
	h.Observe(0)
	reg.Gauge("same", "", Labels{"g": "1"}) // kind mismatch: must panic
}

// TestSnapshotSum checks the summing read: a label subset matches series
// across groups, an empty subset sums the whole family, and a subset or
// name that matches nothing sums to 0.
func TestSnapshotSum(t *testing.T) {
	reg := NewRegistry()
	for _, s := range []struct {
		replica, group string
		v              uint64
	}{{"0", "0", 3}, {"0", "1", 4}, {"1", "0", 10}} {
		reg.Counter("decided", "", Labels{"replica": s.replica, "group": s.group}).Add(s.v)
	}
	reg.Counter("other", "", Labels{"replica": "0", "group": "0"}).Add(100)
	snap := reg.Snapshot()
	for _, tc := range []struct {
		name   string
		subset Labels
		want   float64
	}{
		{"decided", Labels{"replica": "0"}, 7},               // both groups of replica 0
		{"decided", Labels{"group": "0"}, 13},                // group 0 across replicas
		{"decided", Labels{"replica": "0", "group": "1"}, 4}, // one series
		{"decided", nil, 17},                                 // the whole family
		{"decided", Labels{}, 17},
		{"decided", Labels{"replica": "2"}, 0}, // no such label value
		{"decided", Labels{"path": "fast"}, 0}, // no such label key
		{"missing", nil, 0},                    // no such family
	} {
		if got := snap.Sum(tc.name, tc.subset); got != tc.want {
			t.Errorf("Sum(%q, %v) = %v, want %v", tc.name, tc.subset, got, tc.want)
		}
	}
}

// TestPrometheusText checks the exposition format: HELP/TYPE once per
// name, labeled series, cumulative buckets with le and +Inf, sum/count.
func TestPrometheusText(t *testing.T) {
	reg := NewRegistry()
	reg.Counter("x_total", "things", Labels{"group": "0"}).Add(3)
	reg.Counter("x_total", "things", Labels{"group": "1"}).Add(4)
	reg.GaugeFunc("x_depth", "depth", nil, func() float64 { return 7 })
	h := reg.Histogram("x_lat_seconds", "latency", nil, 1e9, []uint64{1_000_000})
	h.ObserveDuration(500 * time.Microsecond)
	h.ObserveDuration(2 * time.Millisecond)
	var sb strings.Builder
	if err := reg.WritePrometheus(&sb); err != nil {
		t.Fatal(err)
	}
	out := sb.String()
	for _, want := range []string{
		"# TYPE x_total counter",
		`x_total{group="0"} 3`,
		`x_total{group="1"} 4`,
		"# TYPE x_depth gauge",
		"x_depth 7",
		"# TYPE x_lat_seconds histogram",
		`x_lat_seconds_bucket{le="0.001"} 1`,
		`x_lat_seconds_bucket{le="+Inf"} 2`,
		"x_lat_seconds_sum 0.0025",
		"x_lat_seconds_count 2",
	} {
		if !strings.Contains(out, want) {
			t.Fatalf("exposition missing %q in:\n%s", want, out)
		}
	}
	if strings.Count(out, "# TYPE x_total counter") != 1 {
		t.Fatal("TYPE header repeated per series")
	}
}

// TestTracerStageOrdering checks the tracer's invariants: first mark wins,
// cumulative stage latencies are non-decreasing along the causal order,
// and stages without a submit mark observe nothing.
func TestTracerStageOrdering(t *testing.T) {
	reg := NewRegistry()
	base := time.Now()
	tr := NewTracer(reg, "stage_lat", "", nil, base.Add(-time.Second))
	var tc Trace
	tr.Mark(&tc, StageSubmit, base)
	tr.Mark(&tc, StageProposed, base.Add(1*time.Millisecond))
	tr.Mark(&tc, StageProposed, base.Add(5*time.Millisecond)) // loses: first wins
	tr.Mark(&tc, StageDecided, base.Add(2*time.Millisecond))
	tr.Mark(&tc, StageApplied, base.Add(3*time.Millisecond))
	tr.Mark(&tc, StageReplied, base.Add(4*time.Millisecond))
	prev := int64(0)
	for _, s := range []Stage{StageSubmit, StageProposed, StageDecided, StageApplied, StageReplied} {
		at := tc.At(s)
		if at == 0 {
			t.Fatalf("stage %s unmarked", s)
		}
		if at < prev {
			t.Fatalf("stage %s mark %d precedes previous %d", s, at, prev)
		}
		prev = at
	}
	if got := tc.At(StageProposed) - tc.At(StageSubmit); got != int64(time.Millisecond) {
		t.Fatalf("proposed-submit = %d, want first-mark-wins 1ms", got)
	}
	if tc.At(StageDurable) != 0 {
		t.Fatal("durable marked without a mark call")
	}
	snap := reg.Snapshot()
	for _, s := range []Stage{StageProposed, StageDecided, StageApplied, StageReplied} {
		n, ok := snap.HistCount("stage_lat", Labels{"stage": s.String()})
		if !ok || n != 1 {
			t.Fatalf("stage %s observations = %d, want 1", s, n)
		}
	}
	// A trace with no submit mark records timestamps but observes nothing.
	var orphan Trace
	tr.Mark(&orphan, StageDecided, base)
	snap = reg.Snapshot()
	if n, _ := snap.HistCount("stage_lat", Labels{"stage": "decided"}); n != 1 {
		t.Fatalf("orphan trace leaked an observation (count %d)", n)
	}
	// Marks race-safely from several goroutines: exactly one observation.
	var shared Trace
	tr.MarkAt(&shared, StageSubmit, tr.Nanos(base))
	var wg sync.WaitGroup
	for i := 0; i < 8; i++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			tr.Mark(&shared, StageReplied, base.Add(time.Millisecond))
		}()
	}
	wg.Wait()
	snap = reg.Snapshot()
	if n, _ := snap.HistCount("stage_lat", Labels{"stage": "replied"}); n != 2 {
		t.Fatalf("concurrent marks observed %d times, want once (2 total)", n)
	}
}

// TestLoggerLevelsAndFields checks level filtering, field rendering, and
// that the message text leads the line (grep compatibility).
func TestLoggerLevelsAndFields(t *testing.T) {
	var mu sync.Mutex
	var lines []string
	sink := func(_ Level, line string) {
		mu.Lock()
		lines = append(lines, line)
		mu.Unlock()
	}
	lg := NewLogger(sink, LevelInfo).With("replica", 2, "group", 0)
	lg.Debugf("hidden %d", 1)
	lg.Warnf("storage: %s: truncating torn WAL tail (%d of %d bytes valid)", "dir", 10, 12)
	if len(lines) != 1 {
		t.Fatalf("lines = %d, want 1 (debug filtered)", len(lines))
	}
	want := "storage: dir: truncating torn WAL tail (10 of 12 bytes valid) replica=2 group=0"
	if lines[0] != want {
		t.Fatalf("line = %q, want %q", lines[0], want)
	}
	var nilLg *Logger
	if nilLg.Enabled(LevelDebug) || !nilLg.Enabled(LevelInfo) {
		t.Fatal("nil logger level defaults wrong")
	}
	derived := nilLg.With("slot", 3)
	if derived == nil {
		t.Fatal("With on nil logger returned nil")
	}
}

// TestHTTPServer boots the introspection endpoint and scrapes all three
// surfaces.
func TestHTTPServer(t *testing.T) {
	reg := NewRegistry()
	reg.Counter("srv_ops_total", "", nil).Add(9)
	srv, err := NewServer("127.0.0.1:0", reg)
	if err != nil {
		t.Fatal(err)
	}
	defer srv.Close()
	get := func(path string) string {
		resp, err := http.Get("http://" + srv.Addr() + path)
		if err != nil {
			t.Fatalf("GET %s: %v", path, err)
		}
		defer resp.Body.Close()
		if resp.StatusCode != http.StatusOK {
			t.Fatalf("GET %s: status %d", path, resp.StatusCode)
		}
		body, err := io.ReadAll(resp.Body)
		if err != nil {
			t.Fatal(err)
		}
		return string(body)
	}
	if text := get("/metrics"); !strings.Contains(text, "srv_ops_total 9") {
		t.Fatalf("/metrics missing counter:\n%s", text)
	}
	var snap Snapshot
	if err := json.Unmarshal([]byte(get("/metrics.json")), &snap); err != nil {
		t.Fatalf("metrics.json: %v", err)
	}
	if v, ok := snap.Value("srv_ops_total", nil); !ok || v != 9 {
		t.Fatalf("json snapshot value = %g ok=%v, want 9", v, ok)
	}
	if idx := get("/debug/pprof/"); !strings.Contains(idx, "goroutine") {
		t.Fatal("pprof index missing goroutine profile")
	}
}
