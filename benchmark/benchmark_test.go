package main

import (
	"bytes"
	"encoding/json"
	"math"
	"os"
	"reflect"
	"regexp"
	"strings"
	"sync"
	"testing"
	"time"
)

func TestGenOpsSameSeedSameOps(t *testing.T) {
	a, b := genOps(7, 3, 2000), genOps(7, 3, 2000)
	if !reflect.DeepEqual(a, b) {
		t.Fatal("the same seed and session gave different operation lists")
	}
	if reflect.DeepEqual(a, genOps(8, 3, 2000)) {
		t.Fatal("different seeds gave the same operation list")
	}
	if reflect.DeepEqual(a, genOps(7, 4, 2000)) {
		t.Fatal("different sessions gave the same operation list")
	}
	deletes := 0
	for _, o := range a {
		if !strings.HasPrefix(o.key, "s03-k") {
			t.Fatalf("session 3 was given key %q", o.key)
		}
		if o.del {
			deletes++
		} else if len(o.value) != valueBytes {
			t.Fatalf("value %q is not %d bytes", o.value, valueBytes)
		}
	}
	if share := float64(deletes) / float64(len(a)); share < 0.03 || share > 0.07 {
		t.Fatalf("delete share %.3f, want about 0.05", share)
	}
}

func TestModelPredictsReplies(t *testing.T) {
	m := make(model)
	if got := m.apply(op{key: "k", value: "v1"}); got != "v1" {
		t.Fatalf("set returned %q", got)
	}
	if got := m.apply(op{key: "k", del: true}); got != "v1" {
		t.Fatalf("delete returned %q, want the removed value", got)
	}
	if got := m.apply(op{key: "k", del: true}); got != "" {
		t.Fatalf("delete of an absent key returned %q", got)
	}
}

func TestPercentileAndSpread(t *testing.T) {
	vals := make([]float64, 100)
	for i := range vals {
		vals[i] = float64(i + 1)
	}
	for _, c := range []struct{ p, want float64 }{{50, 50}, {99, 99}, {100, 100}, {1, 1}, {0.5, 1}} {
		if got := percentile(vals, c.p); got != c.want {
			t.Errorf("percentile(1..100, %v) = %v, want %v", c.p, got, c.want)
		}
	}
	if got := percentile(nil, 50); got != 0 {
		t.Errorf("percentile of nothing = %v", got)
	}
	if got := median([]float64{5, 1, 3}); got != 3 {
		t.Errorf("median = %v, want 3", got)
	}
	if got := median([]float64{4, 1, 3, 2}); got != 2.5 {
		t.Errorf("median = %v, want 2.5", got)
	}
	if got := mean([]float64{1, 2, 6}); got != 3 {
		t.Errorf("mean = %v, want 3", got)
	}
	sp := spreadOf([]float64{3, 9, 6})
	if sp.Min != 3 || sp.Max != 9 {
		t.Errorf("spread = %+v", sp)
	}
	if got := sp.relWidth(6); got != 1 {
		t.Errorf("relative width = %v, want 1", got)
	}
}

func TestHistQuantile(t *testing.T) {
	les := []float64{1, 2, 4, -1}
	cum := []float64{10, 30, 40, 40}
	if got := histQuantile(les, cum, 0.5); got != 1.5 {
		t.Errorf("median = %v, want 1.5 (half-way through the second bucket)", got)
	}
	if got := histQuantile(les, cum, 0.99); math.Abs(got-3.92) > 1e-9 {
		t.Errorf("p99 = %v, want 3.92", got)
	}
	if got := histQuantile(les, []float64{0, 0, 0, 5}, 0.5); got != 4 {
		t.Errorf("all in +Inf: %v, want the last finite bound", got)
	}
}

// TestAttributeSelfTime checks span attribution: a span's self time is its
// own interval minus its children, and time queued behind an earlier span
// of the same replica and group is wait, not work.
func TestAttributeSelfTime(t *testing.T) {
	spans := []span{
		{kind: kindHandler, node: 1, start: 0, end: 100},  // 0: runs 0..100
		{kind: kindSign, node: 1, start: 10, end: 30},     // 1: child of 0
		{kind: kindHandler, node: 1, start: 20, end: 150}, // 2: queued until 100
		{kind: kindSend, node: 1, start: 40, end: 45},     // 3: child of 0, not of 2
		{kind: kindVerify, node: 2, start: 50, end: 60},   // 4: other replica, no parent
		{kind: kindVerify, node: 1, start: 110, end: 140}, // 5: child of 2
		{kind: kindSign, node: 1, start: 200, end: 210},   // 6: outside any handler
		{kind: kindClientSend, node: clientNode, start: 5, end: 8},
	}
	attribute(spans)
	wantParent := []int{-1, 0, -1, 0, -1, 2, -1, -1}
	for i, want := range wantParent {
		if spans[i].parent != want {
			t.Errorf("span %d: parent %d, want %d", i, spans[i].parent, want)
		}
	}
	if spans[0].self != 75 || spans[0].wait != 0 {
		t.Errorf("first handler: self %d wait %d, want 75 and 0", spans[0].self, spans[0].wait)
	}
	if spans[2].self != 20 || spans[2].wait != 80 {
		t.Errorf("queued handler: self %d wait %d, want 20 and 80", spans[2].self, spans[2].wait)
	}
	b := sumLayers(spans)
	if b.handlerSelf != 95 || b.handlerWait != 80 || b.sign != 30 || b.verify != 40 || b.send != 5 || b.client != 3 {
		t.Errorf("layer sums: %+v", b)
	}
	// Handler time plus nested and loose calls: 0..150 and 200..210 on
	// replica 1, 50..60 on replica 2, 3 on the client.
	if got := b.total(); got != 150+10+10+3 {
		t.Errorf("total busy %d, want 173", got)
	}
}

// slowSession is a session that takes a fixed time per request.
type slowSession struct {
	mu    sync.Mutex
	calls int
	delay time.Duration
}

func (s *slowSession) Set(_, v string) (string, error) {
	time.Sleep(s.delay)
	s.mu.Lock()
	s.calls++
	s.mu.Unlock()
	return v, nil
}
func (s *slowSession) Delete(string) (string, error) { time.Sleep(s.delay); return "", nil }
func (s *slowSession) Close() error                  { return nil }

// TestOpenLoopTimesFromDueTime: with one session that is slower than the
// schedule, every request still runs, later ones wait for the session, and
// their latency counts from when they were due.
func TestOpenLoopTimesFromDueTime(t *testing.T) {
	due := schedule(100, 100*time.Millisecond)
	if len(due) != 10 || due[1]-due[0] != 10*time.Millisecond {
		t.Fatalf("schedule(100/s, 100ms) = %v", due)
	}
	ops := make([]op, 16)
	for i := range ops {
		ops[i] = op{key: keyName(0, i), value: "v"}
	}
	st := newSessionState(0, &slowSession{delay: 20 * time.Millisecond}, ops)
	runOpen([]*sessionState{st}, time.Now(), due)
	if len(st.samples) != len(due) {
		t.Fatalf("%d requests ran, want %d", len(st.samples), len(due))
	}
	last := st.samples[len(st.samples)-1]
	if last.due != due[len(due)-1] {
		t.Errorf("last request due at %v, want %v", last.due, due[len(due)-1])
	}
	// Ten requests of 20 ms on one session finish at about 200 ms; the last
	// was due at 90 ms, so it waited about 90 ms before it was sent.
	if wait := last.sent - last.due; wait < 60*time.Millisecond {
		t.Errorf("last request waited %v for the session, want about 90ms", wait)
	}
	if lat := last.latency(); lat < 80*time.Millisecond {
		t.Errorf("last request's latency %v does not count its wait", lat)
	}
	if st.wrong != 0 {
		t.Errorf("%d replies disagreed with the model", st.wrong)
	}
}

// smokeWorkload is a half-second in-memory n=4 cluster: no fsync, so the
// driver can be exercised in a unit test.
var smokeWorkload = workload{
	name: "smoke", f: 1, t: 1, sessions: 2, shards: 1, maxBatch: 1, warmup: 100 * time.Millisecond,
}

func TestDriverSmoke(t *testing.T) {
	ep, err := runEpisode(smokeWorkload, 1, 500*time.Millisecond, t.TempDir(), nil)
	if err != nil {
		t.Fatal(err)
	}
	if ep.confirmed == 0 || ep.failed != 0 {
		t.Fatalf("confirmed %d, failed %d", ep.confirmed, ep.failed)
	}
	for name, m := range endToEndOf([]*episode{ep}) {
		if !(m.Value > 0) {
			t.Errorf("%s = %v, want a positive value", name, m.Value)
		}
	}
	if got := ep.layer["smr.fast_path_share"]; got < 0.5 {
		t.Errorf("fast path share %v in a fault-free cluster", got)
	}
	if got := ep.layer["storage.wal_records_per_op"]; got != 0 {
		t.Errorf("an in-memory cluster wrote %v WAL records per operation", got)
	}
}

func TestTracedDriverSmoke(t *testing.T) {
	w := smokeWorkload
	w.shards = 2 // through the group mux and the client demux
	tr := newTracer()
	ep, err := runEpisode(w, 2, 300*time.Millisecond, t.TempDir(), tr)
	if err != nil {
		t.Fatal(err)
	}
	for _, name := range []string{
		"sigcrypto.signs_per_op", "sigcrypto.verifies_per_op", "smr.handler_self_ms_per_op",
		"transport.send_calls_per_op", "smr.apply_us_per_op", "client.sends_per_op", "client.replies_per_op",
	} {
		if !(ep.layer[name] > 0) {
			t.Errorf("%s = %v, want a positive value", name, ep.layer[name])
		}
	}
	path := t.TempDir() + "/trace.json"
	if err := writeTrace(path, 2, ep, tr.full); err != nil {
		t.Fatal(err)
	}
	data, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	var tf traceFile
	if err := json.Unmarshal(data, &tf); err != nil {
		t.Fatal(err)
	}
	if tf.Workload != "smoke" || len(tf.Spans) == 0 || tf.SpansTotal != len(ep.spans) {
		t.Fatalf("trace file: workload %q, %d spans of %d", tf.Workload, len(tf.Spans), tf.SpansTotal)
	}
	for i, s := range tf.Spans {
		if s.Parent >= i {
			t.Fatalf("span %d names parent %d, which does not precede it", i, s.Parent)
		}
	}
}

func TestJudge(t *testing.T) {
	lower := metricDef{name: "latency", better: "lower", bound: 0.10}
	higher := metricDef{name: "throughput", better: "higher", bound: 0.10}
	val := func(v float64) metricValue { return metricValue{Value: v} }
	wide := metricValue{Value: 100, Spread: &spread{Min: 80, Max: 120}}
	for _, c := range []struct {
		d    metricDef
		a, b metricValue
		want verdict
	}{
		{lower, val(100), val(105), verdictSame},
		{lower, val(100), val(115), verdictWorse},
		{lower, val(100), val(85), verdictBetter},
		{higher, val(100), val(85), verdictWorse},
		{higher, val(100), val(115), verdictBetter},
		{lower, wide, val(115), verdictUnresolved},
		{metricDef{name: "setup_s", better: "lower", bound: 0.10}, wide, val(105), verdictSame},
		{lower, val(0), val(1), verdictUnresolved},
	} {
		if got := judge(c.d, c.a, c.b); got != c.want {
			t.Errorf("judge(%s, %v -> %v) = %s, want %s", c.d.name, c.a.Value, c.b.Value, got, c.want)
		}
	}
}

func TestCompareReports(t *testing.T) {
	mk := func(latency float64, failed int) *fullReport {
		r := &fullReport{Workloads: make(map[string]workloadReport)}
		for _, w := range workloads {
			e2e := make(map[string]metricValue)
			for _, d := range endToEnd {
				e2e[d.name] = metricValue{Value: 100, Unit: d.unit}
			}
			e2e["latency_p50_ms"] = metricValue{Value: latency, Unit: "ms"}
			r.Workloads[w.name] = workloadReport{EndToEnd: e2e, Attempted: 1000, Failed: failed}
		}
		return r
	}
	var buf bytes.Buffer
	if compareReports(&buf, mk(100, 0), mk(101, 0)) {
		t.Errorf("equal reports compared as worse:\n%s", buf.String())
	}
	if rows := strings.Count(buf.String(), "\n"); rows != 1+len(workloads)*len(endToEnd) {
		t.Errorf("%d lines, want a header and one row per workload and metric", rows)
	}
	if !compareReports(&buf, mk(100, 0), mk(200, 0)) {
		t.Error("a doubled latency did not compare as worse")
	}
	if !compareReports(&buf, mk(100, 0), mk(100, 3)) {
		t.Error("a higher failed share did not compare as worse")
	}
}

// benchmarkJSON mirrors BENCHMARK.json at the repository root.
type benchmarkJSON struct {
	Command    []string       `json:"command"`
	Paths      []string       `json:"paths"`
	RunSeconds int            `json:"run_seconds"`
	Workloads  []jsonWorkload `json:"workloads"`
	EndToEnd   []jsonMetric   `json:"end_to_end"`
	PerLayer   []jsonMetric   `json:"per_layer"`
}

type jsonWorkload struct {
	Name string `json:"name"`
	Why  string `json:"why"`
}

// jsonMetric is one metric entry; only end-to-end metrics carry a bound.
type jsonMetric struct {
	Name   string  `json:"name"`
	Unit   string  `json:"unit"`
	Better string  `json:"better"`
	Bound  float64 `json:"bound,omitempty"`
}

// describe renders the workloads and metrics this command prints in the
// shape of BENCHMARK.json.
func describe() benchmarkJSON {
	b := benchmarkJSON{Command: []string{"bash", "benchmark/run.sh"}, Paths: []string{"benchmark"}, RunSeconds: 15}
	for _, w := range workloads {
		b.Workloads = append(b.Workloads, jsonWorkload{w.name, w.why})
	}
	for _, d := range endToEnd {
		b.EndToEnd = append(b.EndToEnd, jsonMetric{d.name, d.unit, d.better, d.bound})
	}
	for _, d := range perLayer {
		b.PerLayer = append(b.PerLayer, jsonMetric{d.name, d.unit, d.better, 0})
	}
	return b
}

// TestBenchmarkJSON keeps BENCHMARK.json and the command in step: the file
// names every workload and metric the command prints, with the same units,
// directions and bounds, and every name fits the contract's pattern. Run
// with BENCH_WRITE_JSON=1 to regenerate the file from the code.
func TestBenchmarkJSON(t *testing.T) {
	const path = "../BENCHMARK.json"
	want := describe()
	if os.Getenv("BENCH_WRITE_JSON") != "" {
		data, err := json.MarshalIndent(want, "", "  ")
		if err != nil {
			t.Fatal(err)
		}
		if err := os.WriteFile(path, append(data, '\n'), 0o644); err != nil {
			t.Fatal(err)
		}
	}
	data, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	var got benchmarkJSON
	dec := json.NewDecoder(bytes.NewReader(data))
	dec.DisallowUnknownFields()
	if err := dec.Decode(&got); err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(got, want) {
		t.Errorf("BENCHMARK.json differs from what the command prints:\n got %+v\nwant %+v", got, want)
	}
	name := regexp.MustCompile(`^[A-Za-z0-9][A-Za-z0-9_.-]{0,63}$`)
	unit := regexp.MustCompile(`^[A-Za-z0-9_/%.-]{1,16}$`)
	seen := make(map[string]bool)
	check := func(n, u string) {
		if !name.MatchString(n) {
			t.Errorf("name %q does not fit the contract", n)
		}
		if u != "" && !unit.MatchString(u) {
			t.Errorf("unit %q of %s does not fit the contract", u, n)
		}
		if seen[n] {
			t.Errorf("name %q is used twice", n)
		}
		seen[n] = true
	}
	for _, w := range got.Workloads {
		check(w.Name, "")
		if len(w.Why) > 200 || strings.Contains(w.Why, "\n") {
			t.Errorf("why of %s is not one line of at most 200 characters", w.Name)
		}
	}
	hasSetup := false
	for _, m := range got.EndToEnd {
		check(m.Name, m.Unit)
		if m.Bound <= 0 || m.Bound > 0.25 {
			t.Errorf("bound %v of %s is outside (0, 0.25]", m.Bound, m.Name)
		}
		if m.Name == "setup_s" && m.Unit == "s" && m.Better == "lower" {
			hasSetup = true
		}
	}
	if !hasSetup {
		t.Error("no setup_s metric in seconds, lower is better")
	}
	for _, m := range got.PerLayer {
		check(m.Name, m.Unit)
	}
	if n := len(got.Workloads); n < 2 || n > 8 {
		t.Errorf("%d workloads", n)
	}
	if n := len(got.PerLayer); n < 1 || n > 128 {
		t.Errorf("%d per-layer metrics", n)
	}
	if len(data) > 64<<10 {
		t.Errorf("BENCHMARK.json is %d bytes, over 64 KiB", len(data))
	}
}
