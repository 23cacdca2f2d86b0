package fastbft

import (
	"encoding/json"
	"fmt"
	"io"
	"net/http"
	"strconv"
	"strings"
	"sync"
	"testing"
	"time"

	"repro/internal/obs"
)

// TestMetricsInvariantsUnderLoad scrapes every replica's registry while a
// fault-free 2-shard cluster serves concurrent client sessions, and holds
// each scrape to the cross-metric invariants an operator relies on, per
// group: no decision is counted under more than one path (Σ
// fastbft_decided_path_total ≤ fastbft_slots_decided_total), and the apply
// frontier never passes the decided count (fastbft_applied_slots ≤
// fastbft_slots_decided_total). At quiescence every replica's
// fastbft_commands_applied_total, summed over its groups, equals the
// confirmed writes. The workload stays below one checkpoint interval per
// group, so no snapshot moves a frontier past the decisions it counted.
func TestMetricsInvariantsUnderLoad(t *testing.T) {
	cfg := GeneralizedConfig(1, 1) // n = 4
	const shards = 2
	keys := GenerateTestKeys(cfg.N, 31)
	reps, _ := bootShardedCluster(t, cfg, keys, shards)
	defer func() {
		for _, r := range reps {
			_ = r.Close()
		}
	}()

	const workers, opsPerWorker = 3, 16
	done := make(chan error, workers)
	for w := 0; w < workers; w++ {
		cl, err := NewKVClient(fmt.Sprintf("load-%d", w), 2*time.Second, reps...)
		if err != nil {
			t.Fatal(err)
		}
		// Closing the session on the way out also ends its worker early.
		defer func() { _ = cl.Close() }()
		go func(w int, cl *KVClient) {
			for i := 0; i < opsPerWorker; i++ {
				key, want := fmt.Sprintf("w%d-k%d", w, i), fmt.Sprintf("w%d-v%d", w, i)
				if got, err := cl.Set(key, want); err != nil || got != want {
					done <- fmt.Errorf("worker %d write %d: got %q, err %v", w, i, got, err)
					return
				}
			}
			done <- nil
		}(w, cl)
	}

	check := func(i int, snap *obs.Snapshot) {
		t.Helper()
		for g := 0; g < shards; g++ {
			gl := obs.Labels{"group": strconv.Itoa(g), "replica": strconv.Itoa(i)}
			decided, ok := snap.Value("fastbft_slots_decided_total", gl)
			if !ok {
				t.Fatalf("replica %d group %d: decided counter not in the registry", i, g)
			}
			if paths := snap.Sum("fastbft_decided_path_total", gl); paths > decided {
				t.Fatalf("replica %d group %d: %v decisions by path, %v slots decided", i, g, paths, decided)
			}
			if applied, _ := snap.Value("fastbft_applied_slots", gl); applied > decided {
				t.Fatalf("replica %d group %d: apply frontier %v past %v decided slots", i, g, applied, decided)
			}
		}
	}
	scrapes := 0
	for finished := 0; finished < workers; {
		select {
		case err := <-done:
			if err != nil {
				t.Fatal(err)
			}
			finished++
		case <-time.After(time.Millisecond):
		}
		for i, r := range reps {
			check(i, r.Metrics().Snapshot())
		}
		scrapes++
	}

	const total = workers * opsPerWorker
	for i, r := range reps {
		deadline := time.Now().Add(30 * time.Second)
		for {
			snap := r.Metrics().Snapshot()
			check(i, snap)
			applied := snap.Sum("fastbft_commands_applied_total", obs.Labels{"replica": strconv.Itoa(i)})
			if applied == total {
				break
			}
			if applied > total || time.Now().After(deadline) {
				t.Fatalf("replica %d: registry counts %v applied commands, want the %d confirmed writes", i, applied, total)
			}
			time.Sleep(5 * time.Millisecond)
		}
	}
	t.Logf("%d scrapes of %d replicas under load", scrapes, cfg.N)
}

// TestMetricsEndpointLiveScrape drives a workload against a real TCP cluster
// while scraping one replica's opt-in HTTP introspection endpoint — the
// Prometheus text form and the JSON snapshot — and requires the counters to
// be live (decided slots grow between scrapes) and the staged request tracer
// to have carried batches all the way to "replied".
func TestMetricsEndpointLiveScrape(t *testing.T) {
	cfg := GeneralizedConfig(1, 1) // n = 4
	keys := GenerateTestKeys(cfg.N, 37)
	reps := make([]*KVReplica, cfg.N)
	addrs := make([]string, cfg.N)
	for i := 0; i < cfg.N; i++ {
		c := KVReplicaConfig{
			Cluster:    cfg,
			Self:       ProcessID(i),
			Keys:       keys,
			ListenAddr: "127.0.0.1:0",
		}
		if i == 0 {
			c.MetricsAddr = "127.0.0.1:0"
		}
		r, err := NewKVReplica(c)
		if err != nil {
			t.Fatal(err)
		}
		reps[i] = r
		addrs[i] = r.Addr()
	}
	defer func() {
		for _, r := range reps {
			_ = r.Close()
		}
	}()
	for _, r := range reps {
		if err := r.SetPeers(addrs); err != nil {
			t.Fatal(err)
		}
		if err := r.Start(); err != nil {
			t.Fatal(err)
		}
	}
	maddr := reps[0].MetricsAddr()
	if maddr == "" {
		t.Fatal("replica 0 has no metrics endpoint despite MetricsAddr being set")
	}
	if reps[1].MetricsAddr() != "" {
		t.Fatal("replica 1 bound a metrics endpoint without opting in")
	}

	scrapeJSON := func() *obs.Snapshot {
		t.Helper()
		resp, err := http.Get("http://" + maddr + "/metrics.json")
		if err != nil {
			t.Fatal(err)
		}
		defer func() { _ = resp.Body.Close() }()
		if resp.StatusCode != http.StatusOK {
			t.Fatalf("/metrics.json: HTTP %d", resp.StatusCode)
		}
		var snap obs.Snapshot
		if err := json.NewDecoder(resp.Body).Decode(&snap); err != nil {
			t.Fatal(err)
		}
		return &snap
	}

	// Scrape mid-workload: a client goroutine keeps the cluster busy —
	// confirmed writes, so replies flow and the tracer reaches "replied" —
	// while the main goroutine hits the endpoint.
	cl, err := NewKVClient("scrape-client", 2*time.Second, reps...)
	if err != nil {
		t.Fatal(err)
	}
	defer func() { _ = cl.Close() }()
	const ops = 30
	done := make(chan error, 1)
	var wg sync.WaitGroup
	wg.Add(1)
	go func() {
		defer wg.Done()
		for i := 0; i < ops; i++ {
			if _, err := cl.Set(fmt.Sprintf("sk-%d", i), fmt.Sprintf("sv-%d", i)); err != nil {
				done <- err
				return
			}
		}
		done <- nil
	}()
	first := scrapeJSON()
	wg.Wait()
	if err := <-done; err != nil {
		t.Fatal(err)
	}

	decided := func(snap *obs.Snapshot) float64 {
		return snap.Sum("fastbft_slots_decided_total", obs.Labels{"replica": "0"})
	}
	deadline := time.Now().Add(30 * time.Second)
	var second *obs.Snapshot
	for {
		second = scrapeJSON()
		if decided(second) > decided(first) {
			break
		}
		if time.Now().After(deadline) {
			t.Fatalf("decided counter never advanced between scrapes: first %v, second %v",
				decided(first), decided(second))
		}
		time.Sleep(5 * time.Millisecond)
	}
	replied, ok := second.HistCount("fastbft_stage_seconds",
		obs.Labels{"group": "0", "replica": "0", "stage": "replied"})
	if !ok || replied == 0 {
		t.Fatalf("stage histogram %q: present=%v count=%d, want live observations", "replied", ok, replied)
	}
	if !second.Has("fastbft_messages_in_total", obs.Labels{"group": "0", "replica": "0", "kind": "propose"}) {
		t.Fatal("per-kind message counters missing from the JSON snapshot")
	}

	// The Prometheus text form must carry the same families, typed and
	// help-annotated, so a stock scraper can ingest it.
	resp, err := http.Get("http://" + maddr + "/metrics")
	if err != nil {
		t.Fatal(err)
	}
	defer func() { _ = resp.Body.Close() }()
	body, err := io.ReadAll(resp.Body)
	if err != nil {
		t.Fatal(err)
	}
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("/metrics: HTTP %d", resp.StatusCode)
	}
	text := string(body)
	for _, want := range []string{
		"# TYPE fastbft_slots_decided_total counter",
		"# TYPE fastbft_stage_seconds histogram",
		"fastbft_stage_seconds_bucket",
		`stage="replied"`,
		"fastbft_net_frames_in_total",
	} {
		if !strings.Contains(text, want) {
			t.Fatalf("/metrics text output missing %q", want)
		}
	}
}
