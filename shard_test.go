package fastbft

import (
	"fmt"
	"sync"
	"testing"
	"time"

	"repro/internal/msg"
	"repro/internal/smr"
)

// bootShardedCluster starts an n-process cluster where every process hosts
// `shards` consensus groups, with client-facing listeners bound.
func bootShardedCluster(t *testing.T, cfg Config, keys *Keys, shards int) ([]*KVReplica, []string) {
	t.Helper()
	reps := make([]*KVReplica, cfg.N)
	addrs := make([]string, cfg.N)
	clientAddrs := make([]string, cfg.N)
	for i := 0; i < cfg.N; i++ {
		r, err := NewKVReplica(KVReplicaConfig{
			Cluster:          cfg,
			Self:             ProcessID(i),
			Keys:             keys,
			ListenAddr:       "127.0.0.1:0",
			ClientListenAddr: "127.0.0.1:0",
			Shards:           shards,
		})
		if err != nil {
			t.Fatal(err)
		}
		reps[i] = r
		addrs[i] = r.Addr()
		clientAddrs[i] = r.ClientAddr()
	}
	for _, r := range reps {
		if err := r.SetPeers(addrs); err != nil {
			t.Fatal(err)
		}
		if err := r.Start(); err != nil {
			t.Fatal(err)
		}
	}
	return reps, clientAddrs
}

// TestShardedClusterCrossShardClients is the cross-shard correctness drill:
// concurrent client sessions — in-process and over TCP — drive a mixed-key
// workload that spans every consensus group, and the test asserts the
// sharded invariants end to end: every write settles with its own value
// (a reply bleeding over from another group's session would either mismatch
// or settle the wrong sequence number), every command applies exactly once
// across the deployment, and every replica converges to the same state in
// every group. Run under -race in CI, this also exercises the GroupMux and
// reply-demux paths concurrently.
func TestShardedClusterCrossShardClients(t *testing.T) {
	cfg := GeneralizedConfig(1, 1) // n = 4
	const shards = 3
	keys := GenerateTestKeys(cfg.N, 23)
	reps, clientAddrs := bootShardedCluster(t, cfg, keys, shards)
	defer func() {
		for _, r := range reps {
			_ = r.Close()
		}
	}()

	const workers = 4
	const opsPerWorker = 12
	var wg sync.WaitGroup
	errs := make(chan error, workers)
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			var cl *KVClient
			var err error
			if w == 0 {
				// One worker goes through the network path: a single TCP
				// connection set, replies demultiplexed per group.
				cl, err = NewShardedKVNetworkClient(fmt.Sprintf("net-%d", w), 2*time.Second, cfg, keys, clientAddrs, shards)
			} else {
				cl, err = NewKVClient(fmt.Sprintf("local-%d", w), 2*time.Second, reps...)
			}
			if err != nil {
				errs <- err
				return
			}
			defer func() { _ = cl.Close() }()
			for i := 0; i < opsPerWorker; i++ {
				key := fmt.Sprintf("w%d-k%d", w, i)
				want := fmt.Sprintf("w%d-v%d", w, i)
				got, err := cl.Set(key, want)
				if err != nil {
					errs <- fmt.Errorf("worker %d: set %s: %w", w, key, err)
					return
				}
				if got != want {
					errs <- fmt.Errorf("worker %d: set %s returned %q, want %q", w, key, got, want)
					return
				}
			}
		}(w)
	}
	wg.Wait()
	close(errs)
	for err := range errs {
		t.Fatal(err)
	}

	// The workload must actually span every group, or the test proves
	// nothing about cross-shard behavior.
	perGroup := make([]int, shards)
	for w := 0; w < workers; w++ {
		for i := 0; i < opsPerWorker; i++ {
			perGroup[smr.ShardOf(fmt.Sprintf("w%d-k%d", w, i), shards)]++
		}
	}
	for g, n := range perGroup {
		if n == 0 {
			t.Fatalf("no keys routed to group %d; workload does not cover the shards", g)
		}
	}

	// Exactly-once: every replica applies each command once — no more (a
	// cross-group duplicate would inflate the count) and no less.
	const total = workers * opsPerWorker
	waitApplied(t, reps, total)
	for i, r := range reps {
		if n := r.AppliedOps(); n != total {
			t.Fatalf("replica %d applied %d commands, want exactly %d", i, n, total)
		}
		for w := 0; w < workers; w++ {
			for k := 0; k < opsPerWorker; k++ {
				key := fmt.Sprintf("w%d-k%d", w, k)
				if v, ok := r.Get(key); !ok || v != fmt.Sprintf("w%d-v%d", w, k) {
					t.Fatalf("replica %d: %s=%q (present=%v)", i, key, v, ok)
				}
			}
		}
		// The registry's per-group counters must add up to the same total.
		if sum := r.Metrics().Snapshot().Sum("fastbft_commands_applied_total", nil); sum != total {
			t.Fatalf("replica %d: registry counts %v applied commands across groups, want %d", i, sum, total)
		}
	}

	// A request addressed to the wrong group must be rejected before it can
	// touch the group's log or session table.
	err := reps[0].groups[0].Replica().HandleRequest(&msg.Request{
		Client: "mallory", Seq: 1, Group: 1,
		Op: smr.EncodeKV(smr.KVCommand{Op: smr.OpSet, Key: "x", Value: "y"}),
	}, nil)
	if err == nil {
		t.Fatal("request for group 1 accepted by group 0")
	}
}
