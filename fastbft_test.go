package fastbft

import (
	"errors"
	"fmt"
	"path/filepath"
	"testing"
	"time"
)

func TestSimulateCommonCase(t *testing.T) {
	res, err := Simulate(GeneralizedConfig(1, 1), SimOptions{
		Inputs: []Value{Value("a"), Value("b"), Value("c"), Value("d")},
		Seed:   1,
	})
	if err != nil {
		t.Fatal(err)
	}
	if res.Steps != 2 {
		t.Fatalf("steps=%d, want 2", res.Steps)
	}
	if len(res.Decisions) != 4 {
		t.Fatalf("decisions=%d, want 4", len(res.Decisions))
	}
	var ref Value
	for _, d := range res.Decisions {
		if ref == nil {
			ref = d.Value
		}
		if !d.Value.Equal(ref) {
			t.Fatal("disagreement in public API result")
		}
		if d.Path != FastPath {
			t.Fatalf("path=%s, want fast", d.Path)
		}
	}
}

func TestSimulateWithCrashes(t *testing.T) {
	cfg := GeneralizedConfig(2, 1) // n=7, slow path with 2 crashes
	res, err := Simulate(cfg, SimOptions{
		Crashed: []ProcessID{5, 6},
		Seed:    2,
	})
	if err != nil {
		t.Fatal(err)
	}
	if res.Steps != 3 {
		t.Fatalf("steps=%d, want 3 (slow path)", res.Steps)
	}
	for _, d := range res.Decisions {
		if d.Path != SlowPath {
			t.Fatalf("path=%s, want slow", d.Path)
		}
	}
}

func TestSimulateRejectsBadInputs(t *testing.T) {
	if _, err := Simulate(Config{N: 3, F: 1, T: 1}, SimOptions{}); err == nil {
		t.Fatal("invalid config accepted")
	}
	if _, err := Simulate(GeneralizedConfig(1, 1), SimOptions{Inputs: []Value{Value("x")}}); err == nil {
		t.Fatal("wrong input count accepted")
	}
	// Too many crashes: liveness impossible, must surface as an error.
	_, err := Simulate(GeneralizedConfig(1, 1), SimOptions{
		Crashed: []ProcessID{0, 1},
		Limit:   200 * time.Millisecond,
	})
	if err == nil {
		t.Fatal("expected failure with f+1 crashes")
	}
	if !errors.Is(err, ErrNoAgreement) {
		// NewCluster rejects >f faulty before the run even starts, which is
		// also acceptable; just require some error.
		t.Logf("got pre-run rejection: %v", err)
	}
}

func TestConfigHelpers(t *testing.T) {
	if VanillaConfig(2).N != 9 {
		t.Fatalf("vanilla f=2: n=%d, want 9", VanillaConfig(2).N)
	}
	if GeneralizedConfig(2, 1).N != 7 {
		t.Fatalf("generalized (2,1): n=%d, want 7", GeneralizedConfig(2, 1).N)
	}
	if MinProcesses(1, 1) != 4 {
		t.Fatalf("MinProcesses(1,1)=%d, want 4", MinProcesses(1, 1))
	}
}

func TestRealNodesOverTCP(t *testing.T) {
	cfg := GeneralizedConfig(1, 1)
	keys := GenerateTestKeys(cfg.N, 3)
	nodes := make([]*Node, cfg.N)
	addrs := make([]string, cfg.N)
	decided := make(chan Decision, cfg.N)
	for i := 0; i < cfg.N; i++ {
		n, err := NewNode(NodeConfig{
			Cluster:    cfg,
			Self:       ProcessID(i),
			Keys:       keys,
			ListenAddr: "127.0.0.1:0",
			Input:      Value(fmt.Sprintf("input-%d", i)),
			OnDecide:   func(d Decision) { decided <- d },
		})
		if err != nil {
			t.Fatal(err)
		}
		nodes[i] = n
		addrs[i] = n.Addr()
	}
	defer func() {
		for _, n := range nodes {
			_ = n.Close()
		}
	}()
	for _, n := range nodes {
		if err := n.SetPeers(addrs); err != nil {
			t.Fatal(err)
		}
		if err := n.Start(); err != nil {
			t.Fatal(err)
		}
	}
	var first Decision
	for i := 0; i < cfg.N; i++ {
		select {
		case d := <-decided:
			if i == 0 {
				first = d
			} else if !d.Value.Equal(first.Value) {
				t.Fatalf("disagreement: %s vs %s", d.Value, first.Value)
			}
		case <-time.After(30 * time.Second):
			t.Fatalf("timeout after %d decisions", i)
		}
	}
}

func TestKVReplicaCluster(t *testing.T) {
	cfg := GeneralizedConfig(1, 1)
	keys := GenerateTestKeys(cfg.N, 4)
	reps := make([]*KVReplica, cfg.N)
	addrs := make([]string, cfg.N)
	for i := 0; i < cfg.N; i++ {
		r, err := NewKVReplica(KVReplicaConfig{
			Cluster:    cfg,
			Self:       ProcessID(i),
			Keys:       keys,
			ListenAddr: "127.0.0.1:0",
		})
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
	if err := reps[0].Set("k1", "v1"); err != nil {
		t.Fatal(err)
	}
	if err := reps[1].Set("k2", "v2"); err != nil {
		t.Fatal(err)
	}
	deadline := time.Now().Add(time.Minute)
	for {
		done := true
		for _, r := range reps {
			if r.AppliedOps() < 2 {
				done = false
			}
		}
		if done {
			break
		}
		if time.Now().After(deadline) {
			t.Fatal("timeout waiting for replication")
		}
		time.Sleep(5 * time.Millisecond)
	}
	for i, r := range reps {
		if v, ok := r.Get("k1"); !ok || v != "v1" {
			t.Fatalf("replica %d: k1=%q", i, v)
		}
		if v, ok := r.Get("k2"); !ok || v != "v2" {
			t.Fatalf("replica %d: k2=%q", i, v)
		}
	}
	if err := reps[2].Delete("k1"); err != nil {
		t.Fatal(err)
	}
	deadline = time.Now().Add(time.Minute)
	for {
		done := true
		for _, r := range reps {
			if _, ok := r.Get("k1"); ok {
				done = false
			}
		}
		if done {
			break
		}
		if time.Now().After(deadline) {
			t.Fatal("timeout waiting for delete")
		}
		time.Sleep(5 * time.Millisecond)
	}
}

// TestKVClientSessions drives a TCP KVReplica cluster through the external
// client API: sequence numbers are assigned per session, results come back
// confirmed by f+1 replicas, and every replica holds exactly one session
// for the client afterwards.
func TestKVClientSessions(t *testing.T) {
	cfg := GeneralizedConfig(1, 1)
	keys := GenerateTestKeys(cfg.N, 9)
	reps := make([]*KVReplica, cfg.N)
	addrs := make([]string, cfg.N)
	for i := 0; i < cfg.N; i++ {
		r, err := NewKVReplica(KVReplicaConfig{
			Cluster:    cfg,
			Self:       ProcessID(i),
			Keys:       keys,
			ListenAddr: "127.0.0.1:0",
		})
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

	c, err := NewKVClient("alice", 0, reps...)
	if err != nil {
		t.Fatal(err)
	}
	defer func() { _ = c.Close() }()

	if res, err := c.Set("color", "green"); err != nil || res != "green" {
		t.Fatalf("set: res=%q err=%v", res, err)
	}
	if res, err := c.Set("fruit", "kiwi"); err != nil || res != "kiwi" {
		t.Fatalf("set: res=%q err=%v", res, err)
	}
	if res, err := c.Delete("color"); err != nil || res != "green" {
		t.Fatalf("delete: removed=%q err=%v (want the removed value back)", res, err)
	}
	if c.Seq() != 3 {
		t.Fatalf("session assigned %d sequence numbers, want 3", c.Seq())
	}
	deadline := time.Now().Add(time.Minute)
	for {
		done := true
		for _, r := range reps {
			if r.AppliedOps() < 3 {
				done = false
			}
		}
		if done || time.Now().After(deadline) {
			break
		}
		time.Sleep(5 * time.Millisecond)
	}
	for i, r := range reps {
		if v, ok := r.Get("fruit"); !ok || v != "kiwi" {
			t.Fatalf("replica %d: fruit=%q (present=%v)", i, v, ok)
		}
		if _, ok := r.Get("color"); ok {
			t.Fatalf("replica %d: deleted key survived", i)
		}
		if n := r.AppliedOps(); n != 3 {
			t.Fatalf("replica %d applied %d ops, want exactly 3", i, n)
		}
		if n := r.SessionCount(); n != 1 {
			t.Fatalf("replica %d holds %d sessions, want 1", i, n)
		}
	}
}

func TestGenerateKeys(t *testing.T) {
	keys, err := GenerateKeys(4)
	if err != nil {
		t.Fatal(err)
	}
	if keys.N() != 4 {
		t.Fatalf("N=%d", keys.N())
	}
	// Node construction must reject mismatched key counts.
	if _, err := NewNode(NodeConfig{
		Cluster:    GeneralizedConfig(2, 1), // n=7
		Self:       0,
		Keys:       keys, // only 4 identities
		ListenAddr: "127.0.0.1:0",
	}); err == nil {
		t.Fatal("mismatched keys accepted")
	}
}

// TestKVReplicaDurableRestart exercises the public durability surface: a
// cluster of durable replicas (KVReplicaConfig.DataDir) executes a
// workload, every replica is shut down, and the whole cluster restarts
// from its data directories — state intact, and still replicating.
func TestKVReplicaDurableRestart(t *testing.T) {
	if testing.Short() {
		t.Skip("spawns a real TCP cluster twice")
	}
	cfg := GeneralizedConfig(1, 1)
	keys := GenerateTestKeys(cfg.N, 17)
	base := t.TempDir()
	boot := func() []*KVReplica {
		reps := make([]*KVReplica, cfg.N)
		addrs := make([]string, cfg.N)
		for i := 0; i < cfg.N; i++ {
			r, err := NewKVReplica(KVReplicaConfig{
				Cluster:            cfg,
				Self:               ProcessID(i),
				Keys:               keys,
				ListenAddr:         "127.0.0.1:0",
				CheckpointInterval: 4,
				DataDir:            filepath.Join(base, fmt.Sprintf("r%d", i)),
				SyncMode:           "group",
			})
			if err != nil {
				t.Fatal(err)
			}
			reps[i] = r
			addrs[i] = r.Addr()
		}
		for _, r := range reps {
			if err := r.SetPeers(addrs); err != nil {
				t.Fatal(err)
			}
			if err := r.Start(); err != nil {
				t.Fatal(err)
			}
		}
		return reps
	}
	closeAll := func(reps []*KVReplica) {
		for _, r := range reps {
			_ = r.Close()
		}
	}
	waitApplied := func(reps []*KVReplica, n uint64) {
		t.Helper()
		deadline := time.Now().Add(time.Minute)
		for {
			done := true
			for _, r := range reps {
				if r.AppliedOps() < n {
					done = false
					break
				}
			}
			if done {
				return
			}
			if time.Now().After(deadline) {
				t.Fatalf("timeout waiting for %d applied ops", n)
			}
			time.Sleep(2 * time.Millisecond)
		}
	}

	reps := boot()
	const ops = 10
	for i := 0; i < ops; i++ {
		if err := reps[0].Set(fmt.Sprintf("key-%d", i), fmt.Sprintf("val-%d", i)); err != nil {
			closeAll(reps)
			t.Fatal(err)
		}
	}
	waitApplied(reps, ops)
	closeAll(reps)

	// Second incarnation: everything back from disk before any traffic.
	reps = boot()
	defer closeAll(reps)
	for i, r := range reps {
		for k := 0; k < ops; k++ {
			if v, ok := r.Get(fmt.Sprintf("key-%d", k)); !ok || v != fmt.Sprintf("val-%d", k) {
				t.Fatalf("replica %d lost key-%d across restart: %q %v", i, k, v, ok)
			}
		}
	}
	if err := reps[1].Set("after-restart", "yes"); err != nil {
		t.Fatal(err)
	}
	waitApplied(reps, ops+1)
	for i, r := range reps {
		if v, ok := r.Get("after-restart"); !ok || v != "yes" {
			t.Fatalf("replica %d: post-restart replication broken (%q %v)", i, v, ok)
		}
	}
}

// TestKVReplicaRejectsBadSyncMode pins the config validation: group commit
// is the only sync mode, so the retired "none" and "always" fail like any
// unknown name.
func TestKVReplicaRejectsBadSyncMode(t *testing.T) {
	cfg := GeneralizedConfig(1, 1)
	keys := GenerateTestKeys(cfg.N, 18)
	for _, mode := range []string{"paranoid", "none", "always"} {
		_, err := NewKVReplica(KVReplicaConfig{
			Cluster:    cfg,
			Self:       0,
			Keys:       keys,
			ListenAddr: "127.0.0.1:0",
			DataDir:    t.TempDir(),
			SyncMode:   mode,
		})
		if err == nil {
			t.Fatalf("sync mode %q accepted", mode)
		}
	}
}
