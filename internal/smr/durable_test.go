package smr

import (
	"fmt"
	"path/filepath"
	"testing"
	"time"

	"repro/internal/sigcrypto"
	"repro/internal/storage"
	"repro/internal/transport"
	"repro/internal/types"
)

// durableGroup is a checkpointing SMR group where every replica runs on a
// storage.Store rooted in its own data directory, so tests can simulate a
// power cut (Store.Abort) and rebuild replicas from disk alone.
type durableGroup struct {
	cfg    types.Config
	scheme sigcrypto.Scheme
	net    *transport.MemNetwork
	dirs   []string
	reps   []*Replica
	stores []*KVStore
	disks  []*storage.Store
}

func buildDurableGroup(t *testing.T, cfg types.Config, seed int64, interval uint64, mode storage.SyncMode) *durableGroup {
	t.Helper()
	g := &durableGroup{
		cfg:    cfg,
		scheme: sigcrypto.NewHMAC(cfg.N, seed),
		net:    transport.NewMemNetwork(cfg.N, 0),
		dirs:   make([]string, cfg.N),
		reps:   make([]*Replica, cfg.N),
		stores: make([]*KVStore, cfg.N),
		disks:  make([]*storage.Store, cfg.N),
	}
	base := t.TempDir()
	for i := 0; i < cfg.N; i++ {
		g.dirs[i] = filepath.Join(base, fmt.Sprintf("replica-%d", i))
		g.bootReplica(t, types.ProcessID(i), interval, mode, g.net.Transport(types.ProcessID(i)))
	}
	for _, r := range g.reps {
		if err := r.Start(); err != nil {
			t.Fatal(err)
		}
	}
	return g
}

// bootReplica (re)builds replica p from its data directory; the caller
// starts it. tr is the transport to wire it to (fresh after a restart).
func (g *durableGroup) bootReplica(t *testing.T, p types.ProcessID, interval uint64, mode storage.SyncMode, tr transport.Transport) {
	t.Helper()
	disk, err := storage.Open(storage.Config{Dir: g.dirs[p], Mode: mode})
	if err != nil {
		t.Fatal(err)
	}
	g.stores[p] = NewKVStore()
	r, err := NewReplica(Config{
		Cluster:            g.cfg,
		Self:               p,
		Signer:             g.scheme.Signer(p),
		Verifier:           g.scheme.Verifier(),
		Transport:          tr,
		App:                g.stores[p],
		BaseTimeout:        200 * time.Millisecond,
		CheckpointInterval: interval,
		Storage:            disk,
	})
	if err != nil {
		t.Fatal(err)
	}
	g.reps[p] = r
	g.disks[p] = disk
}

// crash simulates kill -9 on replica p: the store stops mid-flight
// (nothing unflushed survives, no further effect runs), the network
// endpoint dies, and the replica object is abandoned un-Closed.
func (g *durableGroup) crash(p types.ProcessID) transport.Transport {
	g.disks[p].Abort()
	return g.net.Restart(p)
}

func (g *durableGroup) close() {
	for _, r := range g.reps {
		if r != nil {
			_ = r.Close()
		}
	}
	_ = g.net.Close()
}

// TestDurableFullClusterRestart is the assertion in-memory replication can
// never make: every replica is stopped at once — no survivor to serve
// state transfer — and the whole cluster comes back from its data
// directories alone, with the KV state, the applied frontier, and the
// session dedup table intact, and keeps replicating.
func TestDurableFullClusterRestart(t *testing.T) {
	cfg := types.Generalized(1, 1)
	const interval = 4
	const ops = 14 // crosses several checkpoint boundaries, ends mid-interval
	g := buildDurableGroup(t, cfg, 71, interval, storage.SyncGroup)
	defer g.close()

	submitOps(t, g.reps[0], "c0", 0, ops)
	waitFor(t, 30*time.Second, func() bool {
		for _, st := range g.stores {
			if st.AppliedOps() < ops {
				return false
			}
		}
		return true
	}, "all replicas to apply the pre-restart workload")
	lastCmd := EncodeKV(KVCommand{Op: OpSet, Client: "c0", Seq: ops - 1,
		Key: fmt.Sprintf("k%d", ops-1), Value: fmt.Sprintf("v%d", ops-1)})

	// Quiesce the disks, then cut the power on the whole cluster at once.
	for _, d := range g.disks {
		if err := d.Barrier(); err != nil {
			t.Fatal(err)
		}
	}
	for i := 0; i < cfg.N; i++ {
		g.crash(types.ProcessID(i))
	}

	// Rebuild every replica from its directory. Recovery happens in
	// NewReplica, before any network activity: the state must be there
	// before Start — from the data dir alone.
	for i := 0; i < cfg.N; i++ {
		p := types.ProcessID(i)
		g.bootReplica(t, p, interval, storage.SyncGroup, g.net.Transport(p))
		if got := g.reps[p].AppliedCount(); got < ops {
			t.Fatalf("replica %d recovered applied=%d before Start, want >= %d", i, got, ops)
		}
		for k := 0; k < ops; k++ {
			want := fmt.Sprintf("v%d", k)
			if v, ok := g.stores[p].Get(fmt.Sprintf("k%d", k)); !ok || v != want {
				t.Fatalf("replica %d lost key k%d after restart: got %q, %v", i, k, v, ok)
			}
		}
	}
	for _, r := range g.reps {
		if err := r.Start(); err != nil {
			t.Fatal(err)
		}
	}

	// The session table survived too: a retransmission of the last
	// pre-restart command must not re-execute. Submit it alongside fresh
	// commands; once the fresh ones applied, the total shows the replay
	// was deduplicated.
	if err := submit(g.reps[1], types.ClientID(fmt.Sprintf("c0-%d", ops-1)), 1, lastCmd); err != nil {
		t.Fatal(err)
	}
	submitOps(t, g.reps[0], "c0", ops, ops+6)
	waitFor(t, 30*time.Second, func() bool {
		for _, st := range g.stores {
			if st.AppliedOps() < ops+6 {
				return false
			}
		}
		return true
	}, "post-restart workload to replicate")
	for i, st := range g.stores {
		if got := st.AppliedOps(); got != ops+6 {
			t.Fatalf("replica %d applied %d commands, want exactly %d (replay across restart re-executed)", i, got, ops+6)
		}
	}
}

// TestDurableReplicaRecoversFromDataDirAlone kills one replica mid-run,
// lets the cluster advance without it, and rebuilds it from its directory:
// the pre-crash state must be back before the replica talks to any peer,
// and after Start it catches up on what it missed and participates again.
func TestDurableReplicaRecoversFromDataDirAlone(t *testing.T) {
	cfg := types.Generalized(1, 1)
	const interval = 4
	const phaseA = 12
	const phaseB = 8
	g := buildDurableGroup(t, cfg, 72, interval, storage.SyncGroup)
	defer g.close()
	crashed := types.ProcessID(cfg.N - 1)

	submitOps(t, g.reps[0], "c0", 0, phaseA)
	waitFor(t, 30*time.Second, func() bool {
		for _, st := range g.stores {
			if st.AppliedOps() < phaseA {
				return false
			}
		}
		return true
	}, "phase A to replicate everywhere")
	if err := g.disks[crashed].Barrier(); err != nil {
		t.Fatal(err)
	}
	tr := g.crash(crashed)

	// The cluster keeps deciding with n-1 replicas.
	submitOps(t, g.reps[0], "c0", phaseA, phaseA+phaseB)
	waitFor(t, 30*time.Second, func() bool {
		for i, st := range g.stores {
			if types.ProcessID(i) == crashed {
				continue
			}
			if st.AppliedOps() < phaseA+phaseB {
				return false
			}
		}
		return true
	}, "phase B to replicate on the survivors")

	// Rebuild the crashed replica. Before Start — before it can reach any
	// peer — its phase-A state must be back, from the data dir alone.
	g.bootReplica(t, crashed, interval, storage.SyncGroup, tr)
	if got := g.reps[crashed].AppliedCount(); got < phaseA {
		t.Fatalf("recovered applied=%d from disk, want >= %d", got, phaseA)
	}
	for k := 0; k < phaseA; k++ {
		if v, ok := g.stores[crashed].Get(fmt.Sprintf("k%d", k)); !ok || v != fmt.Sprintf("v%d", k) {
			t.Fatalf("key k%d missing from disk-recovered state: %q, %v", k, v, ok)
		}
	}
	if err := g.reps[crashed].Start(); err != nil {
		t.Fatal(err)
	}

	// Phase B arrives through normal state transfer; new traffic keeps
	// the sync loop fed.
	submitOps(t, g.reps[0], "c0", phaseA+phaseB, phaseA+phaseB+6)
	waitFor(t, 30*time.Second, func() bool {
		return g.stores[crashed].AppliedOps() >= phaseA+phaseB+6
	}, "recovered replica to catch up and follow new traffic")
	for k := 0; k < phaseA+phaseB+6; k++ {
		if v, ok := g.stores[crashed].Get(fmt.Sprintf("k%d", k)); !ok || v != fmt.Sprintf("v%d", k) {
			t.Fatalf("key k%d wrong after catch-up: %q, %v", k, v, ok)
		}
	}
}

// TestDurableRecoveredLeaderReproposesAdoptedValue is the equivocation
// drill at the SMR level: the view-1 leader proposes and acks a value for
// a slot, crashes before any peer can decide it, and restarts with an
// empty pending queue but a different workload waiting. Without the
// persisted vote it would sign a conflicting view-1 proposal for the same
// slot; with it, the restored instance re-proposes exactly the pre-crash
// value, the late-started peers decide it, and the new workload lands in
// the slots after it.
func TestDurableRecoveredLeaderReproposesAdoptedValue(t *testing.T) {
	cfg := types.Generalized(1, 1)
	leader := types.View(1).Leader(cfg.N) // leads view 1 of every slot
	g := buildDurableGroup(t, cfg, 73, 4, storage.SyncGroup)
	defer g.close()

	// Only the leader runs at first: its proposal and ack for slot 0 are
	// persisted, but with no peers there is no quorum and no decision.
	for i := 0; i < cfg.N; i++ {
		if p := types.ProcessID(i); p != leader {
			g.crash(p)
			g.reps[p] = nil
		}
	}
	orig := EncodeKV(KVCommand{Op: OpSet, Client: "c0", Seq: 1, Key: "adopted", Value: "pre-crash"})
	// HandleRequest runs the leader's propose-and-ack synchronously, so the
	// slot-0 vote record is queued before it returns; Barrier makes it
	// durable before the crash.
	if err := submit(g.reps[leader], "c0", 1, orig); err != nil {
		t.Fatal(err)
	}
	if err := g.disks[leader].Barrier(); err != nil {
		t.Fatal(err)
	}
	ltr := g.crash(leader)
	if !hasVoteOnDisk(t, g.dirs[leader], 0) {
		t.Fatal("slot-0 vote record missing from the leader's WAL before the ack left the process")
	}

	// Fresh peers come up first (their inboxes were wiped — nothing of the
	// pre-crash proposal survives anywhere but the leader's disk).
	for i := 0; i < cfg.N; i++ {
		p := types.ProcessID(i)
		if p == leader {
			continue
		}
		g.bootReplica(t, p, 4, storage.SyncGroup, g.net.Transport(p))
		if err := g.reps[p].Start(); err != nil {
			t.Fatal(err)
		}
	}
	// The leader restarts from its directory. Its pending queue is empty
	// and a different command is submitted immediately — the bait: absent
	// the restored vote, slot 0's view-1 proposal would now carry this.
	g.bootReplica(t, leader, 4, storage.SyncGroup, ltr)
	if err := g.reps[leader].Start(); err != nil {
		t.Fatal(err)
	}
	bait := EncodeKV(KVCommand{Op: OpSet, Client: "c1", Seq: 1, Key: "adopted", Value: "post-crash"})
	if err := submit(g.reps[leader], "c1", 1, bait); err != nil {
		t.Fatal(err)
	}

	waitFor(t, 30*time.Second, func() bool {
		for _, st := range g.stores {
			if st.AppliedOps() < 2 {
				return false
			}
		}
		return true
	}, "both commands to replicate")
	// Slot 0 decided the pre-crash value on every replica; the bait came
	// after. Apply order makes "post-crash" the final value, and the
	// pre-crash command was not lost.
	for i, r := range g.reps {
		d, ok := r.Decided(0)
		if !ok {
			// Slot 0 may already be pruned by a checkpoint; the KV apply
			// order below still proves the ordering.
			continue
		}
		cmds, err := DecodeBatch(d.Value)
		if err != nil || len(cmds) == 0 {
			t.Fatalf("replica %d: slot 0 decided junk: %v", i, err)
		}
		req, ok := decodeRequest(cmds[0])
		if !ok {
			t.Fatalf("replica %d: slot 0 not a request batch", i)
		}
		kc, err := DecodeKV(Command(req.Op))
		if err != nil || kc.Value != "pre-crash" {
			t.Fatalf("replica %d: slot 0 decided %q, want the pre-crash adopted value", i, kc.Value)
		}
	}
	for i, st := range g.stores {
		if v, _ := st.Get("adopted"); v != "post-crash" {
			t.Fatalf("replica %d: final value %q, want post-crash write applied after the recovered slot", i, v)
		}
	}
}

// hasVoteOnDisk reports whether the WAL in dir holds a vote record for the
// given slot (peeked through a read-only scan in a throwaway open).
func hasVoteOnDisk(t *testing.T, dir string, slot uint64) bool {
	t.Helper()
	st, err := storage.Open(storage.Config{Dir: dir, Mode: storage.SyncNone})
	if err != nil {
		return false
	}
	defer st.Abort()
	vs := st.Recovered().Votes[slot]
	return vs != nil && len(vs.Acks) > 0
}
