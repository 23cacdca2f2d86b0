package smr

import (
	"crypto/sha256"
	"fmt"
	"runtime"
	"strings"
	"testing"
	"time"

	"repro/internal/msg"
	"repro/internal/sigcrypto"
	"repro/internal/sim"
	"repro/internal/storage"
	"repro/internal/types"
)

// The durable tests run the fixture with a storage.Store (SyncGroup) under
// every replica, so they can cut the power (Store.Abort, via simGroup.crash)
// and rebuild replicas from disk alone. Each store's flusher stays a real
// goroutine doing real fsyncs; simGroup.settle waits it out at every virtual
// instant.

// TestDurableFullClusterRestart is the assertion in-memory replication can
// never make: every replica is stopped at once — no survivor to serve
// state transfer — and the whole cluster comes back from its data
// directories alone, with the KV state, the applied frontier, and the
// session dedup table intact, and keeps replicating.
func TestDurableFullClusterRestart(t *testing.T) {
	cfg := types.Generalized(1, 1)
	const interval = 4
	const ops = 14 // crosses several checkpoint boundaries, ends mid-interval
	g := newSimGroup(t, cfg, 71, groupOpts{interval: interval, durable: true})

	submitOps(t, g.reps[0], "c0", 0, ops)
	g.run(10*time.Second, g.applied(ops), "all replicas to apply the pre-restart workload")
	lastCmd := EncodeKV(KVCommand{Op: OpSet, Client: "c0", Seq: ops - 1,
		Key: fmt.Sprintf("k%d", ops-1), Value: fmt.Sprintf("v%d", ops-1)})

	// The disks are quiescent (run settles them); cut the power on the
	// whole cluster at once.
	for i := 0; i < cfg.N; i++ {
		g.crash(types.ProcessID(i))
	}

	// Rebuild every replica from its directory. Recovery happens in
	// NewReplica, before any network activity: the state must be there
	// before Start — from the data dir alone.
	for i := 0; i < cfg.N; i++ {
		p := types.ProcessID(i)
		g.reboot(p)
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
	g.run(10*time.Second, g.applied(ops+6), "post-restart workload to replicate")
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
	g := newSimGroup(t, cfg, 72, groupOpts{interval: interval, durable: true})
	crashed := types.ProcessID(cfg.N - 1)

	submitOps(t, g.reps[0], "c0", 0, phaseA)
	g.run(10*time.Second, g.applied(phaseA), "phase A to replicate everywhere")
	g.crash(crashed)

	// The cluster keeps deciding with n-1 replicas.
	submitOps(t, g.reps[0], "c0", phaseA, phaseA+phaseB)
	g.run(10*time.Second, g.applied(phaseA+phaseB), "phase B to replicate on the survivors")

	// Rebuild the crashed replica. Before Start — before it can reach any
	// peer — its phase-A state must be back, from the data dir alone.
	g.reboot(crashed)
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
	g.run(30*time.Second, func() bool {
		return g.stores[crashed].AppliedOps() >= phaseA+phaseB+6
	}, "recovered replica to catch up and follow new traffic")
	for k := 0; k < phaseA+phaseB+6; k++ {
		if v, ok := g.stores[crashed].Get(fmt.Sprintf("k%d", k)); !ok || v != fmt.Sprintf("v%d", k) {
			t.Fatalf("key k%d wrong after catch-up: %q, %v", k, v, ok)
		}
	}
}

// TestDurableStateTransferTailDecisionsReachTheWAL: the slots a replica
// decides from a state-transfer tail get decision records like any other —
// a checkpoint keeps only what the WAL already holds, so a decision held
// only in memory would be lost at the next crash. A replica that caught up
// through a snapshot and its tail, crashed before the next checkpoint, must
// find every tail-decided slot above its stable checkpoint on disk, and,
// recovered from that disk alone, serve those slots onward in its own tail.
func TestDurableStateTransferTailDecisionsReachTheWAL(t *testing.T) {
	cfg := types.Generalized(1, 1)
	const interval = 4
	g := newSimGroup(t, cfg, 74, groupOpts{interval: interval, durable: true})
	lagging := types.ProcessID(cfg.N - 1)

	submitOps(t, g.reps[0], "c0", 0, interval)
	g.run(10*time.Second, g.applied(interval), "the first interval to replicate everywhere")
	g.crash(lagging)
	// One command per slot, paced, so the survivors' log ends two slots
	// past a checkpoint: a catch-up response carries a snapshot and a tail.
	const ops = 3*interval + 2
	for i := interval; i < ops; i++ {
		submitOps(t, g.reps[0], "c0", i, i+1)
		g.run(10*time.Second, func() bool { return g.stores[0].AppliedOps() > uint64(i) }, "paced application")
	}

	if err := g.reboot(lagging).Start(); err != nil {
		t.Fatal(err)
	}
	submitOps(t, g.reps[0], "c0", ops, ops+1) // fresh traffic is the lag evidence
	g.run(30*time.Second, g.applied(ops+1), "the lagging replica to catch up")

	// A slot decided from a tail carries no view.
	r := g.reps[lagging]
	r.mu.Lock()
	stable := r.stable.CP.Slot
	fromTail := make(map[uint64]types.Value)
	for s, d := range r.decided {
		if d.View == types.NoView {
			fromTail[s] = d.Value
		}
	}
	r.mu.Unlock()
	if stable < 2*interval {
		t.Fatalf("stable checkpoint %d: the replica did not catch up through a snapshot", stable)
	}
	if len(fromTail) == 0 {
		t.Fatal("no tail-decided slots above the stable checkpoint; the tail vector is dead")
	}
	g.crash(lagging) // the disks are settled: everything appended is durable
	st, err := storage.Open(storage.Config{Dir: g.dirs[lagging]})
	if err != nil {
		t.Fatal(err)
	}
	rec := st.Recovered()
	st.Abort()
	if rec.SnapshotCert == nil || rec.SnapshotCert.CP.Slot != stable {
		t.Fatalf("WAL not headed by the stable checkpoint at slot %d", stable)
	}
	for s, v := range fromTail {
		if d, ok := rec.Decisions[s]; !ok || !d.Value.Equal(v) {
			t.Fatalf("tail-decided slot %d (stable checkpoint %d) held in memory but not in the WAL", s, stable)
		}
	}

	// Recovered from its data dir, the replica serves the slots onward.
	served := make(map[uint64]types.Value)
	g.net.SetPayloadFunc(func(from, _ types.ProcessID, payload []byte, _ sim.Time) sim.Fate {
		if _, s, m, ok := OpenEnvelope(payload); ok && from == lagging && s == syncSlot {
			if ss, ok := m.(*msg.StateSnapshot); ok {
				for _, td := range ss.Tail {
					served[td.Slot] = td.Value
				}
			}
		}
		return sim.Fate{Delay: g.opts.delta}
	})
	r = g.reboot(lagging)
	if err := r.Start(); err != nil {
		t.Fatal(err)
	}
	r.mu.Lock()
	r.onFetchStateLocked(0, &msg.FetchState{From: stable + 1})
	r.mu.Unlock()
	g.settle()
	for s, v := range fromTail {
		if w, ok := served[s]; !ok || !w.Equal(v) {
			t.Fatalf("recovered replica did not serve tail-decided slot %d onward (served %d slots)", s, len(served))
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
	leader := cfg.Leader(1) // leads view 1 of every slot
	g := newSimGroup(t, cfg, 73, groupOpts{interval: 4, durable: true})

	// Only the leader runs at first: its proposal and ack for slot 0 are
	// persisted, but with no peers there is no quorum and no decision.
	for i := 0; i < cfg.N; i++ {
		if p := types.ProcessID(i); p != leader {
			g.crash(p)
		}
	}
	orig := EncodeKV(KVCommand{Op: OpSet, Client: "c0", Seq: 1, Key: "adopted", Value: "pre-crash"})
	// HandleRequest runs the leader's propose-and-ack synchronously, so the
	// slot-0 vote record is queued before it returns; settling waits out the
	// fsync that makes it durable before the crash.
	if err := submit(g.reps[leader], "c0", 1, orig); err != nil {
		t.Fatal(err)
	}
	g.settle()
	g.crash(leader)
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
		if err := g.reboot(p).Start(); err != nil {
			t.Fatal(err)
		}
	}
	// The leader restarts from its directory. Its pending queue is empty
	// and a different command is submitted immediately — the bait: absent
	// the restored vote, slot 0's view-1 proposal would now carry this.
	if err := g.reboot(leader).Start(); err != nil {
		t.Fatal(err)
	}
	bait := EncodeKV(KVCommand{Op: OpSet, Client: "c1", Seq: 1, Key: "adopted", Value: "post-crash"})
	if err := submit(g.reps[leader], "c1", 1, bait); err != nil {
		t.Fatal(err)
	}

	g.run(10*time.Second, g.applied(2), "both commands to replicate")
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
	st, err := storage.Open(storage.Config{Dir: dir})
	if err != nil {
		return false
	}
	defer st.Abort()
	vs := st.Recovered().Votes[slot]
	return vs != nil && len(vs.Acks) > 0
}

// TestRecoverRefusesSnapshotItsCertificateDoesNotCover: recovery installs
// the WAL's snapshot record through the same checks as a snapshot that arrives by
// state transfer, so a data directory holding a snapshot its certificate
// does not cover — a certificate below CertQuorum, or a genuine one over
// other bytes — makes NewReplica fail, naming the slot, instead of
// restoring it. The same directory with a genuine certificate over the
// snapshot's own bytes recovers.
func TestRecoverRefusesSnapshotItsCertificateDoesNotCover(t *testing.T) {
	cfg := types.Generalized(1, 1)
	scheme := sigcrypto.NewHMAC(cfg.N, 73)
	const slot = 7
	snap := SnapshotOf(slot, NewKVStore().Snapshot())
	certOver := func(b []byte, signers ...types.ProcessID) *msg.CheckpointCert {
		sum := sha256.Sum256(b)
		cp := types.Checkpoint{Slot: slot, StateHash: sum[:]}
		cert := &msg.CheckpointCert{CP: cp}
		for _, p := range signers {
			cert.Sigs = append(cert.Sigs, LogSigner(scheme.Signer(p), 0).Sign(msg.CheckpointDigest(cp)))
		}
		return cert
	}
	recoverWith := func(t *testing.T, cert *msg.CheckpointCert) (*Replica, error) {
		t.Helper()
		dir := t.TempDir()
		st, err := storage.Open(storage.Config{Dir: dir})
		if err != nil {
			t.Fatal(err)
		}
		st.Checkpoint(cert, snap)
		if err := st.Close(); err != nil {
			t.Fatal(err)
		}
		if st, err = storage.Open(storage.Config{Dir: dir}); err != nil {
			t.Fatal(err)
		}
		t.Cleanup(func() { _ = st.Close() })
		net := sim.NewNetwork(cfg.N)
		return NewReplica(Config{
			Cluster: cfg, Self: 0, Signer: scheme.Signer(0), Verifier: scheme.Verifier(),
			Transport: net.Transport(0), Clock: net.Clock(0), App: NewKVStore(), Storage: st,
		})
	}

	for _, tc := range []struct {
		name string
		cert *msg.CheckpointCert
	}{
		{"below CertQuorum", certOver(snap, 0)},
		{"genuine over other bytes", certOver([]byte("other bytes"), 0, 1)},
	} {
		t.Run(tc.name, func(t *testing.T) {
			r, err := recoverWith(t, tc.cert)
			if err == nil {
				_ = r.Close()
				t.Fatal("NewReplica recovered a snapshot its certificate does not cover")
			}
			if !strings.Contains(err.Error(), fmt.Sprintf("slot %d", slot)) ||
				!strings.Contains(err.Error(), "certificate") {
				t.Fatalf("error %q does not name the certificate and slot %d", err, slot)
			}
		})
	}
	t.Run("genuine", func(t *testing.T) {
		r, err := recoverWith(t, certOver(snap, 0, 1))
		if err != nil {
			t.Fatal(err)
		}
		defer r.Close()
		if cp, ok := r.StableCheckpoint(); !ok || cp.Slot != slot {
			t.Fatalf("recovered stable checkpoint %v (ok=%v), want slot %d", cp, ok, slot)
		}
	})
}

// bigCheckpointDir writes a data directory whose WAL holds one stable
// checkpoint at slot 7 and nothing else: a KV snapshot of nine 1 MiB values —
// larger than one protocol message (wire.MaxBytes) — under a genuine
// certificate. It returns the directory, the value and the snapshot's size.
func bigCheckpointDir(t *testing.T, scheme sigcrypto.Scheme) (dir, value string, size int) {
	t.Helper()
	value = strings.Repeat("0123456789abcdef", (1<<20)/16)
	app := NewKVStore()
	for i := 0; i < 9; i++ {
		app.data[fmt.Sprintf("k%d", i)] = value
	}
	snap := SnapshotOf(7, app.Snapshot())
	sum := sha256.Sum256(snap)
	cp := types.Checkpoint{Slot: 7, StateHash: sum[:]}
	cert := &msg.CheckpointCert{CP: cp}
	for _, p := range []types.ProcessID{0, 1} {
		cert.Sigs = append(cert.Sigs, LogSigner(scheme.Signer(p), 0).Sign(msg.CheckpointDigest(cp)))
	}
	dir = t.TempDir()
	st, err := storage.Open(storage.Config{Dir: dir})
	if err != nil {
		t.Fatal(err)
	}
	st.Checkpoint(cert, snap)
	if err := st.Close(); err != nil {
		t.Fatal(err)
	}
	return dir, value, len(snap)
}

// recoverReplica rebuilds replica 0 of cfg from dir alone onto app.
func recoverReplica(t *testing.T, cfg types.Config, scheme sigcrypto.Scheme, dir string, app App) *Replica {
	t.Helper()
	st, err := storage.Open(storage.Config{Dir: dir})
	if err != nil {
		t.Fatal(err)
	}
	net := sim.NewNetwork(cfg.N)
	r, err := NewReplica(Config{
		Cluster: cfg, Self: 0, Signer: scheme.Signer(0), Verifier: scheme.Verifier(),
		Transport: net.Transport(0), Clock: net.Clock(0), App: app, Storage: st,
	})
	if err != nil {
		_ = st.Close()
		t.Fatalf("recovering from %s: %v", dir, err)
	}
	t.Cleanup(func() { _ = r.Close() })
	return r
}

// TestDurableRecoversSnapshotAboveMessageLimit: a replica whose
// application snapshot is larger than one protocol message (wire.MaxBytes)
// recovers it from its data directory — the WAL record and the composite
// snapshot codec both carry it uncapped, as state transfer's pieces do.
func TestDurableRecoversSnapshotAboveMessageLimit(t *testing.T) {
	cfg := types.Generalized(1, 1)
	scheme := sigcrypto.NewHMAC(cfg.N, 75)
	dir, value, _ := bigCheckpointDir(t, scheme)
	restored := NewKVStore()
	r := recoverReplica(t, cfg, scheme, dir, restored)
	if cp, ok := r.StableCheckpoint(); !ok || cp.Slot != 7 {
		t.Fatalf("recovered stable checkpoint %v (ok=%v), want slot 7", cp, ok)
	}
	for i := 0; i < 9; i++ {
		if v, ok := restored.Get(fmt.Sprintf("k%d", i)); !ok || v != value {
			t.Fatalf("recovered k%d of %d bytes (present=%v), want the %d checkpointed ones", i, len(v), ok, len(value))
		}
	}
}

// TestDurableRecoveryReleasesStoreSnapshot: once a replica has installed the
// snapshot its store recovered, the store holds no copy of it. Opening the
// store and recovering the replica adds two snapshots' worth of live heap —
// the application state and the one snapshot the replica keeps to serve
// state transfer — not the third the store's RecoveredState used to pin for
// the store's whole life.
func TestDurableRecoveryReleasesStoreSnapshot(t *testing.T) {
	cfg := types.Generalized(1, 1)
	scheme := sigcrypto.NewHMAC(cfg.N, 76)
	dir, _, size := bigCheckpointDir(t, scheme)
	liveHeap := func() int64 {
		runtime.GC()
		var ms runtime.MemStats
		runtime.ReadMemStats(&ms)
		return int64(ms.HeapAlloc)
	}
	before := liveHeap()
	r := recoverReplica(t, cfg, scheme, dir, NewKVStore())
	grew := liveHeap() - before
	runtime.KeepAlive(r)
	if limit := int64(size) * 5 / 2; grew > limit {
		t.Fatalf("recovering a %d-byte snapshot grew the live heap by %d bytes, want at most %d (application state plus the replica's copy)",
			size, grew, limit)
	}
}
