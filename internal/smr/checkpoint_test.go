package smr

import (
	"bytes"
	"fmt"
	"testing"
	"time"

	"repro/internal/msg"
	"repro/internal/sigcrypto"
	"repro/internal/sim"
	"repro/internal/transport"
	"repro/internal/types"
)

// TestCheckpointingBoundsSlotState runs many slots through a checkpointing
// group and asserts the per-slot maps are actually pruned: live consensus
// instances and retained decision records stay bounded by the checkpoint
// interval (plus the live window), no matter how long the log grows.
func TestCheckpointingBoundsSlotState(t *testing.T) {
	cfg := types.Generalized(1, 1)
	const interval = 4
	const ops = 48
	g := newSimGroup(t, cfg, 31, groupOpts{jitter: testJitter, interval: interval})
	reps, stores := g.reps, g.stores

	for i := 0; i < ops; i++ {
		submitOps(t, reps[0], "c0", i, i+1)
		// Pace submissions so the log advances slot by slot and checkpoint
		// boundaries are actually crossed many times.
		if i%8 == 7 {
			g.run(10*time.Second, func() bool {
				return stores[0].AppliedOps() >= uint64(i+1)
			}, "paced application")
		}
	}
	g.run(10*time.Second, g.applied(ops), "all replicas to apply all commands")

	g.run(10*time.Second, func() bool {
		for _, r := range reps {
			cp, ok := r.StableCheckpoint()
			if !ok || cp.Slot+3*interval < reps[0].AppliedCount() {
				return false
			}
		}
		return true
	}, "stable checkpoints near the frontier on every replica")

	// The log ran for at least `ops` slots; without pruning the maps would
	// hold one entry per slot. With pruning they are bounded by what a
	// checkpoint interval plus the live window can keep alive. The stable
	// checkpoint prunes both, so at this interval the longer lives of a
	// decided instance (two windows past its decision, advanceLocked) and of
	// a decision record (one interval past its checkpoint, stabilizeLocked)
	// stay within an interval, the window and 4 slots: the run ends with 4–8
	// instances and 8–12 records per replica.
	bound := int(interval) + 8 /* default WindowSize */ + 4
	for i, r := range reps {
		if n := r.SlotCount(); n > bound {
			t.Errorf("replica %d holds %d live slot instances, want <= %d", i, n, bound)
		}
		if n := r.DecidedCount(); n > bound {
			t.Errorf("replica %d retains %d decision records, want <= %d", i, n, bound)
		}
		if r.AppliedCount() < ops {
			t.Errorf("replica %d applied %d slots, want >= %d", i, r.AppliedCount(), ops)
		}
	}
}

// TestCrashedReplicaCatchesUpViaStateTransfer crashes one replica, runs
// several checkpoint intervals of traffic without it (so the others prune
// the slots it missed), restarts it with empty state, and asserts it
// converges to the same applied state through state transfer — the pruned
// slots can no longer be re-run through consensus, so convergence proves
// the snapshot path works.
func TestCrashedReplicaCatchesUpViaStateTransfer(t *testing.T) {
	cfg := types.Generalized(1, 1)
	const interval = 4
	crashed := types.ProcessID(cfg.N - 1)
	g := newSimGroup(t, cfg, 32, groupOpts{jitter: testJitter, interval: interval})
	reps, stores := g.reps, g.stores

	// Phase 1: all replicas alive, some traffic.
	submitOps(t, reps[0], "c", 0, 4)
	g.run(10*time.Second, g.applied(4), "phase-1 application")

	// Phase 2: crash the replica (messages to it are dropped, as with a dead
	// host) and run >= 3 checkpoint intervals of traffic on the survivors.
	g.crash(crashed)
	const phase2 = 4 + 3*interval + 4 // well past three checkpoint boundaries
	for i := 4; i < phase2; i++ {
		submitOps(t, reps[0], "c", i, i+1)
		g.run(10*time.Second, func() bool {
			return stores[0].AppliedOps() >= uint64(i+1)
		}, "phase-2 paced application")
	}
	g.run(10*time.Second, func() bool {
		cp, ok := reps[0].StableCheckpoint()
		return ok && cp.Slot >= 2*interval
	}, "survivors to advance their stable checkpoint")
	missed := reps[0].AppliedCount()
	if missed < 3*interval {
		t.Fatalf("survivors applied only %d slots while replica was down", missed)
	}

	// Phase 3: restart the crashed replica with a fresh endpoint and empty
	// state (a crash loses volatile state; there is no disk), keep traffic
	// flowing, and wait for convergence.
	restarted := g.reboot(crashed)
	if err := restarted.Start(); err != nil {
		t.Fatal(err)
	}
	freshStore := stores[crashed]

	const totalOps = phase2 + 8
	submitOps(t, reps[0], "c", phase2, totalOps)
	g.run(30*time.Second, func() bool {
		return stores[0].AppliedOps() >= totalOps &&
			freshStore.AppliedOps() >= totalOps &&
			restarted.AppliedCount() >= reps[0].AppliedCount()
	}, "restarted replica to catch up")

	// The restarted replica must hold the exact same state as a survivor.
	for i := 0; i < totalOps; i++ {
		key := fmt.Sprintf("k%d", i)
		want, ok := stores[0].Get(key)
		if !ok {
			t.Fatalf("survivor lost key %s", key)
		}
		got, ok := freshStore.Get(key)
		if !ok || got != want {
			t.Fatalf("restarted replica: %s=%q (present=%v), want %q", key, got, ok, want)
		}
	}
	if got, want := freshStore.AppliedOps(), stores[0].AppliedOps(); got != want {
		t.Fatalf("restarted replica applied %d ops, survivor %d", got, want)
	}
	// It could not have replayed the missed slots through consensus — they
	// are pruned on the survivors — so it must have adopted a certified
	// checkpoint at or beyond the survivors' stable checkpoint of phase 2.
	cp, ok := restarted.StableCheckpoint()
	if !ok {
		t.Fatal("restarted replica has no stable checkpoint")
	}
	if cp.Slot < 2*interval {
		t.Fatalf("restarted replica's stable checkpoint %d predates the outage", cp.Slot)
	}
}

// TestLaggingReplicaCatchesUp: the fast path decides on n − t acks, so a
// correct replica can be left out of every fast quorum, fall a window behind
// and still has to converge — under the default configuration. Replica 3
// hears only the leader (process 1) until the other three have applied every
// command: the leader's traffic for slots beyond its window is lag evidence
// it cannot act on, and the held traffic of processes 0 and 2 covers only the
// first window. Without state transfer it would stop at WindowSize commands
// for good; with it, it catches up within a fetch-retry cooldown.
func TestLaggingReplicaCatchesUp(t *testing.T) {
	cfg := types.Generalized(1, 1)
	const (
		ops    = 20
		delta  = time.Millisecond
		lagger = types.ProcessID(3)
	)
	g := newSimGroup(t, cfg, 35, groupOpts{delta: delta, base: 500 * time.Millisecond})
	g.net.SetPayloadFunc(func(from, to types.ProcessID, _ []byte, _ sim.Time) sim.Fate {
		return sim.Fate{Delay: delta, Hold: to == lagger && (from == 0 || from == 2)}
	})
	submitOps(t, g.reps[0], "c", 0, ops)
	g.run(5*time.Second, func() bool {
		for p := types.ProcessID(0); p < lagger; p++ {
			if g.stores[p].AppliedOps() < ops {
				return false
			}
		}
		return true
	}, "replicas 0-2 to apply every command")

	g.net.SetPayloadFunc(nil)
	g.net.Release()
	g.run(5*time.Second, func() bool { return g.stores[lagger].AppliedOps() >= ops },
		"the lagging replica to apply every command")
	for i := 0; i < ops; i++ {
		key := fmt.Sprintf("k%d", i)
		want, _ := g.stores[0].Get(key)
		if got, ok := g.stores[lagger].Get(key); !ok || got != want {
			t.Fatalf("lagging replica: %s=%q (present=%v), want %q", key, got, ok, want)
		}
	}
}

// runSimCatchUp runs the crash/recovery scenario on the lockstep network and
// returns replica 0's final application snapshot. Two invocations must
// produce identical bytes (determinism) and the restarted replica must
// converge (state transfer).
func runSimCatchUp(t *testing.T, seed int64) []byte {
	t.Helper()
	cfg := types.Generalized(1, 1)
	const interval = 4
	crashed := types.ProcessID(cfg.N - 1)
	g := newSimGroup(t, cfg, seed, groupOpts{interval: interval})
	reps, stores := g.reps, g.stores

	submitOne := func(i int) {
		cmd := EncodeKV(KVCommand{Op: OpSet, Client: "s", Seq: uint64(i),
			Key: fmt.Sprintf("k%d", i), Value: fmt.Sprintf("v%d", i)})
		if err := submit(reps[0], sessionID(i), 1, cmd); err != nil {
			t.Fatal(err)
		}
		g.settle()
	}

	// Phase 1: everyone alive.
	for i := 0; i < 4; i++ {
		submitOne(i)
	}
	if stores[crashed].AppliedOps() != 4 {
		t.Fatalf("phase 1: crashed-to-be replica applied %d ops", stores[crashed].AppliedOps())
	}

	// Phase 2: crash and run three checkpoint intervals without it.
	g.crash(crashed)
	const phase2 = 4 + 3*interval + 4
	for i := 4; i < phase2; i++ {
		submitOne(i)
	}
	if cp, ok := reps[0].StableCheckpoint(); !ok || cp.Slot < 2*interval {
		t.Fatalf("survivors have no advanced stable checkpoint (ok=%v)", ok)
	}

	// Phase 3: restart with empty state; traffic pulls it back in.
	r := g.reboot(crashed)
	if err := r.Start(); err != nil {
		t.Fatal(err)
	}
	store := stores[crashed]

	const totalOps = phase2 + 8
	for i := phase2; i < totalOps; i++ {
		submitOne(i)
	}

	if got, want := store.AppliedOps(), stores[0].AppliedOps(); got != want {
		t.Fatalf("restarted replica applied %d ops, survivor %d", got, want)
	}
	if got, want := r.AppliedCount(), reps[0].AppliedCount(); got != want {
		t.Fatalf("restarted replica frontier %d, survivor %d", got, want)
	}
	if snapA, snapB := store.Snapshot(), stores[0].Snapshot(); !bytes.Equal(snapA, snapB) {
		t.Fatal("restarted replica state diverges from survivor state")
	}
	if cp, ok := r.StableCheckpoint(); !ok || cp.Slot < 2*interval {
		t.Fatalf("restarted replica stable checkpoint missing or stale (ok=%v)", ok)
	}
	return stores[0].Snapshot()
}

// TestSimCatchUpDeterministic runs the lockstep crash/recovery scenario
// twice and asserts byte-identical final state: the deterministic network
// makes the whole recovery schedule reproducible.
func TestSimCatchUpDeterministic(t *testing.T) {
	a := runSimCatchUp(t, 77)
	b := runSimCatchUp(t, 77)
	if !bytes.Equal(a, b) {
		t.Fatal("two identical lockstep runs diverged")
	}
}

// TestGarbageBatchDecidesSlotButAppliesNothing covers the Byzantine-leader
// case: a slot that decides a value that is not a valid batch must advance
// the log (the slot is decided; the cluster moves on) while applying no
// command to the application.
func TestGarbageBatchDecidesSlotButAppliesNothing(t *testing.T) {
	cfg := types.Generalized(1, 1)
	scheme := sigcrypto.NewHMAC(cfg.N, 5)
	net := transport.NewMemNetwork(cfg.N, 0)
	defer func() { _ = net.Close() }()
	store := NewKVStore()
	r, err := NewReplica(Config{
		Cluster:            cfg,
		Self:               0,
		Signer:             scheme.Signer(0),
		Verifier:           scheme.Verifier(),
		Transport:          net.Transport(0),
		App:                store,
		CheckpointInterval: 2,
	})
	if err != nil {
		t.Fatal(err)
	}

	garbage := types.Value("not-a-batch-\xff\xff\xff")
	if _, err := DecodeBatch(garbage); err == nil {
		t.Fatal("test value unexpectedly decodes as a batch")
	}
	// Slot 1 carries a batch holding one well-formed request (whose op is
	// not a KV command) and one command that is not a request at all.
	real := Command(msg.Encode(&msg.Request{Client: "c", Seq: 1, Op: []byte("not-a-kv-op")}))
	junk := Command("just-bytes")
	r.mu.Lock()
	r.onDecideLocked(0, types.Decision{Value: garbage, View: 1, Path: types.FastPath})
	r.onDecideLocked(1, types.Decision{Value: EncodeBatch([]Command{real, junk}), View: 1, Path: types.FastPath})
	applied := r.applyPtr
	r.mu.Unlock()

	if applied != 2 {
		t.Fatalf("apply frontier %d after two decided slots, want 2", applied)
	}
	if n := store.AppliedOps(); n != 0 {
		t.Fatalf("garbage batch applied %d KV ops, want 0 (the real request's op is not a KV command)", n)
	}
	// The well-formed request consumed its sequence number (its session
	// records the execution); the non-request bytes left no trace.
	if seq, ok := r.SessionSeq("c"); !ok || seq != 1 {
		t.Fatalf("session for client c: seq=%d ok=%v, want 1", seq, ok)
	}
	if n := r.SessionCount(); n != 1 {
		t.Fatalf("%d sessions recorded, want 1 (non-request bytes must not mint sessions)", n)
	}
}

// TestSnapshotCodecRoundTrip checks the composite snapshot codec and its
// strictness on malformed inputs.
func TestSnapshotCodecRoundTrip(t *testing.T) {
	cfg := types.Generalized(1, 1)
	scheme := sigcrypto.NewHMAC(cfg.N, 6)
	net := transport.NewMemNetwork(cfg.N, 0)
	defer func() { _ = net.Close() }()
	store := NewKVStore()
	store.Apply(0, EncodeKV(KVCommand{Op: OpSet, Client: "x", Seq: 1, Key: "a", Value: "1"}))
	r, err := NewReplica(Config{
		Cluster: cfg, Self: 0,
		Signer: scheme.Signer(0), Verifier: scheme.Verifier(),
		Transport: net.Transport(0), App: store, CheckpointInterval: 4,
	})
	if err != nil {
		t.Fatal(err)
	}
	r.mu.Lock()
	r.sessions["alice"] = &session{lastSeq: 9, lastSlot: 5, lastReply: []byte("res-a")}
	r.sessions["bob"] = &session{lastSeq: 2, lastSlot: 7, lastReply: nil}
	snap := r.encodeSnapshotLocked(7)
	r.mu.Unlock()

	sessions, app, err := decodeSnapshot(7, snap)
	if err != nil {
		t.Fatal(err)
	}
	if len(sessions) != 2 {
		t.Fatalf("session table round trip: %d entries", len(sessions))
	}
	if s := sessions["alice"]; s == nil || s.lastSeq != 9 || s.lastSlot != 5 || string(s.lastReply) != "res-a" {
		t.Fatalf("alice session round trip: %+v", sessions["alice"])
	}
	if s := sessions["bob"]; s == nil || s.lastSeq != 2 || s.lastSlot != 7 || len(s.lastReply) != 0 {
		t.Fatalf("bob session round trip: %+v", sessions["bob"])
	}
	restored := NewKVStore()
	if err := restored.Restore(app); err != nil {
		t.Fatal(err)
	}
	if v, ok := restored.Get("a"); !ok || v != "1" {
		t.Fatalf("restored store: a=%q (present=%v)", v, ok)
	}
	if restored.AppliedOps() != store.AppliedOps() {
		t.Fatal("restored applied counter differs")
	}

	if _, _, err := decodeSnapshot(8, snap); err == nil {
		t.Fatal("snapshot accepted for wrong slot")
	}
	if _, _, err := decodeSnapshot(7, snap[:len(snap)-1]); err == nil {
		t.Fatal("truncated snapshot accepted")
	}
	if _, _, err := decodeSnapshot(7, append(append([]byte(nil), snap...), 0)); err == nil {
		t.Fatal("snapshot with trailing bytes accepted")
	}
}

// TestKVSnapshotDeterminism: two stores with the same logical content must
// serialize identically regardless of insertion order — checkpoint quorums
// compare snapshot digests byte for byte.
func TestKVSnapshotDeterminism(t *testing.T) {
	a, b := NewKVStore(), NewKVStore()
	a.Apply(0, EncodeKV(KVCommand{Op: OpSet, Client: "c", Seq: 1, Key: "x", Value: "1"}))
	a.Apply(1, EncodeKV(KVCommand{Op: OpSet, Client: "c", Seq: 2, Key: "y", Value: "2"}))
	b.Apply(0, EncodeKV(KVCommand{Op: OpSet, Client: "c", Seq: 2, Key: "y", Value: "2"}))
	b.Apply(1, EncodeKV(KVCommand{Op: OpSet, Client: "c", Seq: 1, Key: "x", Value: "1"}))
	if !bytes.Equal(a.Snapshot(), b.Snapshot()) {
		t.Fatal("snapshots depend on insertion order")
	}
	if err := NewKVStore().Restore([]byte("garbage")); err == nil {
		t.Fatal("garbage snapshot restored without error")
	}
}
