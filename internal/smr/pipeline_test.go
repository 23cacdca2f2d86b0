package smr

import (
	"fmt"
	"testing"
	"time"

	"repro/internal/msg"
	"repro/internal/sigcrypto"
	"repro/internal/transport"
	"repro/internal/types"
)

// ---------------------------------------------------------------------------
// Helpers
// ---------------------------------------------------------------------------

// inflightInvariantErr checks, under the replica's own lock, the disjointness
// invariant of pipelined replication: no command is proposed in two live
// slots at once, every proposed command is indexed in flight for exactly its
// slot, and no in-flight command is simultaneously queued for assignment.
// It also checks the batching hold: at most one undecided proposal holds
// fewer than MaxBatch commands, because a partial batch waits while another
// proposal is in flight. A view-change graft is exempt from the hold; no
// caller changes a view with MaxBatch above 1.
func (r *Replica) inflightInvariantErr() error {
	r.mu.Lock()
	defer r.mu.Unlock()
	seen := make(map[string]uint64)
	partial := 0
	for num, sl := range r.slots {
		if n := len(sl.proposed); n > 0 && n < r.cfg.MaxBatch {
			partial++
		}
		for _, c := range sl.proposed {
			if other, dup := seen[string(c)]; dup {
				return fmt.Errorf("command proposed in two live slots (%d and %d)", other, num)
			}
			seen[string(c)] = num
			if got, ok := r.inflight[string(c)]; !ok || got != num {
				return fmt.Errorf("slot %d's proposed command indexed in flight for slot %d (present=%v)", num, got, ok)
			}
			if r.pending.Contains(c) {
				return fmt.Errorf("slot %d's in-flight command still queued as pending", num)
			}
		}
	}
	for c, s := range r.inflight {
		if other, ok := seen[c]; !ok || other != s {
			return fmt.Errorf("in-flight index entry for slot %d has no live proposal", s)
		}
	}
	if partial > 1 {
		return fmt.Errorf("%d partial batches in flight (MaxBatch %d)", partial, r.cfg.MaxBatch)
	}
	return nil
}

// ---------------------------------------------------------------------------
// Pipelining: the window actually fills
// ---------------------------------------------------------------------------

// TestSMRPipelineFillsWindow submits a burst of commands without letting the
// network deliver anything and asserts the leader spins up one consensus
// instance per pending command, up to the window — the pipelining property
// itself: replication concurrency is bounded by WindowSize, not by one
// consensus round-trip at a time. Window fill is leader-driven (only the
// view-1 leader, process 1, assigns chunks to fresh slots — a follower
// speculating on slot assignment is what used to orphan commands), so the
// burst goes through the leader.
func TestSMRPipelineFillsWindow(t *testing.T) {
	cfg := types.Generalized(1, 1)
	const window = 4
	g := newSimGroup(t, cfg, 41, groupOpts{window: window})
	reps, stores := g.reps, g.stores

	leader := cfg.Leader(1)
	const ops = 7 // more than the window: the excess must stay queued
	for i := 0; i < ops; i++ {
		submitKV(t, reps[leader], "burst", i)
	}
	if got := reps[leader].SlotCount(); got != window {
		t.Fatalf("leader runs %d live instances after %d submissions, want the full window %d", got, ops, window)
	}
	if got := reps[leader].PendingCount(); got != ops {
		t.Fatalf("leader tracks %d commands, want %d (in flight + queued)", got, ops)
	}
	for _, r := range reps {
		if err := r.inflightInvariantErr(); err != nil {
			t.Fatal(err)
		}
	}

	// Let the cluster run: everything decides and applies, in order, on all
	// replicas, and the window keeps refilling past the first WindowSize
	// slots.
	g.settle()
	for i, st := range stores {
		if st.AppliedOps() != ops {
			t.Fatalf("replica %d applied %d ops, want %d", i, st.AppliedOps(), ops)
		}
	}
	if got := reps[0].AppliedCount(); got < ops {
		t.Fatalf("apply frontier %d, want >= %d", got, ops)
	}
	for _, r := range reps {
		if err := r.inflightInvariantErr(); err != nil {
			t.Fatal(err)
		}
	}
}

// TestSMRPipelineDisjointChunksUnderLoad runs a pipelined, batched workload
// submitted through every replica under seeded random message delays — slots
// overtake each other, and the followers' relays reach the leader in an
// order the delays shuffle, while it holds partial batches — and asserts
// after every single simulator event that no command is proposed in two live
// slots of the same replica at once (the acceptance invariant of pipelined
// replication) and that at most one partial batch is in flight, while every
// command still executes exactly once.
func TestSMRPipelineDisjointChunksUnderLoad(t *testing.T) {
	cfg := types.Generalized(1, 1)
	g := newSimGroup(t, cfg, 42, groupOpts{jitter: 2 * time.Millisecond, window: 8, maxBatch: 4})
	reps, stores := g.reps, g.stores

	// Submit through every replica: only the leader fills the window, so
	// three commands in four reach it through a follower's relay.
	const ops = 96
	for i := 0; i < ops; i++ {
		submitKV(t, reps[i%cfg.N], "load", i)
	}
	var violation error
	if _, err := g.net.Run(g.net.Now()+10*time.Second, func() bool {
		for _, r := range reps {
			if violation = r.inflightInvariantErr(); violation != nil {
				return true
			}
		}
		return g.applied(ops)()
	}); err != nil {
		t.Fatal(err)
	}
	if violation != nil {
		t.Fatal(violation)
	}
	g.net.Advance(100 * time.Millisecond) // any duplicate applications would land here
	for i, st := range stores {
		if st.AppliedOps() != ops {
			t.Fatalf("replica %d applied %d ops, want exactly %d", i, st.AppliedOps(), ops)
		}
	}
	for _, r := range reps {
		if err := r.inflightInvariantErr(); err != nil {
			t.Fatal(err)
		}
	}
}

// TestSMRBatchHoldsWhileSlotInFlight hands 8 requests from 8 clients to the
// leader in one instant, with a window of 8. With MaxBatch 8 the first
// request finds the window idle and goes out alone; the other 7 wait for
// that slot to decide, then leave as one batch — 2 slots, not 8. With
// MaxBatch 1 every request is a full batch, so the unbatched path still
// opens a slot per request. Either way every replica applies every request
// exactly once.
func TestSMRBatchHoldsWhileSlotInFlight(t *testing.T) {
	cfg := types.Generalized(1, 1)
	for _, tc := range []struct {
		maxBatch int
		want     []int // commands per decided slot, in slot order
	}{
		{8, []int{1, 7}},
		{1, []int{1, 1, 1, 1, 1, 1, 1, 1}},
	} {
		t.Run(fmt.Sprintf("maxbatch%d", tc.maxBatch), func(t *testing.T) {
			g := newSimGroup(t, cfg, 44, groupOpts{window: 8, maxBatch: tc.maxBatch})
			const ops = 8
			submitOps(t, g.reps[cfg.Leader(1)], "burst", 0, ops)
			g.run(time.Second, g.applied(ops), "the burst to apply")
			g.net.Advance(100 * time.Millisecond) // any duplicate applications would land here
			for i, r := range g.reps {
				var got []int
				for s := uint64(0); ; s++ {
					d, ok := r.Decided(s)
					if !ok {
						break
					}
					cmds, err := DecodeBatch(d.Value)
					if err != nil {
						t.Fatalf("replica %d slot %d: %v", i, s, err)
					}
					got = append(got, len(cmds))
				}
				if fmt.Sprint(got) != fmt.Sprint(tc.want) {
					t.Errorf("replica %d decided batches of %v, want %v", i, got, tc.want)
				}
				if n := g.stores[i].AppliedOps(); n != ops {
					t.Errorf("replica %d applied %d ops, want exactly %d", i, n, ops)
				}
				if err := r.inflightInvariantErr(); err != nil {
					t.Error(err)
				}
			}
		})
	}
}

// ---------------------------------------------------------------------------
// Out-of-order decide, in-order apply and commit
// ---------------------------------------------------------------------------

// TestSMROutOfOrderDecideAppliesInOrder parks every consensus message of one
// log slot so its successors decide first, asserts the apply frontier stalls
// at the gap (in-order apply) while later slots are decided, then releases
// the slot and asserts all replicas reach identical state with commit
// callbacks in strict slot order.
func TestSMROutOfOrderDecideAppliesInOrder(t *testing.T) {
	cfg := types.Generalized(1, 1)
	g := newSimGroup(t, cfg, 43, groupOpts{window: 8})
	reps, stores, logs := g.reps, g.stores, g.logs

	// Park all consensus traffic of slot 1: slots 2..4 will decide while
	// slot 1 cannot.
	const gap = uint64(1)
	g.net.SetPayloadFunc(holdSlot(gap))

	const ops = 5 // slots 0..4
	for i := 0; i < ops; i++ {
		submitKV(t, reps[0], "ooo", i)
	}
	g.settle()

	// Slots beyond the gap decided out of order; the gap and everything
	// after it must not have applied.
	for i, r := range reps {
		for s := gap + 1; s < ops; s++ {
			if _, ok := r.Decided(s); !ok {
				t.Fatalf("replica %d: slot %d undecided while slot %d is parked", i, s, gap)
			}
		}
		if _, ok := r.Decided(gap); ok {
			t.Fatalf("replica %d decided the parked slot", i)
		}
		if got := r.AppliedCount(); got != gap {
			t.Fatalf("replica %d apply frontier %d, want %d (stalled at the gap)", i, got, gap)
		}
	}
	// Commit observers must have seen exactly the contiguous prefix.
	for i, l := range logs {
		if got := l.snapshot(); len(got) != int(gap) {
			t.Fatalf("replica %d observed %d commits (%v) with the gap parked, want %d", i, len(got), got, gap)
		}
	}

	// Release the gap: the log drains, in order, everywhere.
	g.net.SetPayloadFunc(nil)
	g.net.Release()
	g.settle()
	for i, st := range stores {
		if st.AppliedOps() != ops {
			t.Fatalf("replica %d applied %d ops after release, want %d", i, st.AppliedOps(), ops)
		}
	}
	for i, l := range logs {
		got := l.snapshot()
		if len(got) != ops {
			t.Fatalf("replica %d observed %d commits, want %d", i, len(got), ops)
		}
		for s := 0; s < ops; s++ {
			if got[s] != uint64(s) {
				t.Fatalf("replica %d commit order %v: position %d is slot %d, want %d", i, got, s, got[s], s)
			}
		}
	}
	// Identical application state everywhere.
	for i := 0; i < ops; i++ {
		key := fmt.Sprintf("k%d", i)
		ref, ok := stores[0].Get(key)
		if !ok {
			t.Fatalf("replica 0 lost %s", key)
		}
		for j, st := range stores {
			if v, ok := st.Get(key); !ok || v != ref {
				t.Fatalf("replica %d: %s=%q (present=%v), want %q", j, key, v, ok, ref)
			}
		}
	}
}

// TestSMROutOfOrderDecideLongerGap parks a slot while three successors
// decide (the k+1..k+3 shape), with batching, and asserts the same
// invariants plus the reproposal accounting: the parked slot's chunk is
// never lost.
func TestSMROutOfOrderDecideLongerGap(t *testing.T) {
	cfg := types.Generalized(1, 1)
	g := newSimGroup(t, cfg, 44, groupOpts{window: 8, maxBatch: 2})
	reps, stores, logs := g.reps, g.stores, g.logs

	const gap = uint64(2)
	g.net.SetPayloadFunc(holdSlot(gap))
	const ops = 12 // batches of 2 across 6 slots
	for i := 0; i < ops; i++ {
		submitKV(t, reps[0], "gap", i)
	}
	g.settle()
	for i, r := range reps {
		if got := r.AppliedCount(); got != gap {
			t.Fatalf("replica %d apply frontier %d, want %d", i, got, gap)
		}
		if decided := r.DecidedCount(); decided < 3 {
			t.Fatalf("replica %d decided only %d slots past the gap, want >= 3 (k+1..k+3)", i, decided)
		}
	}
	g.net.SetPayloadFunc(nil)
	g.net.Release()
	g.settle()
	for i, st := range stores {
		if st.AppliedOps() != ops {
			t.Fatalf("replica %d applied %d ops, want %d", i, st.AppliedOps(), ops)
		}
	}
	for i, l := range logs {
		got := l.snapshot()
		if len(got) != int(reps[i].AppliedCount()) {
			t.Fatalf("replica %d observed %d commits for %d applied slots", i, len(got), reps[i].AppliedCount())
		}
		for s := 1; s < len(got); s++ {
			if got[s] != got[s-1]+1 {
				t.Fatalf("replica %d commit order not contiguous ascending: %v", i, got)
			}
		}
	}
}

// TestSMRCommitOrderUnderConcurrency is the regression test for ordered
// commit delivery: under a pipelined workload whose slots decide close
// together and out of order (seeded random delays, submissions through every
// replica), every replica's OnCommit stream must be strictly ascending by
// slot and complete the instant the slots are applied. An early
// implementation fired one goroutine per slot and could deliver slot 7
// before slot 6.
func TestSMRCommitOrderUnderConcurrency(t *testing.T) {
	cfg := types.Generalized(1, 1)
	g := newSimGroup(t, cfg, 45, groupOpts{jitter: 2 * time.Millisecond, window: 8, maxBatch: 2})
	reps, logs := g.reps, g.logs

	const ops = 64
	for i := 0; i < ops; i++ {
		submitKV(t, reps[i%cfg.N], "order", i)
	}
	g.run(10*time.Second, g.applied(ops), "workload to apply")
	for i := range reps {
		got := logs[i].snapshot()
		if uint64(len(got)) != reps[i].AppliedCount() || len(got) == 0 {
			t.Fatalf("replica %d observed %d commits for %d applied slots", i, len(got), reps[i].AppliedCount())
		}
		if got[0] != 0 {
			t.Fatalf("replica %d first commit is slot %d, want 0", i, got[0])
		}
		for s := 1; s < len(got); s++ {
			if got[s] != got[s-1]+1 {
				t.Fatalf("replica %d commit stream out of order at position %d: %v", i, s, got)
			}
		}
	}
}

// ---------------------------------------------------------------------------
// Crash/restart with a part-filled window
// ---------------------------------------------------------------------------

// TestSMRPipelineCrashRestartPartFilledWindow crashes a replica while the
// live window is part-filled (a parked slot has undecided successors already
// decided), runs several checkpoint intervals without it, restarts it with
// empty state, and asserts it converges — the state-transfer path working
// while the live window extends past the newest stable checkpoint.
func TestSMRPipelineCrashRestartPartFilledWindow(t *testing.T) {
	cfg := types.Generalized(1, 1)
	const interval = uint64(4)
	crashed := types.ProcessID(cfg.N - 1)
	g := newSimGroup(t, cfg, 46, groupOpts{window: 8, interval: interval})
	reps, stores := g.reps, g.stores

	// Phase 1: a few slots everywhere.
	for i := 0; i < 4; i++ {
		submitKV(t, reps[0], "cw", i)
		g.settle()
	}
	if got := stores[crashed].AppliedOps(); got != 4 {
		t.Fatalf("phase 1: crashed-to-be replica applied %d ops", got)
	}

	// Phase 2: park slot 5 so slots 6..9 decide out of order, leaving the
	// window part-filled, then crash the replica in that state.
	const gap = uint64(5)
	g.net.SetPayloadFunc(holdSlot(gap))
	for i := 4; i < 10; i++ {
		submitKV(t, reps[0], "cw", i)
	}
	g.settle()
	if got := reps[0].AppliedCount(); got != gap {
		t.Fatalf("phase 2: apply frontier %d, want stalled at %d", got, gap)
	}
	g.crash(crashed)
	g.net.SetPayloadFunc(nil)
	g.net.Release()
	g.settle()

	// Phase 3: several checkpoint intervals without the crashed replica, so
	// the survivors prune the slots it missed.
	const phase3End = 10 + 3*int(interval) + 2
	for i := 10; i < phase3End; i++ {
		submitKV(t, reps[0], "cw", i)
		g.settle()
	}
	if cp, ok := reps[0].StableCheckpoint(); !ok || cp.Slot < 2*interval {
		t.Fatalf("survivors lack an advanced stable checkpoint (ok=%v)", ok)
	}

	// Phase 4: restart with empty state; fresh traffic pulls it back in.
	restarted := g.reboot(crashed)
	if err := restarted.Start(); err != nil {
		t.Fatal(err)
	}
	freshStore, freshLog := stores[crashed], g.logs[crashed]

	const totalOps = phase3End + 6
	for i := phase3End; i < totalOps; i++ {
		submitKV(t, reps[0], "cw", i)
		g.settle()
	}

	if got, want := freshStore.AppliedOps(), stores[0].AppliedOps(); got != want {
		t.Fatalf("restarted replica applied %d ops, survivor %d", got, want)
	}
	if got, want := restarted.AppliedCount(), reps[0].AppliedCount(); got != want {
		t.Fatalf("restarted replica frontier %d, survivor %d", got, want)
	}
	for i := 0; i < totalOps; i++ {
		key := fmt.Sprintf("k%d", i)
		want, ok := stores[0].Get(key)
		if !ok {
			t.Fatalf("survivor lost %s", key)
		}
		if got, ok := freshStore.Get(key); !ok || got != want {
			t.Fatalf("restarted replica: %s=%q (present=%v), want %q", key, got, ok, want)
		}
	}
	// The restarted replica's commit stream is ascending and contiguous from
	// wherever state transfer let it join.
	got := freshLog.snapshot()
	if len(got) == 0 {
		t.Fatal("restarted replica observed no commits")
	}
	for s := 1; s < len(got); s++ {
		if got[s] != got[s-1]+1 {
			t.Fatalf("restarted replica commit order not contiguous: %v", got)
		}
	}
	if err := restarted.inflightInvariantErr(); err != nil {
		t.Fatal(err)
	}
}

// ---------------------------------------------------------------------------
// Malformed decided batches are observable
// ---------------------------------------------------------------------------

// TestSMRMalformedBatchCounted: a decided value that fails DecodeBatch must
// advance the log, apply nothing, and be counted — previously it was
// silently swallowed. No-op (empty) decisions must NOT count.
func TestSMRMalformedBatchCounted(t *testing.T) {
	cfg := types.Generalized(1, 1)
	scheme := sigcrypto.NewHMAC(cfg.N, 47)
	net := transport.NewMemNetwork(cfg.N, 0)
	defer func() { _ = net.Close() }()
	store := NewKVStore()
	r, err := NewReplica(Config{
		Cluster: cfg, Self: 0,
		Signer: scheme.Signer(0), Verifier: scheme.Verifier(),
		Transport: net.Transport(0), App: store,
	})
	if err != nil {
		t.Fatal(err)
	}

	garbage := types.Value("garbage-not-a-batch-\xff\xff")
	r.mu.Lock()
	r.onDecideLocked(0, types.Decision{Value: garbage, View: 1, Path: types.FastPath})
	r.onDecideLocked(1, types.Decision{Value: nil, View: 1, Path: types.FastPath}) // no-op
	r.onDecideLocked(2, types.Decision{Value: EncodeBatch([]Command{
		Command(msg.Encode(&msg.Request{Client: "c", Seq: 1,
			Op: []byte(EncodeKV(KVCommand{Op: OpSet, Client: "c", Seq: 1, Key: "x", Value: "1"}))})),
	}), View: 1, Path: types.FastPath})
	r.mu.Unlock()

	if n := r.m.malformed.Load(); n != 1 {
		t.Fatalf("malformed=%d, want 1 (garbage counted once, no-op not counted)", n)
	}
	if n := r.AppliedCount(); n != 3 {
		t.Fatalf("applied slots=%d, want 3 (malformed and no-op slots still advance the log)", n)
	}
	if n := r.m.applied.Load(); n != 1 {
		t.Fatalf("applied commands=%d, want 1", n)
	}
	if n := r.m.decided.Load(); n != 3 {
		t.Fatalf("decided slots=%d, want 3", n)
	}
	if n := store.AppliedOps(); n != 1 {
		t.Fatalf("store applied %d ops, want 1", n)
	}
}

// ---------------------------------------------------------------------------
// Pending queue
// ---------------------------------------------------------------------------

func TestPendingQueueIndexedOps(t *testing.T) {
	q := newPendingQueue()
	mk := func(i int) Command { return Command(fmt.Sprintf("cmd-%03d", i)) }
	for i := 0; i < 10; i++ {
		if !q.PushBackAt(mk(i), 0) {
			t.Fatalf("fresh PushBackAt(%d) rejected", i)
		}
	}
	if q.PushBackAt(mk(3), 0) {
		t.Fatal("duplicate PushBackAt accepted")
	}
	if q.Len() != 10 {
		t.Fatalf("Len=%d, want 10", q.Len())
	}
	// O(1) middle removal preserves order of the rest.
	if !q.Remove(mk(4)) || q.Remove(mk(4)) {
		t.Fatal("Remove(middle) wrong")
	}
	if !q.Remove(mk(0)) || !q.Remove(mk(9)) {
		t.Fatal("Remove(ends) wrong")
	}
	// Front re-insertion models a returned chunk: it must come out first.
	if !q.PushFront(mk(4)) {
		t.Fatal("PushFront rejected")
	}
	got, _ := q.PopFrontTraced(3)
	want := []int{4, 1, 2}
	for i, w := range want {
		if !got[i].Equal(mk(w)) {
			t.Fatalf("PopFrontTraced[%d]=%q, want cmd-%03d", i, got[i], w)
		}
	}
	// Filter drops non-matching, keeps order.
	q.Filter(func(c Command) bool { return !c.Equal(mk(5)) && !c.Equal(mk(7)) })
	rest, _ := q.PopFrontTraced(10)
	wantRest := []int{3, 6, 8}
	if len(rest) != len(wantRest) {
		t.Fatalf("after Filter: %d entries, want %d", len(rest), len(wantRest))
	}
	for i, w := range wantRest {
		if !rest[i].Equal(mk(w)) {
			t.Fatalf("after Filter [%d]=%q, want cmd-%03d", i, rest[i], w)
		}
	}
	if q.Len() != 0 || q.head != nil || q.tail != nil {
		t.Fatal("queue not empty after draining")
	}
}

// BenchmarkPendingQueueRemove measures removal from a loaded queue — the
// operation the apply loop performs once per applied command. With the
// indexed queue it is O(1); the pre-index implementation scanned the whole
// queue (O(pending) per applied command, quadratic per applied batch).
func BenchmarkPendingQueueRemove(b *testing.B) {
	for _, size := range []int{64, 1024, 16384} {
		b.Run(fmt.Sprintf("queued=%d", size), func(b *testing.B) {
			cmds := make([]Command, size)
			for i := range cmds {
				cmds[i] = Command(fmt.Sprintf("bench-cmd-%06d", i))
			}
			q := newPendingQueue()
			for _, c := range cmds {
				q.PushBackAt(c, 0)
			}
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				c := cmds[i%size]
				q.Remove(c)
				q.PushBackAt(c, 0)
			}
		})
	}
}

// BenchmarkPendingQueueRemoveLinearScan is the pre-index baseline for
// comparison: the same workload against a plain slice with the old
// scan-and-shift removal.
func BenchmarkPendingQueueRemoveLinearScan(b *testing.B) {
	for _, size := range []int{64, 1024, 16384} {
		b.Run(fmt.Sprintf("queued=%d", size), func(b *testing.B) {
			cmds := make([]Command, size)
			for i := range cmds {
				cmds[i] = Command(fmt.Sprintf("bench-cmd-%06d", i))
			}
			pending := append([]Command(nil), cmds...)
			drop := func(cmd Command) {
				for i, p := range pending {
					if p.Equal(cmd) {
						pending = append(pending[:i], pending[i+1:]...)
						return
					}
				}
			}
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				c := cmds[i%size]
				drop(c)
				pending = append(pending, c)
			}
		})
	}
}
