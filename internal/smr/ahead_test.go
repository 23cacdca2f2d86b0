package smr

import (
	"fmt"
	"testing"
	"time"

	"repro/internal/msg"
	"repro/internal/sim"
	"repro/internal/types"
)

// TestSkewedFollowerDecidesFast: n = 4, W = 8, Δ = 1 ms, 16 closed-loop
// sessions through the leader (process 1) at MaxBatch 1, and the links from
// the other two followers (0 and 2) to follower 3 lag by 1.5 to 100 ms more
// than the leader's. The leader's traffic for slot s+W then reaches 3 while
// its lowest undecided slot is still s: past its window. Up to 2W, held and
// replayed when the window slides, that traffic lets 3 decide every slot as
// its peers do, on the fast path (1.5 and 3 ms; dropped, it left 3 deciding
// nearly every slot slow, or stranded). Past 2W (5 ms and more, the cluster
// running some 4 slots per ms) 3 misses the leader's Propose for some slot,
// cannot ack it, and, every peer holding its AckSig, sees no slow path for
// it either: a regime fire's first stage asks its peers instead
// (easeStallLocked), the slot decides from f+1 matching state-transfer
// tails, and the frames that land past the window keep asking from then
// on. At 5 and 12 ms that keeps 3 within the decisions its peers retain, so
// it decides every slot itself, most of them from tails; at 100 ms it lags
// by more than a checkpoint interval's retained decisions and catches up by
// certified snapshots. At every skew it keeps up without suspecting the
// leader once. The test prints 3's FetchState count and holds it to the
// ceiling set when every held frame still fetched (the measured 303 plus
// 10 %).
func TestSkewedFollowerDecidesFast(t *testing.T) {
	for _, tc := range []struct {
		skew   time.Duration
		itself bool // 3 decides every slot itself, on any path
		fast   bool // ... and at least 98 % of all of them fast (below 2W)
	}{
		{1500 * time.Microsecond, true, true},
		{3 * time.Millisecond, true, true},
		{5 * time.Millisecond, true, false},
		{12 * time.Millisecond, true, false},
		{100 * time.Millisecond, false, false},
	} {
		t.Run(tc.skew.String(), func(t *testing.T) { testSkewedFollower(t, tc.skew, tc.itself, tc.fast) })
	}
}

func testSkewedFollower(t *testing.T, skew time.Duration, itself, fastShare bool) {
	cfg := types.Generalized(1, 1)
	const (
		delta    = time.Millisecond
		sessions = 16
		ops      = 2400 // one command per slot at MaxBatch 1
		lagger   = types.ProcessID(3)
	)
	g := newSimGroup(t, cfg, 93, groupOpts{delta: delta, window: 8, maxBatch: 1})
	leader := cfg.Leader(1)
	g.net.SetPayloadFunc(func(from, to types.ProcessID, _ []byte, _ sim.Time) sim.Fate {
		if to == lagger && from != leader {
			return sim.Fate{Delay: delta + skew}
		}
		return sim.Fate{Delay: delta}
	})
	var submit func(c int, seq uint64)
	sent := 0
	submit = func(c int, seq uint64) {
		if sent == ops {
			return
		}
		sent++
		req := &msg.Request{Client: types.ClientID(fmt.Sprintf("s%d", c)), Seq: seq,
			Op: kvSetOp(fmt.Sprintf("s%d-%d", c, seq), "v")}
		if err := g.reps[leader].HandleRequest(req, func(*msg.Reply) { submit(c, seq+1) }); err != nil {
			t.Error(err)
		}
	}
	for c := 0; c < sessions; c++ {
		submit(c, 1)
	}
	g.run(30*time.Second, g.applied(ops), "every closed-loop request to apply")
	m := &g.reps[lagger].m
	fast, slow, xfer := m.pathFast.Load(), m.pathSlow.Load(), m.pathXfer.Load()
	// The fast share is of every slot 3 decided itself: a slot it could
	// only learn from state-transfer tails counts against it, as a slow one.
	share := float64(fast) / float64(fast+slow+xfer)
	fetches, regime := m.msgOut[msg.KindFetchState].Load(), m.regime.Load()
	t.Logf("replica %d: %d slots decided fast, %d slow, %d from state-transfer tails, %d by snapshot; %d FetchStates sent, %d regime timeouts",
		lagger, fast, slow, xfer, ops-int(fast+slow+xfer), fetches, regime)
	const maxFetches = 333
	if fetches > maxFetches {
		t.Fatalf("replica %d sent %d FetchStates, ceiling %d", lagger, fetches, maxFetches)
	}
	if regime != 0 {
		t.Fatalf("replica %d suspected the leader %d times", lagger, regime)
	}
	if itself && fast+slow+xfer < ops {
		t.Fatalf("replica %d decided %d of %d slots itself; the rest came by snapshot", lagger, fast+slow+xfer, ops)
	}
	if fastShare && share < 0.98 {
		t.Fatalf("replica %d decided %d slots fast, %d slow and %d from tails (fast share %.4f), want at least 0.98 fast", lagger, fast, slow, xfer, share)
	}
	// Every held message was replayed once its slot came into the window.
	r := g.reps[lagger]
	r.mu.Lock()
	defer r.mu.Unlock()
	for p, n := range r.aheadFrames {
		if n != 0 || r.aheadBytes[p] != 0 {
			t.Errorf("sender %d: %d messages (%d bytes) still held", p, n, r.aheadBytes[p])
		}
	}
	if len(r.ahead) != 0 {
		t.Errorf("%d messages still held after the last slot applied", len(r.ahead))
	}
}

// TestAheadBufferBounded: a peer flooding a replica with messages for the
// slots just past its window parks at most aheadFramesPerSlot·W of them and
// at most maxAheadBytes, whatever it sends; messages for slots further out
// are not held at all; and one sender's flood leaves the other senders'
// share untouched.
func TestAheadBufferBounded(t *testing.T) {
	cfg := types.Generalized(1, 1)
	const w = 8
	g := newSimGroup(t, cfg, 94, groupOpts{delta: time.Millisecond, window: w})
	r := g.reps[3]
	held := func(from types.ProcessID) (frames, bytes int) {
		r.mu.Lock()
		defer r.mu.Unlock()
		return r.aheadFrames[from], r.aheadBytes[from]
	}
	ack := func(s uint64, x types.Value) []byte { return envelope(0, s, &msg.Ack{View: 1, X: x}) }

	// Small frames: the frame bound binds.
	for i := 0; i < 20*aheadFramesPerSlot*w; i++ {
		r.onPayload(2, ack(uint64(w+i%w), types.Value(fmt.Sprintf("x%d", i))))
	}
	if frames, _ := held(2); frames != aheadFramesPerSlot*w {
		t.Fatalf("sender 2 holds %d frames past the window, bound %d", frames, aheadFramesPerSlot*w)
	}
	// Large frames: the byte bound binds.
	big := make(types.Value, 64<<10)
	for i := 0; i < 4*maxAheadBytes/len(big); i++ {
		r.onPayload(0, ack(uint64(w+i%w), big))
	}
	if frames, bytes := held(0); bytes > maxAheadBytes || frames == 0 {
		t.Fatalf("sender 0 holds %d frames of %d bytes past the window, bound %d bytes", frames, bytes, maxAheadBytes)
	}
	// Slots a second window out are not held.
	for i := 0; i < 10; i++ {
		r.onPayload(1, ack(uint64(2*w+i), types.Value("far")))
	}
	if frames, _ := held(1); frames != 0 {
		t.Fatalf("%d frames for slots at or past next+2W held", frames)
	}
	// The flood of 0 and 2 leaves sender 1 its share.
	r.onPayload(1, ack(w, types.Value("y")))
	if frames, _ := held(1); frames != 1 {
		t.Fatalf("sender 1 holds %d frames after one in-range frame, want 1", frames)
	}
	r.mu.Lock()
	total := len(r.ahead)
	r.mu.Unlock()
	if f0, _ := held(0); total != aheadFramesPerSlot*w+f0+1 {
		t.Fatalf("%d frames held in all, want the per-sender counts' sum %d", total, aheadFramesPerSlot*w+f0+1)
	}
}

// TestRestartedReplicaCatchesUpFromHeldFrames: a replica restarted with
// nothing catches up from the frames it holds past its window. n = 4, W = 8,
// Δ = 1 ms: replica 3 crashes after 3 writes, the others apply 12 more, and
// 3 comes back empty, its window at slots 0–7. The next write's traffic,
// for slot 15, lands past that window but within two of it: 3 holds it, and,
// no slot of its window having an ack of its own, asks the senders for
// state at once. The state-transfer tails decide slots 0–14, the window
// slides over slot 15, and the held Propose and Acks decide it there on the
// fast path. Every later write 3 decides as its peers do, without a regime
// timeout anywhere, and nothing stays held.
func TestRestartedReplicaCatchesUpFromHeldFrames(t *testing.T) {
	cfg := types.Generalized(1, 1)
	const (
		before   = 3
		down     = 12
		after    = 5
		restarts = types.ProcessID(3)
	)
	// held is the most messages the restarted replica held past its window
	// when a frame reached it: the trace runs before each delivery.
	var r *Replica
	held := 0
	trace := func(ev sim.TraceEvent) {
		if r != nil && ev.To == restarts {
			r.mu.Lock()
			held = max(held, len(r.ahead))
			r.mu.Unlock()
		}
	}
	g := newSimGroup(t, cfg, 95, groupOpts{delta: time.Millisecond, window: 8, trace: trace})
	write := func(i int) {
		g.submitKVAll("c", i, -1)
		g.run(10*time.Second, g.applied(uint64(i+1)), "a write")
	}
	for i := 0; i < before; i++ {
		write(i)
	}
	g.crash(restarts)
	for i := before; i < before+down; i++ {
		write(i)
	}
	r = g.reboot(restarts)
	if err := r.Start(); err != nil {
		t.Fatal(err)
	}
	for i := before + down; i < before+down+after; i++ {
		write(i)
	}
	if held == 0 {
		t.Fatal("the restarted replica held no frame past its window: the test exercises nothing")
	}
	m := &r.m
	if xfer := m.pathXfer.Load(); xfer != before+down {
		t.Errorf("the restarted replica learned %d slots from tails, want the %d it missed", xfer, before+down)
	}
	if fast := m.pathFast.Load(); fast != after {
		t.Errorf("the restarted replica decided %d slots fast, want the %d written after its restart", fast, after)
	}
	g.live(func(p types.ProcessID, rep *Replica) {
		if n := rep.m.regime.Load(); n != 0 {
			t.Errorf("replica %s had %d regime timeouts", p, n)
		}
	})
	r.mu.Lock()
	defer r.mu.Unlock()
	if len(r.ahead) != 0 {
		t.Errorf("%d messages still held", len(r.ahead))
	}
}
