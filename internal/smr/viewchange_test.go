package smr

import (
	"testing"
	"time"

	"repro/internal/msg"
	"repro/internal/sim"
	"repro/internal/types"
)

// Tests of the windowed view change and the regime timer: the orphan-slot
// regression (a stranded command must resolve through the adaptive regime
// timer, not a full BaseTimeout), timer hygiene across Close, and the
// adaptive suspicion delay shrinking back after a leader failure heals.

// TestSMROrphanSlotResolvesViaWindowedViewChange is the regression test for
// the orphan-slot hazard (ROADMAP item 4). The durability-skew shape: a
// client command reaches every replica except the view-1 leader (the client
// skips it, and the followers' relays to it are parked), so the leader never
// proposes a slot for it. The old
// code had every follower speculatively open the slot with its own chunk
// and then sit on the full per-slot BaseTimeout before a view change could
// rescue it — with the 2s timeout below, resolution took >= 2s. Under
// leader-driven fill plus the adaptive regime timer, no orphan instance
// exists: the suspicion delay has shrunk toward the observed decide latency
// (floor BaseTimeout/16), the whole window changes view in one step, and
// the view-change leader grafts the stranded command onto its proposal —
// so the command must apply in strictly less than one BaseTimeout of
// virtual time, and no sooner than the adapted suspicion delay.
func TestSMROrphanSlotResolvesViaWindowedViewChange(t *testing.T) {
	cfg := types.Generalized(1, 1)
	const base = 2 * time.Second
	g := newSimGroup(t, cfg, 81, groupOpts{delta: time.Millisecond, base: base, window: 4})
	reps := g.reps
	leader := cfg.Leader(1)

	// Warm up through the leader: a few ordinary decides seed the latency
	// EWMA on every replica, which is what arms the fast suspicion.
	const warm = 3
	for i := 0; i < warm; i++ {
		submitKV(t, reps[leader], "warm", i)
		g.run(time.Second, g.applied(uint64(i+1)), "a warm-up op to apply")
	}
	// Decides take a few milliseconds, so 4·EWMA sits below the floor.
	const adapted = base / 16
	for i, r := range reps {
		if got := suspicionDelay(r); got != adapted {
			t.Fatalf("replica %d suspicion delay %v after warm-up, want the floor %v", i, got, adapted)
		}
	}

	// Durability skew: the leader stops hearing relays, and the client
	// reaches every replica but the leader. The command is now pending on
	// every replica but the one that could propose it in view 1.
	g.net.SetPayloadFunc(func(_, to types.ProcessID, payload []byte, _ sim.Time) sim.Fate {
		s, ok := payloadSlot(payload)
		return sim.Fate{Delay: g.opts.delta, Hold: ok && s == ctrlSlot && to == leader}
	})
	start := g.net.Now()
	g.submitKVAll("orphan", 100, leader)
	g.run(30*time.Second, g.applied(warm+1), "the stranded command to apply everywhere")
	elapsed := g.net.Now() - start

	if elapsed >= base {
		t.Fatalf("stranded command took %v to resolve, want < BaseTimeout %v (the orphan-slot stall)", elapsed, base)
	}
	if elapsed < adapted {
		t.Fatalf("stranded command resolved after %v, before the suspicion delay %v could fire", elapsed, adapted)
	}
	// The slot that carried it cannot have been proposed by the view-1
	// leader — it never saw the command — so it must be a view-change
	// decision.
	d, ok := reps[0].Decided(warm)
	if !ok {
		t.Fatalf("slot %d undecided after the stranded command applied", warm)
	}
	if d.View < 2 {
		t.Fatalf("slot %d decided in view %d; the uninformed leader cannot have proposed it", warm, d.View)
	}
	entered := 0
	for i, r := range reps {
		if err := r.inflightInvariantErr(); err != nil {
			t.Fatal(err)
		}
		// Every replica whose instance of the slot entered view 2 counted it
		// (fastbft_view_changes_total, which the kv-failover gate reads).
		if sl, ok := r.slots[warm]; ok && sl.proc.View() >= 2 {
			entered++
			if vc := g.viewChanges(types.ProcessID(i)); vc < 1 {
				t.Fatalf("replica %d entered view %s of slot %d but counted %v view changes", i, sl.proc.View(), warm, vc)
			}
		}
	}
	if entered < cfg.N-cfg.F {
		t.Fatalf("%d replicas hold slot %d in view ≥ 2, want at least n − f = %d", entered, warm, cfg.N-cfg.F)
	}
}

// TestSMRRegimeTimerNoFireAfterClose pins the unsampled timer's schedule
// and its hygiene. A replica is parked in the suspicious state (work
// outstanding, every message held, no decide ever observed): the first
// suspicion must fire exactly one BaseTimeout after the work arrived, and
// each fruitless fire doubles the next delay, up to 64×. Then Close must
// stop the timer for good: however far time advances, the suspicion counter
// never moves again — a leaked timer firing into a closed replica is
// exactly the kind of use-after-close the race detector sees only if the
// fire actually happens.
func TestSMRRegimeTimerNoFireAfterClose(t *testing.T) {
	cfg := types.Generalized(1, 1)
	const base = 30 * time.Millisecond
	g := newSimGroup(t, cfg, 82, groupOpts{base: base, window: 4})
	reps := g.reps

	g.net.SetPayloadFunc(func(_, _ types.ProcessID, _ []byte, _ sim.Time) sim.Fate {
		return sim.Fate{Hold: true}
	})
	submitKV(t, reps[0], "hygiene", 1)
	for fires, delay := uint64(0), time.Duration(base); fires < 9; fires++ {
		if got := suspicionDelay(reps[0]); got != delay {
			t.Fatalf("after %d fruitless fires the suspicion delay is %v, want %v", fires, got, delay)
		}
		g.net.Advance(delay - 1)
		if got := reps[0].m.regime.Load(); got != fires {
			t.Fatalf("suspicion %d fired early: %d fires one tick before its %v delay elapsed", fires+1, got, delay)
		}
		g.net.Advance(1)
		if got := reps[0].m.regime.Load(); got != fires+1 {
			t.Fatalf("suspicion %d did not fire when its %v delay elapsed (%d fires)", fires+1, delay, got)
		}
		if delay < 64*base {
			delay *= 2
		}
	}

	for _, r := range reps {
		_ = r.Close()
	}
	fired := make([]uint64, len(reps))
	for i, r := range reps {
		fired[i] = r.m.regime.Load()
	}
	g.net.Advance(200 * base) // past the backed-off cap: a leaked timer would fire here
	for i, r := range reps {
		if got := r.m.regime.Load(); got != fired[i] {
			t.Fatalf("replica %d regime timer fired after Close: %d -> %d suspicions", i, fired[i], got)
		}
	}
}

// TestSMRRegimeTimerShrinksAfterRecovery drives the adaptive timeout
// through its whole arc: it is clamp(4·EWMA, max(base/16, 20ms), base) once
// ordinary decides seed the EWMA, the leader's death is detected
// (suspicions fire, commands keep committing through the windowed view
// change), and after the cluster settles into the post-leader regime the
// delay shrinks back down — frontier movement resets the backoff — instead
// of sticking at the backed-off cap.
func TestSMRRegimeTimerShrinksAfterRecovery(t *testing.T) {
	cfg := types.Generalized(1, 1)
	const base = 320 * time.Millisecond
	g := newSimGroup(t, cfg, 83, groupOpts{delta: 5 * time.Millisecond, base: base, window: 8, maxBatch: 4})
	reps := g.reps
	leader := cfg.Leader(1)

	// regimeDelay reads the policy with the EWMA and backoff forced.
	regimeDelay := func(ewma time.Duration, backoff uint) time.Duration {
		r := reps[0]
		r.mu.Lock()
		defer r.mu.Unlock()
		oldE, oldB := r.ewmaDecide, r.regimeBackoff
		defer func() { r.ewmaDecide, r.regimeBackoff = oldE, oldB }()
		r.ewmaDecide, r.regimeBackoff = ewma, backoff
		return r.regimeDelayLocked()
	}
	for _, tc := range []struct {
		ewma    time.Duration
		backoff uint
		want    time.Duration
	}{
		{0, 0, base}, // unsampled: the full base
		{time.Millisecond, 0, 20 * time.Millisecond},           // below the floor max(base/16, 20ms)
		{10 * time.Millisecond, 0, 40 * time.Millisecond},      // 4·EWMA
		{200 * time.Millisecond, 0, base},                      // capped at base
		{10 * time.Millisecond, 3, 320 * time.Millisecond},     // doubled per fruitless fire
		{10 * time.Millisecond, 9, 64 * 40 * time.Millisecond}, // ... up to 64×
	} {
		if got := regimeDelay(tc.ewma, tc.backoff); got != tc.want {
			t.Fatalf("regime delay with EWMA %v, backoff %d = %v, want %v", tc.ewma, tc.backoff, got, tc.want)
		}
	}

	const warm = 8
	for i := 0; i < warm; i++ {
		submitKV(t, reps[0], "shrink", i)
		g.run(time.Second, g.applied(uint64(i+1)), "a warm-up op to apply")
	}
	// A follower opens the instance when the proposal arrives and decides
	// one message delay later, when the acks do: its EWMA is exactly Δ.
	if got := suspicionDelay(reps[0]); got != 20*time.Millisecond {
		t.Fatalf("suspicion delay %v after %d decides of 5ms each, want 4·EWMA = the 20ms floor", got, warm)
	}

	// Kill the view-1 leader. Every further command, submitted to every
	// survivor, must ride the windowed view change: suspicion fires at the
	// adapted delay, the new leader grafts the stranded commands, and each
	// decide re-feeds the EWMA.
	g.crash(leader)
	const post = 8
	for i := warm; i < warm+post; i++ {
		g.submitKVAll("shrink", i, -1)
		g.run(10*time.Second, g.applied(uint64(i+1)), "a post-kill op to commit through the view change")
	}
	fires := reps[0].m.regime.Load()
	if fires == 0 {
		t.Fatal("no regime suspicion fired while committing past a dead leader")
	}
	// The delay must have come back down: progress resets the backoff and
	// fresh decides pull the EWMA toward the real latency, so the replica
	// is not stuck paying a backed-off timeout per slot forever.
	if delay := suspicionDelay(reps[0]); delay > base/2 {
		t.Fatalf("suspicion delay %v stuck high after recovery (base %v, %d suspicions)", delay, base, fires)
	}
	reps[0].mu.Lock()
	backoff := reps[0].regimeBackoff
	reps[0].mu.Unlock()
	if backoff != 0 {
		t.Fatalf("backoff %d survived frontier movement; progress must reset it", backoff)
	}
}

// TestRequestRelayFromFollowersOnly: a client that skips the view-1 leader —
// a Byzantine one, or one that cannot reach it — cannot make the followers
// suspect a correct leader. Each follower relays the request to Leader(1)
// once, so the op applies one hop later than the two-step fast path (relay,
// Propose, Ack: 3Δ), in view 1, and no replica's regime timer ever fires.
func TestRequestRelayFromFollowersOnly(t *testing.T) {
	cfg := types.Generalized(1, 1)
	const delta = time.Millisecond
	const base = 100 * time.Millisecond
	g := newSimGroup(t, cfg, 84, groupOpts{delta: delta, base: base, window: 4})
	leader := cfg.Leader(1)

	const warm = 3
	for i := 0; i < warm; i++ {
		g.submitKVAll("warm", i, -1)
		g.run(time.Second, g.applied(uint64(i+1)), "a warm-up op to apply")
	}
	g.submitKVAll("skip", warm, leader)
	g.run(3*delta, g.applied(warm+1), "the op its client sent to the followers only to apply")
	g.net.Advance(64 * base) // past any backed-off suspicion

	if d, ok := g.reps[leader].Decided(warm); !ok || d.View != 1 {
		t.Fatalf("slot %d: decision %+v (ok=%v), want one in view 1", warm, d, ok)
	}
	g.live(func(p types.ProcessID, r *Replica) {
		if n := r.m.regime.Load(); n != 0 {
			t.Errorf("replica %s suspected the correct leader %d times", p, n)
		}
		if n := g.viewChanges(p); n != 0 {
			t.Errorf("replica %s counted %v view changes", p, n)
		}
	})
}

// TestWishForDecidedSlotIsDropped: a Wish or Vote for a slot the replica
// already decided is dropped on arrival. The decided instance lingers for
// stragglers, and without the drop a late or replayed view change would move
// it into a new view and count one more slot view change for nothing.
func TestWishForDecidedSlotIsDropped(t *testing.T) {
	cfg := types.Generalized(1, 1)
	g := newSimGroup(t, cfg, 83, groupOpts{delta: time.Millisecond})
	submitKV(t, g.reps[cfg.Leader(1)], "c", 0)
	g.run(time.Second, g.applied(1), "the op to apply")
	r := g.reps[0]
	if _, ok := r.Decided(0); !ok {
		t.Fatal("slot 0 undecided on replica 0")
	}
	// 2f + 1 wishes would make a live instance enter view 2.
	for p := 1; p < cfg.N; p++ {
		r.onPayload(types.ProcessID(p), envelope(0, 0, &msg.Wish{View: 2}))
	}
	g.settle()
	if got := g.viewChanges(0); got != 0 {
		t.Fatalf("%v slot view changes after wishes for a decided slot, want 0", got)
	}
}
