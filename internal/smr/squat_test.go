package smr

import (
	"fmt"
	"testing"
	"time"

	"repro/internal/msg"
	"repro/internal/types"
)

// TestSlotSquattingKeepsFastPath: a follower's junk Ack for a slot the
// leader has not filled yet opens the leader's instance for that slot, and
// the leader must still feed it its next chunk. n = 4 and n = 7, Δ = 1 ms,
// W = 8; 40 writes go one at a time to every replica, and 1Δ before each one
// follower 0 sends the leader an unsigned junk Ack for every slot of the
// leader's window past the one the write takes. When the fill skipped a slot
// that a peer's frame had opened, each squatted slot sat silent in view 1
// until the regime timer gave up on the leader: the writes took 1.45 s of
// virtual time instead of 80 ms, with 39 regime timeouts at each follower
// (117 at n = 4, 234 at n = 7) and 39 view changes at every replica. Now they
// take exactly as long as without the junk, and nobody suspects the leader.
func TestSlotSquattingKeepsFastPath(t *testing.T) {
	for _, cfg := range []types.Config{types.Generalized(1, 1), types.Generalized(2, 1)} {
		t.Run(fmt.Sprintf("n%d", cfg.N), func(t *testing.T) {
			fault, faultFree := squatWrites(t, cfg, true), squatWrites(t, cfg, false)
			if fault != faultFree {
				t.Fatalf("40 writes took %v of virtual time with the junk Acks, %v without", fault, faultFree)
			}
		})
	}
}

// squatWrites runs the 40 writes of TestSlotSquattingKeepsFastPath, with or
// without the junk Acks, checks that no replica timed out or changed view,
// and returns how much virtual time the writes took, the 1Δ of junk
// delivery ahead of each left out.
func squatWrites(t *testing.T, cfg types.Config, squat bool) time.Duration {
	t.Helper()
	const (
		writes   = 40
		squatter = types.ProcessID(0)
	)
	g := newSimGroup(t, cfg, 64, groupOpts{delta: time.Millisecond})
	leaderID := cfg.Leader(1)
	leader := g.reps[leaderID]
	w := uint64(leader.cfg.WindowSize)
	var took time.Duration
	for i := 0; i < writes; i++ {
		if squat {
			leader.mu.Lock()
			next := leader.next
			leader.mu.Unlock()
			for s := next + 1; s < next+w; s++ {
				frame := envelope(0, s, &msg.Ack{View: 1, X: types.Value("junk")})
				if err := g.net.Transport(squatter).Send(leaderID, frame); err != nil {
					t.Fatal(err)
				}
			}
		}
		g.net.Advance(time.Millisecond)
		g.settle()
		start := g.net.Now()
		g.submitKVAll("c", i, -1)
		g.run(10*time.Second, g.applied(uint64(i+1)), "a write")
		took += g.net.Now() - start
	}
	g.live(func(p types.ProcessID, r *Replica) {
		if n := r.m.regime.Load(); n != 0 {
			t.Errorf("squat=%v: replica %s had %d regime timeouts", squat, p, n)
		}
		if n := g.viewChanges(p); n != 0 {
			t.Errorf("squat=%v: replica %s changed view %v times", squat, p, n)
		}
	})
	return took
}

// TestIdleJunkFrameSuspectsNobody: one junk frame for an idle window slot
// must not make an idle group suspect its correct leader. n = 4, Δ = 1 ms:
// after 3 writes (slots 0–2) follower 0 sends the leader one unsigned junk
// Ack for slot 5. When an undecided instance that only a peer's frame had
// opened counted as outstanding work, the leader's regime timer fired on it,
// its Wishes opened the slots at the followers, their timers followed, and
// every replica timed out once and counted 3 view changes, deciding slots
// 3–5 as no-ops. Now nobody times out, and the next write decides at slot 3.
func TestIdleJunkFrameSuspectsNobody(t *testing.T) {
	cfg := types.Generalized(1, 1)
	g := newSimGroup(t, cfg, 65, groupOpts{delta: time.Millisecond})
	leaderID := cfg.Leader(1)
	for i := 0; i < 3; i++ {
		g.submitKVAll("c", i, -1)
		g.run(10*time.Second, g.applied(uint64(i+1)), "a write")
	}
	frame := envelope(0, 5, &msg.Ack{View: 1, X: types.Value("junk")})
	if err := g.net.Transport(0).Send(leaderID, frame); err != nil {
		t.Fatal(err)
	}
	g.net.Advance(5 * time.Second)
	g.settle()
	g.submitKVAll("c", 3, -1)
	g.run(10*time.Second, g.applied(4), "the write after the junk frame")
	g.live(func(p types.ProcessID, r *Replica) {
		if n := r.m.regime.Load(); n != 0 {
			t.Errorf("replica %s had %d regime timeouts", p, n)
		}
		if n := g.viewChanges(p); n != 0 {
			t.Errorf("replica %s changed view %v times", p, n)
		}
		r.mu.Lock()
		next := r.next
		r.mu.Unlock()
		if next != 4 {
			t.Errorf("replica %s decided slots up to %d after 4 writes, want 3", p, next-1)
		}
	})
}

// TestIdleJunkAheadFrameSuspectsNobody is TestIdleJunkFrameSuspectsNobody
// with the junk Ack past the leader's window: after 3 writes (slots 0–2)
// follower 0 sends the leader one unsigned junk Ack for slot next+W+2,
// which the leader holds for replay when its window gets there. When every
// held message counted as outstanding work, whoever sent it, the one junk
// frame kept the idle leader's regime timer firing: 7 regime timeouts in
// the 5 s the group then idled. Now held messages are work only once two
// senders hold some, as an instance in the window is only once two peers'
// frames reached it (slot.lone): nobody times out or changes view, and the
// next write decides at slot 3.
func TestIdleJunkAheadFrameSuspectsNobody(t *testing.T) {
	cfg := types.Generalized(1, 1)
	g := newSimGroup(t, cfg, 67, groupOpts{delta: time.Millisecond})
	leaderID := cfg.Leader(1)
	leader := g.reps[leaderID]
	for i := 0; i < 3; i++ {
		g.submitKVAll("c", i, -1)
		g.run(10*time.Second, g.applied(uint64(i+1)), "a write")
	}
	leader.mu.Lock()
	s := leader.next + uint64(leader.cfg.WindowSize) + 2
	leader.mu.Unlock()
	frame := envelope(0, s, &msg.Ack{View: 1, X: types.Value("junk")})
	if err := g.net.Transport(0).Send(leaderID, frame); err != nil {
		t.Fatal(err)
	}
	g.net.Advance(5 * time.Second)
	g.settle()
	leader.mu.Lock()
	held := len(leader.ahead)
	leader.mu.Unlock()
	if held != 1 {
		t.Fatalf("the leader holds %d messages past its window, want the junk Ack", held)
	}
	g.submitKVAll("c", 3, -1)
	g.run(10*time.Second, g.applied(4), "the write after the junk frame")
	g.live(func(p types.ProcessID, r *Replica) {
		if n := r.m.regime.Load(); n != 0 {
			t.Errorf("replica %s had %d regime timeouts", p, n)
		}
		if n := g.viewChanges(p); n != 0 {
			t.Errorf("replica %s changed view %v times", p, n)
		}
		r.mu.Lock()
		next := r.next
		r.mu.Unlock()
		if next != 4 {
			t.Errorf("replica %s decided slots up to %d after 4 writes, want 3", p, next-1)
		}
	})
}
