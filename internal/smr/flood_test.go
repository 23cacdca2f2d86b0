package smr

import (
	"encoding/binary"
	"fmt"
	"testing"
	"time"

	"repro/internal/msg"
	"repro/internal/types"
)

// TestJunkAckFloodKeepsFastPath: a follower that floods the leader with
// junk Acks for the slot the next write takes must not push that slot off
// the fast path. n = 4 and n = 7, Δ = 1 ms; after one warm-up write, 20
// writes go one at a time to every replica, and before each one follower 0
// sends the leader 4096 Acks, each for a distinct 5-byte value, for the slot
// the write takes. When the tallies were keyed by value and stopped taking
// values at 4096 per instance, the junk took all of them before the leader
// proposed, so its own Ack and its peers' counted nowhere: the leader
// decided none of the 20 slots fast, and the slow path that decided them
// cost 160 AckSig and Commit frames at n = 4, 280 at n = 7. Now each
// sender's first Ack of a view is its one Ack there: the leader decides
// every slot fast, and no replica sends an AckSig or a Commit after the
// warm-up.
func TestJunkAckFloodKeepsFastPath(t *testing.T) {
	for _, cfg := range []types.Config{types.Generalized(1, 1), types.Generalized(2, 1)} {
		t.Run(fmt.Sprintf("n%d", cfg.N), func(t *testing.T) {
			const (
				writes  = 20
				flood   = 4096
				flooder = types.ProcessID(0)
			)
			g := newSimGroup(t, cfg, 66, groupOpts{delta: time.Millisecond})
			leaderID := cfg.Leader(1)
			leader := g.reps[leaderID]
			g.submitKVAll("c", 0, -1)
			g.run(10*time.Second, g.applied(1), "the warm-up write")
			slowFrames := func() (n uint64) {
				g.live(func(_ types.ProcessID, r *Replica) {
					n += r.m.msgOut[msg.KindAckSig].Load() + r.m.msgOut[msg.KindCommit].Load()
				})
				return n
			}
			warm, fastBefore := slowFrames(), leader.m.pathFast.Load()
			junk := make(types.Value, 5)
			for i := 1; i <= writes; i++ {
				leader.mu.Lock()
				s := leader.next
				leader.mu.Unlock()
				for j := 0; j < flood; j++ {
					junk[0] = 0xff
					binary.BigEndian.PutUint32(junk[1:], uint32(i*flood+j))
					frame := envelope(0, s, &msg.Ack{View: 1, X: junk})
					if err := g.net.Transport(flooder).Send(leaderID, frame); err != nil {
						t.Fatal(err)
					}
				}
				g.net.Advance(time.Millisecond)
				g.settle()
				g.submitKVAll("c", i, -1)
				g.run(10*time.Second, g.applied(uint64(i+1)), "a write")
			}
			if fast := leader.m.pathFast.Load() - fastBefore; fast != writes {
				t.Errorf("the leader decided %d of %d flooded slots fast", fast, writes)
			}
			if n := slowFrames() - warm; n != 0 {
				t.Errorf("%d AckSig and Commit frames after the warm-up, want 0", n)
			}
			g.live(func(p types.ProcessID, r *Replica) {
				if n := r.m.regime.Load(); n != 0 {
					t.Errorf("replica %s had %d regime timeouts", p, n)
				}
			})
		})
	}
}
