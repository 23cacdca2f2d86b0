package smr

import (
	"fmt"
	"testing"
	"time"

	"repro/internal/msg"
	"repro/internal/types"
)

// The callback contract (see CommitFunc), on the simulator and with no
// wall-clock wait: OnCommit and replies leave a replica in one order —
// slot k's OnCommit, the replies of the requests slot k executed, slot k+1's
// OnCommit — after the replica lock, and a callback may call back in.

// checkHistory asserts the order invariants over one replica's callback
// history and returns how many replies it holds.
func checkHistory(t *testing.T, who string, events []callback) int {
	t.Helper()
	commits, replies := uint64(0), 0
	lastSeq := make(map[types.ClientID]uint64)
	for i, ev := range events {
		if ev.rep == nil {
			if ev.slot != commits {
				t.Fatalf("%s: event %d is OnCommit(%d), want slot %d (in order, none skipped)", who, i, ev.slot, commits)
			}
			commits++
			continue
		}
		replies++
		if ev.slot >= commits {
			t.Fatalf("%s: event %d is the reply to %s/%d from slot %d, before that slot's OnCommit", who, i, ev.rep.Client, ev.rep.Seq, ev.slot)
		}
		if ev.rep.Seq <= lastSeq[ev.rep.Client] {
			t.Fatalf("%s: reply to %s/%d delivered after the reply to seq %d", who, ev.rep.Client, ev.rep.Seq, lastSeq[ev.rep.Client])
		}
		lastSeq[ev.rep.Client] = ev.rep.Seq
	}
	return replies
}

// TestCallbacksLeaveInOrder runs closed-loop sessions whose next request is
// issued from inside the reply callback of the previous one — re-entering
// the replica that is delivering — under seeded jitter, so slots decide out
// of order. In memory every callback has run by the time the simulator
// returns; on disk (callbacks released by the store, after the fsync) by the
// time the disks are settled. A rebooted durable replica replays its log's
// commit notifications, in order, the moment it starts.
func TestCallbacksLeaveInOrder(t *testing.T) {
	for _, durable := range []bool{false, true} {
		t.Run(fmt.Sprintf("durable=%v", durable), func(t *testing.T) {
			cfg := types.Generalized(1, 1)
			const sessions, requests = 4, 6
			g := newSimGroup(t, cfg, 81, groupOpts{
				jitter: 2 * time.Millisecond, window: 8, maxBatch: 2, interval: 8, durable: durable,
			})
			// Session c talks to replica c mod n only, so that replica's
			// history holds the session's every reply.
			var issue func(c int, seq uint64)
			issue = func(c int, seq uint64) {
				p := types.ProcessID(c % cfg.N)
				id := types.ClientID(fmt.Sprintf("s%d", c))
				err := g.reps[p].HandleRequest(
					&msg.Request{Client: id, Seq: seq, Op: kvSetOp(fmt.Sprintf("s%d-%d", c, seq), "v")},
					func(rep *msg.Reply) {
						g.logs[p].reply(rep)
						if rep.Seq == seq && seq < requests {
							issue(c, seq+1)
						}
					})
				if err != nil {
					t.Errorf("session %d, request %d: %v", c, seq, err)
				}
			}
			for c := 0; c < sessions; c++ {
				issue(c, 1)
			}
			g.run(30*time.Second, g.applied(sessions*requests), "every session to finish")

			for p, r := range g.reps {
				events := g.logs[p].history()
				replies := checkHistory(t, fmt.Sprintf("replica %d", p), events)
				if commits := uint64(len(events) - replies); commits != r.AppliedCount() {
					t.Fatalf("replica %d: %d OnCommit callbacks for %d applied slots", p, commits, r.AppliedCount())
				}
				if replies != requests { // sessions == n: one session per replica
					t.Fatalf("replica %d delivered %d replies, want %d", p, replies, requests)
				}
			}
			if !durable {
				return
			}
			const p = types.ProcessID(2)
			if cp, ok := g.reps[p].StableCheckpoint(); ok && cp.Slot+1 >= g.reps[p].AppliedCount() {
				// A stable checkpoint at its last slot leaves the log no
				// decision to replay; one more write puts one past it.
				g.submitKVAll("extra", 0, -1)
				g.run(10*time.Second, g.applied(sessions*requests+1), "one more write")
			}
			applied := g.reps[p].AppliedCount()
			g.crash(p)
			r := g.reboot(p)
			if n := len(g.logs[p].history()); n != 0 {
				t.Fatalf("%d callbacks before the rebooted replica started", n)
			}
			if err := r.Start(); err != nil {
				t.Fatal(err)
			}
			g.settle()
			replayed := g.logs[p].snapshot()
			if len(replayed) == 0 || replayed[len(replayed)-1] != applied-1 {
				t.Fatalf("rebooted replica replayed commits %v, want them to end at slot %d", replayed, applied-1)
			}
			for i := 1; i < len(replayed); i++ {
				if replayed[i] != replayed[i-1]+1 {
					t.Fatalf("rebooted replica replayed commits out of order: %v", replayed)
				}
			}
		})
	}
}

// TestReplyCallbackMayReenter: a reply callback retransmits its own request
// (answered from the cache) and submits the session's next one, all from
// inside the callback. Nothing deadlocks, no callback runs inside another,
// and the replies arrive in the order they were caused.
func TestReplyCallbackMayReenter(t *testing.T) {
	cfg := types.Generalized(1, 1)
	g := newSimGroup(t, cfg, 82, groupOpts{})
	r := g.reps[0]
	const id = types.ClientID("re")
	var got []uint64
	depth := 0
	var reply ReplyFunc
	send := func(seq uint64) {
		if err := r.HandleRequest(&msg.Request{Client: id, Seq: seq, Op: kvSetOp(fmt.Sprint("k", seq), "v")}, reply); err != nil {
			t.Error(err)
		}
	}
	reply = func(rep *msg.Reply) {
		if depth++; depth != 1 {
			t.Errorf("reply to seq %d delivered inside another callback", rep.Seq)
		}
		got = append(got, rep.Seq)
		if len(got) == 1 {
			send(1) // retransmission: served from the reply cache
			send(2) // the next request
			if len(got) != 1 {
				t.Error("a reply caused inside a callback was delivered inside it")
			}
		}
		depth--
	}
	send(1)
	g.settle()
	if want := []uint64{1, 1, 2}; fmt.Sprint(got) != fmt.Sprint(want) {
		t.Fatalf("replies arrived as %v, want %v", got, want)
	}
}

// TestNoCallbackAfterClose: a replica closed with its requests still in
// flight delivers nothing afterwards, though the rest of the cluster goes on
// to decide them.
func TestNoCallbackAfterClose(t *testing.T) {
	cfg := types.Generalized(1, 1)
	g := newSimGroup(t, cfg, 83, groupOpts{window: 4})
	const p = types.ProcessID(0)
	for i := 0; i < 4; i++ {
		op := kvSetOp(fmt.Sprint("k", i), "v")
		if err := g.reps[p].HandleRequest(&msg.Request{Client: sessionID(i), Seq: 1, Op: op}, g.logs[p].reply); err != nil {
			t.Fatal(err)
		}
	}
	g.net.Run(g.net.Now(), func() bool { return g.reps[p].AppliedCount() > 0 }) // part of the way
	before := len(g.logs[p].history())
	if before == 0 || g.reps[p].AppliedCount() == 4 {
		t.Fatalf("test setup: want the replica closed mid-workload, it applied %d of 4 slots", g.reps[p].AppliedCount())
	}
	_ = g.reps[p].Close()
	g.reps[p] = nil
	g.settle()
	if !g.applied(4)() {
		t.Fatal("the survivors did not finish the workload")
	}
	if after := len(g.logs[p].history()); after != before {
		t.Fatalf("%d callbacks were delivered after Close returned", after-before)
	}
}
