package smr

import (
	"fmt"
	"testing"
	"time"

	"repro/internal/msg"
	"repro/internal/types"
)

// execReq submits one client request through replica r of group g, runs the
// simulation until r has executed it, and returns r's reply.
func execReq(t *testing.T, g *simGroup, r *Replica, id types.ClientID, seq uint64, op []byte) *msg.Reply {
	t.Helper()
	ch := make(chan *msg.Reply, 4)
	err := r.HandleRequest(&msg.Request{Client: id, Seq: seq, Op: op},
		func(rep *msg.Reply) { ch <- rep })
	if err != nil {
		t.Fatal(err)
	}
	g.run(10*time.Second, func() bool {
		got, ok := r.SessionSeq(id)
		return ok && got >= seq
	}, fmt.Sprintf("execution of %s/%d", id, seq))
	if len(ch) == 0 {
		t.Fatalf("%s/%d executed without a reply", id, seq)
	}
	return <-ch
}

func kvSetOp(key, value string) []byte {
	return EncodeKV(KVCommand{Op: OpSet, Key: key, Value: value})
}

// TestSessionTableStaysBoundedAcrossCheckpoints is the memory-boundedness
// property the session subsystem exists for: after many checkpoint intervals
// of traffic from a fixed set of clients, the dedup structure holds O(active
// clients) entries — not O(total commands executed) — and a retransmitted
// committed request is answered from the reply cache without a second apply.
func TestSessionTableStaysBoundedAcrossCheckpoints(t *testing.T) {
	cfg := types.Generalized(1, 1)
	const interval = 2
	const clients = 3
	const rounds = 8 // commands per client: 24 slots >= 10 checkpoint intervals
	g := newSimGroup(t, cfg, 51, groupOpts{jitter: testJitter, interval: interval})
	reps, stores := g.reps, g.stores

	var lastReply *msg.Reply
	total := 0
	for round := 0; round < rounds; round++ {
		for c := 0; c < clients; c++ {
			id := types.ClientID(fmt.Sprintf("client-%d", c))
			key := fmt.Sprintf("k%d-%d", c, round)
			rep := execReq(t, g, reps[0], id, uint64(round+1), kvSetOp(key, "v"))
			if rep.Seq != uint64(round+1) {
				t.Fatalf("reply seq %d, want %d", rep.Seq, round+1)
			}
			lastReply = rep
			total++
		}
	}
	g.run(10*time.Second, g.applied(uint64(total)), "all replicas to apply all commands")
	if applied := reps[0].AppliedCount(); applied < 10*interval {
		t.Fatalf("only %d slots applied; the test needs >= %d (10 checkpoint intervals)",
			applied, 10*interval)
	}

	// O(active clients), not O(total commands): after 24 executed commands
	// each replica may hold at most the three live sessions.
	for i, r := range reps {
		if n := r.SessionCount(); n > clients {
			t.Errorf("replica %d holds %d sessions after %d commands, want <= %d",
				i, n, total, clients)
		}
	}

	// Retransmit the last committed request: the reply must come from the
	// cache — same slot, same result — with no second apply anywhere.
	before := make([]uint64, len(stores))
	for i, st := range stores {
		before[i] = st.AppliedOps()
	}
	id := types.ClientID(fmt.Sprintf("client-%d", clients-1))
	again := execReq(t, g, reps[0], id, uint64(rounds), kvSetOp(fmt.Sprintf("k%d-%d", clients-1, rounds-1), "v"))
	if again.Slot != lastReply.Slot || string(again.Result) != string(lastReply.Result) {
		t.Fatalf("cached reply mismatch: got slot=%d result=%q, want slot=%d result=%q",
			again.Slot, again.Result, lastReply.Slot, lastReply.Result)
	}
	g.net.Advance(100 * time.Millisecond) // a re-execution would need network time
	for i, st := range stores {
		if st.AppliedOps() != before[i] {
			t.Errorf("replica %d re-applied a retransmitted request (%d -> %d ops)",
				i, before[i], st.AppliedOps())
		}
	}
	if n := reps[0].PendingCount(); n != 0 {
		t.Errorf("retransmission left %d commands pending", n)
	}
}

// TestSessionPruningDropsInactiveClients: a client that stops submitting is
// pruned after sessionRetentionIntervals checkpoint intervals, on every
// replica identically (the rule is part of the replicated state).
func TestSessionPruningDropsInactiveClients(t *testing.T) {
	cfg := types.Generalized(1, 1)
	const interval = 2
	g := newSimGroup(t, cfg, 52, groupOpts{jitter: testJitter, interval: interval})
	reps := g.reps

	// The ghost client executes once, then disappears.
	execReq(t, g, reps[0], "ghost", 1, kvSetOp("g", "1"))

	// A persistent client drives traffic well past the retention horizon.
	const ops = 4 * interval * sessionRetentionIntervals
	for i := 1; i <= ops; i++ {
		execReq(t, g, reps[0], "steady", uint64(i), kvSetOp(fmt.Sprintf("s%d", i), "v"))
	}
	g.run(10*time.Second, g.applied(ops+1), "all replicas to apply all commands")
	g.run(10*time.Second, func() bool {
		for _, r := range reps {
			if _, ok := r.SessionSeq("ghost"); ok {
				return false
			}
		}
		return true
	}, "ghost session to be pruned on every replica")
	for i, r := range reps {
		if _, ok := r.SessionSeq("steady"); !ok {
			t.Errorf("replica %d pruned the active client's session", i)
		}
	}
}

// TestStaleRequestNeverEntersProposalBatch is the Byzantine-client guard: a
// request at or below the session high-water mark is rejected before it is
// queued for proposal, so replays cannot bloat batches (or spin up slots).
func TestStaleRequestNeverEntersProposalBatch(t *testing.T) {
	cfg := types.Generalized(1, 1)
	g := newSimGroup(t, cfg, 53, groupOpts{jitter: testJitter})
	reps, stores := g.reps, g.stores

	rep := execReq(t, g, reps[0], "mallory", 3, kvSetOp("m", "1"))
	if rep.Seq != 3 {
		t.Fatalf("reply seq %d, want 3", rep.Seq)
	}
	slots := reps[0].AppliedCount()

	// Replays at and below the high-water mark: never queued.
	for _, seq := range []uint64{3, 2, 1} {
		if err := reps[0].HandleRequest(&msg.Request{
			Client: "mallory", Seq: seq, Op: kvSetOp("m", "evil"),
		}, nil); err != nil {
			t.Fatal(err)
		}
		if n := reps[0].PendingCount(); n != 0 {
			t.Fatalf("stale seq %d entered the pending queue (%d pending)", seq, n)
		}
	}
	g.net.Advance(100 * time.Millisecond)
	if got := reps[0].AppliedCount(); got != slots {
		t.Fatalf("stale requests advanced the log from %d to %d slots", slots, got)
	}
	if n := stores[0].AppliedOps(); n != 1 {
		t.Fatalf("stale requests re-executed: %d ops applied", n)
	}
	if v, _ := stores[0].Get("m"); v != "1" {
		t.Fatalf("replayed request overwrote state: m=%q", v)
	}

	// Invalid requests are rejected outright.
	if err := reps[0].HandleRequest(&msg.Request{Client: "", Seq: 1, Op: []byte("x")}, nil); err == nil {
		t.Fatal("empty client id accepted")
	}
	if err := reps[0].HandleRequest(&msg.Request{Client: "c", Seq: 0, Op: []byte("x")}, nil); err == nil {
		t.Fatal("zero sequence number accepted")
	}
	if err := reps[0].HandleRequest(&msg.Request{Client: "c", Seq: 1, Op: nil}, nil); err == nil {
		t.Fatal("empty operation accepted")
	}
}

// TestReplayRejectedAfterRestartAndStateTransfer: the session table rides
// inside the certified snapshot, so a replica that lost everything and
// caught up through state transfer rejects replays of pre-crash requests
// exactly like the replicas that executed them.
func TestReplayRejectedAfterRestartAndStateTransfer(t *testing.T) {
	cfg := types.Generalized(1, 1)
	const interval = 4
	crashed := types.ProcessID(cfg.N - 1)
	g := newSimGroup(t, cfg, 54, groupOpts{jitter: testJitter, interval: interval})
	reps, stores := g.reps, g.stores

	// Phase 1: all alive; alice executes a few requests.
	seq := uint64(0)
	step := func(r *Replica) {
		seq++
		execReq(t, g, r, "alice", seq, kvSetOp(fmt.Sprintf("a%d", seq), fmt.Sprintf("v%d", seq)))
		g.run(10*time.Second, func() bool {
			return stores[0].AppliedOps() >= seq
		}, "paced application")
	}
	for i := 0; i < 4; i++ {
		step(reps[0])
	}

	// Phase 2: crash one replica; run three checkpoint intervals without it
	// so the survivors prune the slots it missed.
	g.crash(crashed)
	for i := 0; i < 3*interval+4; i++ {
		step(reps[0])
	}
	g.run(10*time.Second, func() bool {
		cp, ok := reps[0].StableCheckpoint()
		return ok && cp.Slot >= 2*interval
	}, "survivors to advance their stable checkpoint")

	// Phase 3: restart with empty state; it catches up via state transfer.
	restarted := g.reboot(crashed)
	if err := restarted.Start(); err != nil {
		t.Fatal(err)
	}
	freshStore := stores[crashed]
	for i := 0; i < 4; i++ {
		step(reps[0])
	}
	g.run(30*time.Second, func() bool {
		return freshStore.AppliedOps() >= seq &&
			restarted.AppliedCount() >= reps[0].AppliedCount()
	}, "restarted replica to catch up")

	// The restored session table must carry alice's high-water mark even
	// though the restarted replica never executed her early requests.
	if got, ok := restarted.SessionSeq("alice"); !ok || got != seq {
		t.Fatalf("restored session: alice seq=%d ok=%v, want %d", got, ok, seq)
	}

	// Replaying a pre-crash request through the restarted replica must not
	// re-execute anywhere — it never even enters the pending queue.
	before := freshStore.AppliedOps()
	if err := restarted.HandleRequest(&msg.Request{
		Client: "alice", Seq: 2, Op: kvSetOp("a2", "v2"),
	}, nil); err != nil {
		t.Fatal(err)
	}
	if n := restarted.PendingCount(); n != 0 {
		t.Fatalf("replay entered the restarted replica's pending queue (%d pending)", n)
	}
	g.net.Advance(100 * time.Millisecond)
	if got := freshStore.AppliedOps(); got != before {
		t.Fatalf("replay re-executed on the restarted replica (%d -> %d ops)", before, got)
	}
	if v, _ := freshStore.Get("a2"); v != "v2" {
		t.Fatalf("replay corrupted state: a2=%q, want %q", v, "v2")
	}

	// And the session keeps working: the next fresh request executes.
	step(restarted)
	if got, ok := restarted.SessionSeq("alice"); !ok || got != seq {
		t.Fatalf("post-replay session: alice seq=%d ok=%v, want %d", got, ok, seq)
	}
}
