package smr

import (
	"fmt"
	"testing"
	"time"

	"repro/internal/msg"
	"repro/internal/obs"
	"repro/internal/sim"
	"repro/internal/types"
)

// TestDelayedAcksStillDecideFast: n = 4, Δ = 1 ms, one closed-loop session
// through the leader (process 1), and after a warm-up the Acks that the
// other followers, 0 and 2, send follower 3 arrive 3 ms late, far below the
// regime timer's 31 ms floor; every other frame is on time. Follower 3 then
// has the leader's Ack and its own at 2Δ, and its third Ack at 2Δ + 3 ms.
// While every replica signed its AckSig at once, the commit certificates
// formed at 2Δ and three Commits reached 3 at 3Δ, ahead of that Ack, so it
// decided every such slot on the slow path (the ordering that pulled a
// benchmark run's fast share under its 0.98 gate). With the AckSigs held,
// nothing overtakes the Ack: 3 decides every slot fast, no AckSig or Commit
// frame is sent, and no held AckSig is released.
func TestDelayedAcksStillDecideFast(t *testing.T) {
	cfg := types.Generalized(1, 1)
	const (
		delta  = time.Millisecond
		lag    = 3 * time.Millisecond
		warmup = 3
		slots  = 50
		victim = types.ProcessID(3)
	)
	g := newSimGroup(t, cfg, 95, groupOpts{delta: delta})
	leader := cfg.Leader(1)
	delayed := false
	var ackSigs, commits int
	g.net.SetPayloadFunc(func(from, to types.ProcessID, payload []byte, _ sim.Time) sim.Fate {
		_, s, inner, ok := openHeader(payload)
		if !ok || s == ctrlSlot || s == syncSlot || len(inner) == 0 || !delayed {
			return sim.Fate{Delay: delta}
		}
		switch msg.Kind(inner[0]) {
		case msg.KindAckSig:
			ackSigs++
		case msg.KindCommit:
			commits++
		case msg.KindAck:
			if to == victim && from != leader {
				return sim.Fate{Delay: delta + lag}
			}
		}
		return sim.Fate{Delay: delta}
	})
	all := func(types.ProcessID) bool { return true }
	for seq := uint64(1); seq <= warmup+slots; seq++ {
		if seq == warmup+1 {
			delayed = true
		}
		ledgerRequest(t, g, "c", seq, all)
		g.run(time.Second, g.applied(seq), "a closed-loop slot to apply")
	}
	g.net.Advance(10 * lag) // anything still in flight lands
	m := &g.reps[victim].m
	fast, slow := m.pathFast.Load(), m.pathSlow.Load()
	t.Logf("replica %d: %d slots decided fast, %d slow; %d AckSig and %d Commit frames after the warm-up",
		victim, fast, slow, ackSigs, commits)
	if fast != warmup+slots || slow != 0 {
		t.Fatalf("replica %d decided %d slots fast and %d slow, want all %d fast", victim, fast, slow, warmup+slots)
	}
	if ackSigs != 0 || commits != 0 {
		t.Fatalf("%d AckSig and %d Commit frames sent in fault-free slots, want none", ackSigs, commits)
	}
	g.live(func(p types.ProcessID, r *Replica) {
		if n := r.m.slowTimer.Load() + r.m.slowPeer.Load() + r.m.regime.Load(); n != 0 {
			t.Errorf("replica %d: %d released AckSigs or regime timeouts, want none", p, n)
		}
	})
}

// TestTransferDecisionsCountApart: a follower that misses a stretch of
// slots and decides them from f+1 matching state-transfer tails counts them
// under fastbft_decided_path_total{path="transfer"} — not as fast or slow
// consensus decisions — records them with the transfer path, and keeps its
// slow-path bias where consensus left it: it still signs its AckSigs at
// once, having decided nothing by consensus since boot.
func TestTransferDecisionsCountApart(t *testing.T) {
	cfg := types.Generalized(1, 1)
	const (
		missed = 40 // past next+2W, so the follower fetches at once
		late   = types.ProcessID(3)
	)
	g := newSimGroup(t, cfg, 96, groupOpts{delta: time.Millisecond})
	deaf := true
	g.net.SetPayloadFunc(func(_, to types.ProcessID, payload []byte, _ sim.Time) sim.Fate {
		s, ok := payloadSlot(payload)
		return sim.Fate{Delay: time.Millisecond, Drop: deaf && ok && to == late && s != syncSlot}
	})
	leader := g.reps[cfg.Leader(1)]
	submitOps(t, leader, "c", 0, missed)
	g.run(time.Second, func() bool { return leader.AppliedCount() >= missed }, "the others to decide the missed slots")
	deaf = false
	submitOps(t, leader, "c", missed, missed+1) // its traffic is the lag evidence
	g.run(5*time.Second, g.applied(missed+1), "the follower to catch up")

	r := g.reps[late]
	snap := g.regs[late].Snapshot()
	path := func(p string) float64 {
		return snap.Sum("fastbft_decided_path_total", obs.Labels{"path": p})
	}
	xfer, fast, slow := path("transfer"), path("fast"), path("slow")
	t.Logf("replica %d: %v slots from tails, %v fast, %v slow", late, xfer, fast, slow)
	if xfer < missed || xfer+fast+slow != snap.Sum("fastbft_slots_decided_total", nil) {
		t.Fatalf("replica %d counted %v transfer, %v fast and %v slow decisions of %v, want the %d missed slots as transfer",
			late, xfer, fast, slow, snap.Sum("fastbft_slots_decided_total", nil), missed)
	}
	r.mu.Lock()
	defer r.mu.Unlock()
	for s := uint64(0); s < missed; s++ {
		if d := r.decided[s]; d.Path != types.TransferPath || d.View != types.NoView {
			t.Fatalf("slot %d recorded path %v in view %v, want %v with no view", s, d.Path, d.View, types.TransferPath)
		}
	}
	if fast == 0 && slow == 0 && r.lazy {
		t.Fatal("tail decisions moved the slow-path bias")
	}
}

// TestSlowPathStartCounted: fastbft_slowpath_started_total counts each held
// AckSig a replica releases, by trigger. n = 4, Δ = 1 ms; after a warm-up
// every Ack to follower 3 is lost for one slot, so 3 alone misses the fast
// quorum. Its regime fire releases its AckSig (trigger "timer"); the other
// replicas, whose instances of the slot linger after their fast decision,
// release theirs on receiving it (trigger "peer"), and the Commits that
// follow decide the slot at 3 on the slow path, with no leader suspected.
func TestSlowPathStartCounted(t *testing.T) {
	cfg := types.Generalized(1, 1)
	const (
		warmup = 3
		late   = types.ProcessID(3)
	)
	g := newSimGroup(t, cfg, 97, groupOpts{delta: time.Millisecond})
	lost := uint64(1 << 62)
	g.net.SetPayloadFunc(func(_, to types.ProcessID, payload []byte, _ sim.Time) sim.Fate {
		_, s, inner, ok := openHeader(payload)
		drop := ok && s == lost && to == late && len(inner) > 0 && msg.Kind(inner[0]) == msg.KindAck
		return sim.Fate{Delay: time.Millisecond, Drop: drop}
	})
	all := func(types.ProcessID) bool { return true }
	for seq := uint64(1); seq <= warmup+1; seq++ {
		if seq == warmup+1 {
			lost = warmup
		}
		ledgerRequest(t, g, "c", seq, all)
		g.run(time.Second, g.applied(seq), fmt.Sprintf("slot %d to apply everywhere", seq-1))
	}
	g.live(func(p types.ProcessID, r *Replica) {
		snap := g.regs[p].Snapshot()
		timer := snap.Sum("fastbft_slowpath_started_total", obs.Labels{"trigger": "timer"})
		peer := snap.Sum("fastbft_slowpath_started_total", obs.Labels{"trigger": "peer"})
		wantTimer, wantPeer := 0.0, 1.0
		if p == late {
			wantTimer, wantPeer = 1, 0
		}
		if timer != wantTimer || peer != wantPeer {
			t.Errorf("replica %d: slow path started %v times by its timer and %v by a peer, want %v and %v", p, timer, peer, wantTimer, wantPeer)
		}
		if regime := r.m.regime.Load(); regime != 0 {
			t.Errorf("replica %d: %d regime timeouts, want none", p, regime)
		}
	})
	if d, _ := g.reps[late].Decided(warmup); d.Path != types.SlowPath {
		t.Fatalf("replica %d decided slot %d on the %v path, want slow", late, warmup, d.Path)
	}
}

// TestStateTransferServesOnlyNewWithinCooldown pins what one requester can
// draw from a peer: a full response — decisions from its frontier on, or,
// where the peer kept none that far back, the stable checkpoint and the
// decisions after it — at most once per fetchRetryCooldown/2, and in between
// only decisions past the last tail it was sent, and no snapshot unless a
// newer checkpoint formed. A peer keeps decision records one interval past
// its stable checkpoint, so the first answer here is a tail, not a snapshot.
func TestStateTransferServesOnlyNewWithinCooldown(t *testing.T) {
	cfg := types.Generalized(1, 1)
	const interval = 4
	g := newSimGroup(t, cfg, 98, groupOpts{interval: interval})
	type answer struct {
		snapshot uint64 // 1 + checkpoint slot, 0 for none
		tail     []uint64
	}
	var got []answer
	g.net.SetPayloadFunc(func(from, to types.ProcessID, payload []byte, _ sim.Time) sim.Fate {
		if _, s, m, ok := OpenEnvelope(payload); ok && s == syncSlot && from == 0 && to == 3 {
			if ss, ok := m.(*msg.StateSnapshot); ok {
				var a answer
				if ss.Total > 0 {
					a.snapshot = ss.Cert.CP.Slot + 1
				}
				for _, td := range ss.Tail {
					a.tail = append(a.tail, td.Slot)
				}
				got = append(got, a)
			}
		}
		return sim.Fate{}
	})
	r, leader := g.reps[0], g.reps[cfg.Leader(1)]
	ask := func() []answer {
		got = nil
		r.mu.Lock()
		r.onFetchStateLocked(3, &msg.FetchState{From: 0})
		r.mu.Unlock()
		g.settle()
		return got
	}
	slots := func(from, to uint64) []uint64 {
		var out []uint64
		for s := from; s < to; s++ {
			out = append(out, s)
		}
		return out
	}
	submitOps(t, leader, "c", 0, 6)
	g.settle()
	if a := ask(); len(a) != 1 || a[0].snapshot != 0 || fmt.Sprint(a[0].tail) != fmt.Sprint(slots(0, 6)) {
		t.Fatalf("first answer %+v, want the tail of slots 0..5 and no snapshot", a)
	}
	if a := ask(); len(a) != 0 {
		t.Fatalf("an immediate second ask drew %+v, want nothing new", a)
	}
	submitOps(t, leader, "c", 6, 10)
	g.settle()
	if cp, ok := r.StableCheckpoint(); !ok || cp.Slot != 2*interval-1 {
		t.Fatalf("stable checkpoint %v (%v), want slot %d", cp, ok, 2*interval-1)
	}
	if a := ask(); len(a) != 1 || a[0].snapshot != 0 || fmt.Sprint(a[0].tail) != fmt.Sprint(slots(6, 10)) {
		t.Fatalf("answer within the cooldown %+v, want only the new slots 6..9", a)
	}
	g.net.Advance(fetchRetryCooldown / 2)
	if a := ask(); len(a) != 1 || a[0].snapshot != 2*interval || fmt.Sprint(a[0].tail) != fmt.Sprint(slots(2*interval, 10)) {
		t.Fatalf("answer after the cooldown %+v, want the checkpoint at slot %d and the slots after it", a, 2*interval-1)
	}
}

// TestPeerAckSigsDoNotDelaySuspicion: a peer's AckSig that releases a held
// one starts a slow path but puts off no suspicion. n = 4, Δ = 1 ms; after
// a warm-up that leaves every replica's decided instances holding their
// AckSigs, the view-1 leader crashes and one write goes to every live
// replica. During the stall follower 2, playing Byzantine, sends follower 0
// its own valid AckSig for one retained decided slot every 4 ms, eleven in
// all: each releases 0's AckSig for that slot (the peer trigger). 0's first
// regime timeout must come when it comes without them; re-arming the timer
// on every such release put it off until after the last one.
func TestPeerAckSigsDoNotDelaySuspicion(t *testing.T) {
	cfg := types.Generalized(1, 1)
	const (
		warmup = 12
		victim = types.ProcessID(0)
		byz    = types.ProcessID(2)
		every  = 4 * time.Millisecond
	)
	firstTimeout := func(inject bool) (time.Duration, uint64) {
		g := newSimGroup(t, cfg, 99, groupOpts{delta: time.Millisecond})
		all := func(types.ProcessID) bool { return true }
		for seq := uint64(1); seq <= warmup; seq++ {
			ledgerRequest(t, g, "c", seq, all)
			g.run(time.Second, g.applied(seq), "a warm-up slot to apply")
		}
		g.crash(cfg.Leader(1))
		ledgerRequest(t, g, "c", warmup+1, all)
		start := g.net.Now()
		if inject {
			for s := uint64(0); s < warmup; s++ {
				d, ok := g.reps[victim].Decided(s)
				if !ok {
					t.Fatalf("slot %d undecided after the warm-up", s)
				}
				signer := domainSigner{inner: g.scheme.Signer(byz), salt: slotDomain(0, s)}
				frame := envelope(0, s, &msg.AckSig{View: d.View, X: d.Value, Phi: signer.Sign(msg.AckDigest(d.Value, d.View))})
				g.net.Clock(byz).AfterFunc(time.Duration(s+1)*every, func() { _ = g.net.Transport(byz).Send(victim, frame) })
			}
		}
		victimRep := g.reps[victim]
		g.run(5*time.Second, func() bool { return victimRep.m.regime.Load() > 0 }, "the first regime timeout")
		return g.net.Now() - start, victimRep.m.slowPeer.Load()
	}
	quiet, _ := firstTimeout(false)
	noisy, released := firstTimeout(true)
	t.Logf("first regime timeout %v after the write without the AckSigs, %v with them (%d held AckSigs released by them)", quiet, noisy, released)
	if released == 0 {
		t.Fatal("the injected AckSigs released nothing: the test exercises no peer trigger")
	}
	if noisy != quiet {
		t.Fatalf("peer AckSigs moved the first regime timeout from %v to %v after the write", quiet, noisy)
	}
}

// TestLeaderCrashSuspectedOnTime pins how long a cluster takes to get past
// a dead view-1 leader. n = 4, Δ = 1 ms, durable: the view-2 leader crashes
// and restarts from its data directory, 13 slots behind, and the view-1
// leader crashes. Then 14 writes go, one at a time, to every live replica;
// each opens a slot in view 1 under the dead leader and waits out a regime
// timeout and a view change (every slot starts in view 1: ROADMAP item 8).
// The measured 4.47 s of virtual time is the same as when every AckSig was
// signed at once. A regime fire that put off suspicion whenever a replica
// saw later slots decided, even with nobody having acked its lowest
// undecided slot, made it 5.98 s; the ceiling is the measured time plus 2 %.
func TestLeaderCrashSuspectedOnTime(t *testing.T) {
	cfg := types.Generalized(1, 1)
	const ceiling = 4560 * time.Millisecond
	g := newSimGroup(t, cfg, 5, groupOpts{delta: time.Millisecond, durable: true})
	write := func(i int) {
		g.live(func(_ types.ProcessID, r *Replica) { submitKV(t, r, "c", i) })
	}
	for i := 0; i < 13; i++ {
		write(i)
	}
	g.run(10*time.Second, g.applied(13), "the first writes to apply")
	restarted, dead := cfg.Leader(2), cfg.Leader(1)
	survivor := cfg.Leader(3) // its store is the clock of the run
	g.crash(restarted)
	for i := 13; i < 26; i++ {
		write(i)
	}
	g.run(10*time.Second, func() bool { return g.stores[survivor].AppliedOps() >= 26 }, "writes with a replica down")
	if err := g.reboot(restarted).Start(); err != nil {
		t.Fatal(err)
	}
	g.crash(dead)
	start := g.net.Now()
	for i := 26; i < 40; i++ {
		write(i)
		g.run(60*time.Second, func() bool { return g.stores[survivor].AppliedOps() >= uint64(i+1) }, "a write past the dead leader")
	}
	took := g.net.Now() - start
	var regime []uint64
	g.live(func(_ types.ProcessID, r *Replica) { regime = append(regime, r.m.regime.Load()) })
	t.Logf("14 writes past the dead leader took %v of virtual time; regime timeouts per live replica %v", took, regime)
	if took > ceiling {
		t.Fatalf("14 writes past the dead leader took %v, ceiling %v", took, ceiling)
	}
}
