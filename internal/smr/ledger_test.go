package smr

import (
	"fmt"
	"runtime"
	"strings"
	"testing"
	"time"

	"repro/internal/msg"
	"repro/internal/obs"
	"repro/internal/quorum"
	"repro/internal/sim"
	"repro/internal/types"
)

// The cost ledger: what one closed-loop slot costs, counted, not timed. A
// count is the same on every host, so the paper's arithmetic can be pinned
// as bounds — a change that sends, signs or verifies more per slot fails
// here, whatever the wall clock says. Run it with `make ledger` to print
// the ledger line a change can quote.

// ledgerSlots is how many closed-loop slots the allocation figure averages.
const ledgerSlots = 100

// ledgerBatch is the batched regime's MaxBatch, the kv-mem-batch
// benchmark's; its sessions never fill a batch, so every slot it proposes is
// a partial batch held while the previous slot was in flight.
const ledgerBatch = 8

// ledgerCounts is one run's tally of frames by kind, as the senders emit
// them (a broadcast is n − 1 frames), with request relays apart.
type ledgerCounts struct {
	frames [maxMsgKind + 1]int64
	relays int64
}

// sigOps sums the group's fastbft_signatures_total{op} over every replica
// that has run, crashed ones included.
func (g *simGroup) sigOps(op string) float64 {
	var sum float64
	for _, reg := range g.regs {
		sum += reg.Snapshot().Sum("fastbft_signatures_total", obs.Labels{"op": op})
	}
	return sum
}

// ledgerRegime is one way of running the closed loop.
type ledgerRegime struct {
	name     string
	everyone bool // hand each request to every live replica, not the leader only
	dropAcks bool // lose every Ack frame, so no slot can decide on the fast path
	silent   int  // replicas crashed before the run (never the leader)
	// sessions, if positive, replaces the single session with that many
	// closed-loop sessions through the leader at MaxBatch ledgerBatch, each
	// resubmitting from the reply callback of its previous request.
	sessions int
}

// ledgerRow is one regime's per-slot cost: frames and allocations for the
// whole group, signature operations per live replica, how many slots a live
// replica decided off the regime's path (slow with Acks lost, fast
// otherwise), how many held AckSigs the live replicas released, and how
// many commands the leader applied per slot; and how many decided
// instances a follower keeps behind its frontier, with the heap each holds.
type ledgerRow struct {
	frames   [maxMsgKind + 1]float64
	relays   float64
	signs    float64
	verifies float64
	allocs   float64
	offPath  float64
	released float64
	cmds     float64
	kept     int
	keptB    float64
}

func (r ledgerRow) consensus() float64 {
	return r.frames[msg.KindPropose] + r.frames[msg.KindAck] + r.frames[msg.KindAckSig] + r.frames[msg.KindCommit]
}

func (r ledgerRow) total() float64 {
	var sum float64
	for _, n := range r.frames {
		sum += n
	}
	return sum
}

// newLedgerGroup builds the ledger's group: HMAC keys, every frame due
// Δ = 1 ms after it is sent and tallied into c (dropped, with dropAcks, if it
// is an Ack). Signature operations are read from the replicas' registries.
func newLedgerGroup(t *testing.T, cfg types.Config, c *ledgerCounts, dropAcks bool, maxBatch int) *simGroup {
	t.Helper()
	const delta = time.Millisecond
	g := newSimGroup(t, cfg, 91, groupOpts{delta: delta, maxBatch: maxBatch})
	g.net.SetPayloadFunc(func(_, _ types.ProcessID, payload []byte, _ sim.Time) sim.Fate {
		_, s, inner, ok := openHeader(payload)
		if !ok || len(inner) == 0 {
			return sim.Fate{Delay: delta}
		}
		if s == ctrlSlot {
			c.relays++
			return sim.Fate{Delay: delta}
		}
		k := msg.Kind(inner[0])
		if int(k) <= maxMsgKind {
			c.frames[k]++
		}
		return sim.Fate{Delay: delta, Drop: dropAcks && k == msg.KindAck}
	})
	return g
}

// ledgerRequest hands request (client, seq) to every live replica p with to(p).
func ledgerRequest(t *testing.T, g *simGroup, client types.ClientID, seq uint64, to func(types.ProcessID) bool) {
	t.Helper()
	req := &msg.Request{Client: client, Seq: seq, Op: kvSetOp(fmt.Sprintf("k%d", seq), "v")}
	g.live(func(p types.ProcessID, r *Replica) {
		if to(p) {
			if err := r.HandleRequest(req, nil); err != nil {
				t.Fatal(err)
			}
		}
	})
}

// runLedger runs warm-up slots, then ledgerSlots closed-loop slots under
// testing.AllocsPerRun (plus its own warm-up call), and divides the tally by
// the slots the group applied meanwhile. One session sends one request per
// slot; the batched regime's sessions fill slots two at a time (see
// closedLoopSessions).
func runLedger(t *testing.T, cfg types.Config, reg ledgerRegime) ledgerRow {
	t.Helper()
	c := &ledgerCounts{}
	maxBatch := 1
	if reg.sessions > 0 {
		maxBatch = ledgerBatch
	}
	g := newLedgerGroup(t, cfg, c, reg.dropAcks, maxBatch)
	for i := 0; i < reg.silent; i++ {
		g.crash(types.ProcessID(cfg.N - 1 - i))
	}
	live := cfg.N - reg.silent
	leader := cfg.Leader(1)
	seq := uint64(0)
	op, slotsPerOp := func() {
		seq++
		ledgerRequest(t, g, "ledger", seq, func(p types.ProcessID) bool { return reg.everyone || p == leader })
		g.run(time.Second, g.applied(seq), "a closed-loop slot to apply")
	}, 1
	if reg.sessions > 0 {
		op, slotsPerOp = closedLoopSessions(t, g, reg.sessions), 2
	}
	for i := 0; i < 3; i++ {
		op() // seed the decide-latency estimates and the replicas' maps
	}
	*c = ledgerCounts{}
	signs, verifies := g.sigOps("sign"), g.sigOps("verify")
	from, fromCmds := g.reps[leader].AppliedCount(), g.stores[leader].AppliedOps()
	allocs := testing.AllocsPerRun(ledgerSlots/slotsPerOp, op) / float64(slotsPerOp)
	slots := float64(g.reps[leader].AppliedCount() - from)
	if slots < ledgerSlots {
		t.Fatalf("%s: %v slots applied for %d closed-loop slots", reg.name, slots, ledgerSlots)
	}
	row := ledgerRow{
		relays:   float64(c.relays) / slots,
		signs:    (g.sigOps("sign") - signs) / slots / float64(live),
		verifies: (g.sigOps("verify") - verifies) / slots / float64(live),
		allocs:   allocs,
		cmds:     float64(g.stores[leader].AppliedOps()-fromCmds) / slots,
	}
	for k, n := range c.frames {
		row.frames[k] = float64(n) / slots
	}
	g.live(func(_ types.ProcessID, r *Replica) {
		off := r.m.pathSlow
		if reg.dropAcks {
			off = r.m.pathFast
		}
		row.offPath += float64(off.Load())
		row.released += float64(r.m.slowTimer.Load() + r.m.slowPeer.Load())
	})
	row.kept, row.keptB = retainedInstanceBytes(g.reps[(leader+1)%types.ProcessID(cfg.N)])
	return row
}

// retainedInstanceBytes reports how many decided instances r keeps behind
// its frontier and the heap each holds: it drops them all and divides what
// a collection then frees by their number. It leaves r without them, so it
// is a group's last measurement.
func retainedInstanceBytes(r *Replica) (int, float64) {
	r.mu.Lock()
	defer r.mu.Unlock()
	var ms runtime.MemStats
	runtime.GC()
	runtime.ReadMemStats(&ms)
	before := int64(ms.HeapAlloc)
	n := 0
	for s := range r.slots {
		if s < r.next {
			delete(r.slots, s)
			n++
		}
	}
	if n == 0 {
		return 0, 0
	}
	runtime.GC()
	runtime.ReadMemStats(&ms)
	return n, float64(before-int64(ms.HeapAlloc)) / float64(n)
}

// closedLoopSessions starts k client sessions on the leader, each of which
// submits its next request from the reply callback of the previous one, and
// returns an op that runs until two more slots have applied.
//
// A reply callback runs after the decision that caused it has refilled the
// window, so a resubmitted request finds the next slot already in flight and
// waits for it to decide. The first request of all finds the window idle and
// goes out alone; the other k − 1 wait for it, and from then on the sessions
// alternate between two groups: batches of 1 and k − 1, k/2 commands per
// slot. Two slots per op keep that figure exact.
func closedLoopSessions(t *testing.T, g *simGroup, k int) func() {
	t.Helper()
	leader := g.reps[g.cfg.Leader(1)]
	var submit func(c int, seq uint64)
	submit = func(c int, seq uint64) {
		req := &msg.Request{Client: types.ClientID(fmt.Sprintf("s%d", c)), Seq: seq,
			Op: kvSetOp(fmt.Sprintf("s%d-%d", c, seq), "v")}
		if err := leader.HandleRequest(req, func(*msg.Reply) { submit(c, seq+1) }); err != nil {
			t.Error(err)
		}
	}
	for c := 0; c < k; c++ {
		submit(c, 1)
	}
	return func() {
		want := leader.AppliedCount() + 2
		g.run(time.Second, func() bool { return leader.AppliedCount() >= want }, "two closed-loop slots to apply")
	}
}

// runLeaderCrash is the leader-crash regime: it warms the group up, crashes
// Leader(1), hands one request per window slot (W = 8 of them, each from its
// own client) to every live replica, and runs until they apply. The tally covers
// only what follows the crash and is divided by the W slots, every one of
// which must have changed view; views is the group's slot view changes per
// slot.
func runLeaderCrash(t *testing.T, cfg types.Config) (row ledgerRow, views float64) {
	t.Helper()
	c := &ledgerCounts{}
	g := newLedgerGroup(t, cfg, c, false, 1)
	all := func(types.ProcessID) bool { return true }
	for seq := uint64(1); seq <= 3; seq++ {
		ledgerRequest(t, g, "warm", seq, all)
		g.run(time.Second, g.applied(seq), "a warm-up slot to apply")
	}
	g.crash(cfg.Leader(1))
	*c = ledgerCounts{}
	signs, verifies := g.sigOps("sign"), g.sigOps("verify")
	const w = 8 // the default window: one regime fire ticks every slot
	for i := 0; i < w; i++ {
		ledgerRequest(t, g, types.ClientID(fmt.Sprintf("crash-%d", i)), 1, all)
	}
	g.run(5*time.Second, g.applied(3+w), "the requests to apply past the dead leader")
	g.live(func(p types.ProcessID, r *Replica) {
		for s := uint64(3); s < 3+w; s++ {
			if d, ok := r.Decided(s); !ok || d.View != 2 {
				t.Fatalf("replica %d: slot %d decided %v in view %d, want view 2", p, s, ok, d.View)
			}
		}
		row.offPath += float64(r.m.pathSlow.Load())
		row.released += float64(r.m.slowTimer.Load() + r.m.slowPeer.Load())
		views += g.viewChanges(p)
	})
	row.relays = float64(c.relays) / w
	row.signs = (g.sigOps("sign") - signs) / w / float64(cfg.N-1)
	row.verifies = (g.sigOps("verify") - verifies) / w / float64(cfg.N-1)
	for k, n := range c.frames {
		row.frames[k] = float64(n) / w
	}
	return row, views / w
}

// TestCostLedger pins what one closed-loop slot costs at n = 4 and n = 7,
// per regime, against the paper's arithmetic (HMAC, Δ = 1 ms, one request
// in flight, MaxBatch 1 unless batched; live replicas are the ones not
// silenced; q = CommitQuorum = ⌈(n+f+1)/2⌉):
//
//   - the view-1 leader proposes once: n − 1 Propose frames;
//   - every live replica acks once: live·(n − 1) Ack frames;
//   - the slow path runs only where it can decide. A replica that has
//     decided nothing since boot signs its AckSigs at once; one whose last
//     consensus decision was fast holds them (the bias, see
//     ensureSlotLocked), and a fault-free slot decides fast at 2Δ, long
//     before the regime fire that would release them. So after the
//     warm-up, a fault-free slot sends no AckSig and no Commit, and the
//     consensus frames are (n − 1) + n(n − 1): 15 at n = 4, 48 at n = 7.
//     With Acks lost no slot decides fast, every replica stays eager, and
//     each signs its AckSig and, having seen q of them, commits once:
//     live·(n − 1) AckSig and Commit frames each;
//   - nothing else flows: no view-change, checkpoint or fetch traffic, and
//     no held AckSig is released;
//   - fault-free, only the leader signs, its τ: 1/n signatures per replica
//     and slot. With Acks lost every live replica signs its AckSig as well:
//     (live + 1)/live;
//   - a replica verifies only the signatures whose check can change what it
//     does, each once per slot (core's verifyMemo). Its own signatures are
//     memoized when it makes them, so the leader verifies no τ and a
//     follower verifies the leader's: (live − 1)/live per replica, and
//     fault-free that is all, 0.75 at n = 4 and 0.86 at n = 7. With Acks
//     lost it verifies q − 1 AckSigs besides its own, none after its
//     certificate forms, and decides on q Commits, its own and q − 1
//     others, whose certificates carry the live − q AckSigs it skipped,
//     each checked once: (live − 1)/live + q − 1 + live − q, 3.75 at n = 4
//     and 4.80 at n = 7 (live = q = 5 there);
//   - a request reaches the leader once: a follower relays it to Leader(1)
//     only, so live − 1 relays when the client hands it to every live
//     replica, none when it hands it to the leader alone.
//
// The slow regime loses every Ack (and, at n = 7, two replicas are silent,
// as in the kv-slowpath benchmark), so every slot decides through Commit
// certificates, still in view 1; the fault-free regimes decide every slot on
// the fast path. The allocation figure counts the simulator's events too, so
// it is a plain ceiling for the whole group: the measured value plus 2 %.
//
// The batched regime (n = 4) runs four closed-loop sessions through the
// leader at MaxBatch 8. A slot costs what a leader-only slot costs, but the
// leader holds a partial batch while a slot is in flight, so the sessions
// alternate between batches of 1 and 3 (see closedLoopSessions): 2 commands
// per slot, against 1 in every other regime, and half the verifies per
// command. A last regime crashes the view-1 leader and pins what
// one slot's view change costs (see leaderCrashLedger).
func TestCostLedger(t *testing.T) {
	var line []string
	for _, tc := range []struct {
		cfg      types.Config
		silent   int                // replicas silenced in the slow regime
		sessions int                // the batched regime's sessions; 0 skips it
		allocs   map[string]float64 // measured allocations per slot, whole group
		crash    float64            // measured leader-crash verifies per slot and replica
	}{
		{types.Generalized(1, 1), 0, 4, map[string]float64{"leader-only": 224, "every-replica": 248, "slow": 544, "batched": 264}, 4.00},
		{types.Generalized(2, 1), 2, 0, map[string]float64{"leader-only": 440, "every-replica": 488, "slow": 782}, 6.83},
	} {
		n, f := tc.cfg.N, tc.cfg.F
		q := quorum.New(tc.cfg).CommitQuorum()
		if q != (n+f+2)/2 { // ⌈(n+f+1)/2⌉
			t.Fatalf("n=%d: CommitQuorum %d, want ⌈(n+f+1)/2⌉ = %d", n, q, (n+f+2)/2)
		}
		regimes := []ledgerRegime{
			{name: "leader-only"},
			{name: "every-replica", everyone: true},
			{name: "slow", everyone: true, dropAcks: true, silent: tc.silent},
		}
		if tc.sessions > 0 {
			regimes = append(regimes, ledgerRegime{name: "batched", sessions: tc.sessions})
		}
		for _, reg := range regimes {
			row := runLedger(t, tc.cfg, reg)
			live := n - reg.silent
			relays := 0
			if reg.everyone {
				relays = live - 1
			}
			cmds := 1.0
			if reg.sessions > 0 {
				cmds = float64(reg.sessions) / 2 // batches of 1 and sessions − 1
			}
			// Fault-free: every AckSig held, only τ signed and verified.
			slowFrames, signs := 0, 1/float64(live)
			verifies := float64(live-1) / float64(live)
			if reg.dropAcks {
				slowFrames, signs = live*(n-1), float64(live+1)/float64(live)
				verifies += float64(q-1) + float64(live-q)
			}
			for _, c := range []struct {
				what      string
				got, want float64
			}{
				{"Propose frames per slot", row.frames[msg.KindPropose], float64(n - 1)},
				{"Ack frames per slot", row.frames[msg.KindAck], float64(live * (n - 1))},
				{"AckSig frames per slot", row.frames[msg.KindAckSig], float64(slowFrames)},
				{"Commit frames per slot", row.frames[msg.KindCommit], float64(slowFrames)},
				{"other frames per slot", row.total() - row.consensus(), 0},
				{"request relays per slot", row.relays, float64(relays)},
				{"signs per slot and replica", row.signs, signs},
				{"verifies per slot and replica", row.verifies, verifies},
				{"slots decided off the regime's path", row.offPath, 0},
				{"held AckSigs released", row.released, 0},
				{"commands per slot", row.cmds, cmds},
			} {
				if c.got != c.want {
					t.Errorf("n=%d %s: %s = %v, want %v", n, reg.name, c.what, c.got, c.want)
				}
			}
			if ceil := tc.allocs[reg.name] * 1.02; row.allocs > ceil {
				t.Errorf("n=%d %s: %.0f allocations per slot, ceiling %.0f", n, reg.name, row.allocs, ceil)
			}
			line = append(line, fmt.Sprintf("n=%d %s: consensus %.0f relay %.0f verify %.2f sign %.2f allocs %.0f (%.1f/replica) cmds/slot %.2f verify/op %.2f kept %d × %.0f B",
				n, reg.name, row.consensus(), row.relays, row.verifies, row.signs, row.allocs, row.allocs/float64(live),
				row.cmds, row.verifies/row.cmds, row.kept, row.keptB))
		}
		line = append(line, leaderCrashLedger(t, tc.cfg, tc.crash))
	}
	t.Log("ledger " + strings.Join(line, "; "))
}

// leaderCrashLedger pins the leader-crash regime's per-slot cost (see
// runLeaderCrash) against the view change of Section 3.2 and Appendix A.2,
// and renders its ledger entry. live = n − 1, Leader(1) being dead; every
// broadcast still addresses it. Per view-changed slot:
//
//   - each live replica's synchronizer broadcasts one Wish for view 2:
//     live·(n − 1) Wish frames;
//   - on entering view 2 each live replica but Leader(2), which keeps its
//     own vote, sends its signed Vote to Leader(2): live − 1 Vote frames;
//   - Leader(2) endorses its selection itself and sends a CertRequest to
//     the 2f lowest-numbered other voters (CertRequestSet = 2f + 1, see
//     core's tryViewChange). Its selection took n − f votes, so it holds
//     n − f − 1 ≥ 2f other voters (n ≥ 3f + 1), and none of them is the
//     dead Leader(1): 2f CertRequest and 2f CertAck frames. Any 2f + 1
//     contacted processes hold f + 1 correct ones, so CertQuorum = f + 1
//     endorsements, its own included, are guaranteed as before;
//   - Leader(2) proposes once: n − 1 Propose frames; all live = n − t
//     replicas ack, live·(n − 1) Ack frames, so the slot decides on the
//     fast path in view 2. The warm-up slots decided fast, so every
//     replica opened the slot with its AckSig held, and a fast decision
//     leaves it held: no AckSig and no Commit frame;
//   - each live replica enters view 2 once: live slot view changes;
//   - a live replica signs its Vote, Leader(2) its own endorsement and
//     its Propose, the 2f addressees a CertAck: live + 2f + 2 signatures in
//     the group;
//   - every live replica follows the dead Leader(1) and relays each fresh
//     request to it: live relays per request, none of them answered.
//
// Nothing else flows. Verifies have a ceiling, not a formula: how many
// votes a leader checks before its selection succeeds, and which CertAck
// signatures a follower has met before the Propose carries them, depend on
// arrival order. The ceiling is the measured value (n = 4: 4.00; 6.00
// while every replica signed its AckSig at once, 9.00 before a replica
// memoized its own signatures and skipped the checks whose result nothing
// reads, 15.46 before each instance memoized its verified signatures;
// n = 7: 6.83, 10.83, 14.33 and 25.92 before).
func leaderCrashLedger(t *testing.T, cfg types.Config, maxVerifies float64) string {
	t.Helper()
	row, views := runLeaderCrash(t, cfg)
	n, f, live := cfg.N, cfg.F, cfg.N-1
	pinned := []struct {
		kind msg.Kind
		want int
	}{
		{msg.KindWish, live * (n - 1)},
		{msg.KindVote, live - 1},
		{msg.KindCertRequest, 2 * f},
		{msg.KindCertAck, 2 * f},
		{msg.KindPropose, n - 1},
		{msg.KindAck, live * (n - 1)},
		{msg.KindAckSig, 0},
		{msg.KindCommit, 0},
	}
	other := row.total()
	var kinds []string
	for _, c := range pinned {
		if got := row.frames[c.kind]; got != float64(c.want) {
			t.Errorf("n=%d leader-crash: %s frames per slot = %v, want %d", n, c.kind, got, c.want)
		}
		other -= row.frames[c.kind]
		kinds = append(kinds, fmt.Sprintf("%s %.0f", c.kind, row.frames[c.kind]))
	}
	for _, c := range []struct {
		what      string
		got, want float64
	}{
		{"other frames per slot", other, 0},
		{"slot view changes per slot", views, float64(live)},
		{"request relays per slot", row.relays, float64(live)},
		{"signs per slot and replica", row.signs, float64(live+2*f+2) / float64(live)},
		{"slots decided on the slow path", row.offPath, 0},
		{"held AckSigs released", row.released, 0},
	} {
		if c.got != c.want {
			t.Errorf("n=%d leader-crash: %s = %v, want %v", n, c.what, c.got, c.want)
		}
	}
	if row.verifies > maxVerifies+0.005 {
		t.Errorf("n=%d leader-crash: %.2f verifies per slot and replica, ceiling %.2f", n, row.verifies, maxVerifies)
	}
	return fmt.Sprintf("n=%d leader-crash: %s views %.0f relay %.0f verify %.2f sign %.2f",
		n, strings.Join(kinds, " "), views, row.relays, row.verifies, row.signs)
}

// TestSignaturesCounted reads fastbft_signatures_total from each replica's
// registry after a fault-free closed loop at n = 4 with a checkpoint every 8
// slots. The series counts real signature operations, below each instance's
// memo. The first slot runs eager, as every slot of a replica that has
// decided nothing yet: a follower verifies the leader's τ and CommitQuorum −
// 1 AckSigs, the leader those AckSigs, and every replica signs its AckSig
// (see TestCostLedger). It decides fast, so every later slot holds its
// AckSig and decides fast before anything releases it: a follower verifies
// τ alone, the leader nothing, and only the leader signs, its τ. On top, a
// replica verifies the n signed Checkpoints of each checkpoint it takes and
// signs one Checkpoint per checkpoint. So a follower verifies q + (slots −
// 1) + n·checkpoints and signs 1 + checkpoints, and the leader verifies
// q − 1 + n·checkpoints and signs 1 + slots + checkpoints.
func TestSignaturesCounted(t *testing.T) {
	cfg := types.Generalized(1, 1)
	const slots, interval = 40, 8
	g := newSimGroup(t, cfg, 92, groupOpts{delta: time.Millisecond, interval: interval})
	leader := cfg.Leader(1)
	for seq := uint64(1); seq <= slots; seq++ {
		ledgerRequest(t, g, "sigs", seq, func(p types.ProcessID) bool { return p == leader })
		g.run(time.Second, g.applied(seq), "a closed-loop slot to apply")
	}
	g.net.Advance(10 * time.Millisecond) // the first slot's AckSigs and Commits land
	n, q := cfg.N, quorum.New(cfg).CommitQuorum()
	g.live(func(p types.ProcessID, _ *Replica) {
		snap := g.regs[p].Snapshot()
		decided := snap.Sum("fastbft_slots_decided_total", nil)
		verifies := snap.Sum("fastbft_signatures_total", obs.Labels{"op": "verify"})
		signs := snap.Sum("fastbft_signatures_total", obs.Labels{"op": "sign"})
		if decided != slots {
			t.Fatalf("replica %d decided %v slots, want %d", p, decided, slots)
		}
		ckpts := float64(slots / interval)
		wantVerifies := float64(q) + (decided - 1)
		wantSigns := 1 + ckpts
		if p == leader {
			wantVerifies = float64(q - 1)
			wantSigns += decided
		}
		if want := wantVerifies + float64(n)*ckpts; verifies != want {
			t.Errorf("replica %d: %v verifies for %v slots and %v checkpoints, want %v", p, verifies, decided, ckpts, want)
		}
		if signs != wantSigns {
			t.Errorf("replica %d: %v signs, want %v", p, signs, wantSigns)
		}
		t.Logf("replica %d: %v verifies, %v signs over %v slots and %v checkpoints", p, verifies, signs, decided, ckpts)
	})
}
