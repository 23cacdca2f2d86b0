package smr

import (
	"bytes"
	"encoding/binary"
	"flag"
	"fmt"
	"math/rand"
	"reflect"
	"testing"
	"time"

	"repro/internal/msg"
	"repro/internal/quorum"
	"repro/internal/sim"
	"repro/internal/types"
	"repro/internal/viewsync"
)

// Seeded schedules: whole clusters run under random per-message delays drawn
// from a seed, so slots and views overtake each other in ways no scripted
// scenario lists, and a failure replays from the seed it prints:
//
//	go test ./internal/smr -run TestSeededScheduleSmoke -sim.first=<seed> -sim.seeds=1
//
// This is a smoke over a handful of seeds, not an explorer: it injects no
// crashes mid-run and no Byzantine behaviour, and drops frames only where
// TestSeededScheduleSmokeLazySlowPath aims faults at the slow path's
// triggers.
var (
	simSeeds = flag.Int("sim.seeds", 20, "how many seeds TestSeededScheduleSmoke runs per scenario")
	simFirst = flag.Int64("sim.first", 1, "first seed of TestSeededScheduleSmoke")
)

const (
	scheduleDelta    = 10 * time.Millisecond // bound of the per-message delay
	scheduleSessions = 3
	scheduleRequests = 6 // per session, closed loop
	scheduleLimit    = 60 * time.Second
)

// scheduleFaults is what a seeded run injects besides its delays.
type scheduleFaults struct {
	silent types.ProcessID       // crashed before the run (NoProcess: none)
	slots  map[uint64]slotFault  // per log slot, in every view
	tail   *slotFault            // the fault of one last request's slot
	lone   map[slotView]struct{} // lone AckSigs already sent (filled by the run)
}

// slotFault is one fault aimed at one slot.
type slotFault struct {
	kind   faultKind
	target types.ProcessID   // the replica the fault is aimed at
	from   []types.ProcessID // ackDrop: the senders whose Acks to target are lost
}

type faultKind int

const (
	// ackDrop loses the Acks of some senders to target, so that it misses
	// the fast quorum its peers decide on.
	ackDrop faultKind = iota + 1
	// noPropose loses every Propose to target, so it never acks.
	noPropose
	// loneAckSig has target, a correct replica, send its valid AckSig the
	// moment it acks: one peer alone starting the slow path.
	loneAckSig
)

type slotView struct {
	slot uint64
	view types.View
}

// drops reports whether the fault of slot s, if any, loses a frame of kind
// k from one replica to another.
func (f *scheduleFaults) drops(from, to types.ProcessID, s uint64, k msg.Kind) bool {
	sf, ok := f.slots[s]
	if !ok || to != sf.target {
		return false
	}
	switch sf.kind {
	case ackDrop:
		for _, p := range sf.from {
			if k == msg.KindAck && from == p {
				return true
			}
		}
	case noPropose:
		return k == msg.KindPropose
	}
	return false
}

// scheduleResult is what one seeded run leaves behind.
type scheduleResult struct {
	// trace is the run as the network and the clients saw it, in order: every
	// delivery (time, from, to, payload) and every reply callback (time,
	// replica, client, seq, slot, result).
	trace   []byte
	replies int                // how many of the records are replies
	decided [][]types.Decision // per replica, the decision of every applied slot
	stores  [][]byte           // per replica, the KVStore snapshot
	elapsed time.Duration      // virtual time until every live replica applied everything
	// lag is the longest a slot took, from its first application at a live
	// replica to its last; timer, order and peer sum the live replicas'
	// held AckSigs released by a regime fire, by a later slot's decision and
	// by a peer, xfer their decisions from state-transfer tails, and regime
	// their regime timeouts.
	lag                              time.Duration
	timer, order, peer, xfer, regime uint64
}

// record appends one trace record: a tag, the virtual time, three numbers
// and two byte strings.
func (res *scheduleResult) record(tag byte, at time.Duration, a, b, c uint64, x, y []byte) {
	var hdr [9 + 5*binary.MaxVarintLen64]byte
	hdr[0] = tag
	binary.BigEndian.PutUint64(hdr[1:9], uint64(at))
	n := 9
	for _, v := range []uint64{a, b, c, uint64(len(x)), uint64(len(y))} {
		n += binary.PutUvarint(hdr[n:], v)
	}
	res.trace = append(append(append(res.trace, hdr[:n]...), x...), y...)
}

// frameKey identifies one protocol step's frame on one link: a process
// enters each view of a slot once, so it proposes (as leader) and acks at
// most once per (slot, view), and each such frame crosses a link once.
type frameKey struct {
	from, to types.ProcessID
	slot     uint64
	view     types.View
	kind     msg.Kind
}

// runSchedule runs three closed-loop client sessions against a window-4
// cluster under SeededDelay(seed, Δ) — with silent set, the view-1 leader is
// dead from the start, so every slot decides through a view change — until
// every live replica applied every request, and fails the test (naming the
// seed) if that takes more than scheduleLimit of virtual time, as soon as
// a Propose, Ack or AckSig crosses the same link twice for one slot and view,
// or as soon as a replica acks two values in one slot and view (every
// replica of the run is correct, and a correct process acks at most one
// value per view, Section 3.1).
func runSchedule(t *testing.T, cfg types.Config, seed int64, silent bool) scheduleResult {
	t.Helper()
	f := scheduleFaults{silent: types.NoProcess}
	if silent {
		f.silent = cfg.Leader(1)
	}
	return runFaultSchedule(t, cfg, seed, &f)
}

// runFaultSchedule is runSchedule with the faults of f: a silent replica,
// which may be the view-1 leader or not, faults aimed at chosen slots, and,
// once the sessions are done, one last request whose slot gets f.tail, so
// that no later slot shows the replica it hits that the cluster moved on.
// A lone AckSig is the one frame that may cross a link twice.
func runFaultSchedule(t *testing.T, cfg types.Config, seed int64, f *scheduleFaults) scheduleResult {
	t.Helper()
	var res scheduleResult
	seen := make(map[frameKey]bool)
	acked := make(map[frameKey]types.Value) // by (sender, slot, view); to and kind unset
	f.lone = make(map[slotView]struct{})
	g := newSimGroup(t, cfg, seed, groupOpts{
		jitter: scheduleDelta,
		window: 4,
		trace: func(ev sim.TraceEvent) {
			res.record('m', ev.Time, uint64(ev.From), uint64(ev.To), 0, ev.Payload, nil)
			_, s, inner, ok := openHeader(ev.Payload)
			if !ok {
				return
			}
			m, err := msg.Decode(inner)
			if err != nil {
				return
			}
			switch k := m.Kind(); k {
			case msg.KindPropose, msg.KindAck, msg.KindAckSig:
				if sf, ok := f.slots[s]; ok && sf.kind == loneAckSig && k == msg.KindAckSig {
					return
				}
				key := frameKey{ev.From, ev.To, s, m.InView(), k}
				if seen[key] {
					t.Fatalf("seed %d: %s sent a second %s of slot %d, view %s, to %s", seed, ev.From, k, s, m.InView(), ev.To)
				}
				seen[key] = true
				if ack, ok := m.(*msg.Ack); ok {
					own := frameKey{from: ev.From, slot: s, view: ack.View}
					if prev, ok := acked[own]; ok && !prev.Equal(ack.X) {
						t.Fatalf("seed %d: %s acked %s and %s in slot %d, view %s", seed, ev.From, prev, ack.X, s, ack.View)
					}
					acked[own] = ack.X
				}
			}
		},
	})
	if len(f.slots) > 0 || f.tail != nil {
		delay := sim.SeededDelay(seed, scheduleDelta)
		g.net.SetPayloadFunc(func(from, to types.ProcessID, payload []byte, now sim.Time) sim.Fate {
			fate := delay(from, to, payload, now)
			_, s, inner, ok := openHeader(payload)
			if !ok || len(inner) == 0 || s == ctrlSlot || s == syncSlot {
				return fate
			}
			k := msg.Kind(inner[0])
			fate.Drop = f.drops(from, to, s, k)
			if sf, ok := f.slots[s]; ok && sf.kind == loneAckSig && from == sf.target && k == msg.KindAck {
				if ack, err := msg.Decode(inner); err == nil {
					f.sendLoneAckSig(g, s, from, ack.(*msg.Ack))
				}
			}
			return fate
		})
	}
	if f.silent != types.NoProcess {
		g.crash(f.silent)
	}
	leaderSilent := f.silent == cfg.Leader(1)

	// Session c sends its k-th request through replica (c+k) mod n — skipping
	// a dead one — from the reply callback of request k-1: the sessions are
	// driven by what a client sees, replies, which are events of the schedule
	// the seed determines, and every reply goes on the trace. With the
	// view-1 leader up, that one replica's relay carries the request to it;
	// with the leader silent, the request goes to every live replica, entry
	// first, as internal/client sends it, so the view-change leader holds it.
	// A replica keeps a client's reply route, so later requests are answered
	// by every replica the session visited; the first reply to the
	// outstanding request triggers the next one.
	entries := func(c, k int) []*Replica {
		var out []*Replica
		for i := 0; i < cfg.N; i++ {
			if r := g.reps[(c+k+i)%cfg.N]; r != nil {
				out = append(out, r)
				if !leaderSilent {
					break
				}
			}
		}
		return out
	}
	next := make([]int, scheduleSessions) // requests issued so far, per session
	var issue func(c int)
	issue = func(c int) {
		next[c]++
		k := next[c]
		id := types.ClientID(fmt.Sprintf("s%d", c))
		op := kvSetOp(fmt.Sprintf("s%d-%d", c, k), fmt.Sprintf("v%d", k))
		for _, r := range entries(c, k) {
			err := r.HandleRequest(&msg.Request{Client: id, Seq: uint64(k), Op: op}, func(rep *msg.Reply) {
				res.record('r', g.net.Now(), uint64(rep.Replica), rep.Seq, rep.Slot, []byte(rep.Client), rep.Result)
				res.replies++
				if rep.Seq == uint64(next[c]) && next[c] < scheduleRequests {
					issue(c)
				}
			})
			if err != nil {
				t.Fatalf("seed %d: %v", seed, err)
			}
		}
	}
	total := uint64(scheduleSessions * scheduleRequests)
	for c := range next {
		issue(c)
	}
	if _, err := g.net.Run(scheduleLimit, g.applied(total)); err != nil {
		t.Fatal(err)
	}
	if !g.applied(total)() {
		t.Fatalf("seed %d: no progress to %d applied commands within %v of virtual time (%v)",
			seed, total, scheduleLimit, g.reps)
	}
	if f.tail != nil {
		// One more request, to every live replica, in a slot past every
		// other: the replica the fault hits sees no later slot decided.
		var s uint64
		g.live(func(_ types.ProcessID, r *Replica) { s = max(s, r.AppliedCount()) })
		f.slots[s] = *f.tail
		g.live(func(_ types.ProcessID, r *Replica) {
			req := &msg.Request{Client: "tail", Seq: 1, Op: kvSetOp("tail", "v")}
			if err := r.HandleRequest(req, nil); err != nil {
				t.Fatalf("seed %d: %v", seed, err)
			}
		})
		total++
		if _, err := g.net.Run(g.net.Now()+scheduleLimit, g.applied(total)); err != nil {
			t.Fatal(err)
		}
		if !g.applied(total)() {
			t.Fatalf("seed %d: the last request did not apply within %v of virtual time (%v)", seed, scheduleLimit, g.reps)
		}
	}
	res.elapsed = g.net.Now()
	g.net.Advance(time.Second) // stragglers, and any duplicate application

	first, last := map[uint64]time.Duration{}, map[uint64]time.Duration{}
	g.live(func(p types.ProcessID, r *Replica) {
		var log []types.Decision
		for s := uint64(0); s < r.AppliedCount(); s++ {
			d, ok := r.Decided(s)
			if !ok {
				t.Fatalf("seed %d: replica %s applied slot %d without a decision record", seed, p, s)
			}
			log = append(log, d)
		}
		res.decided = append(res.decided, log)
		res.stores = append(res.stores, g.stores[p].Snapshot())
		for s, at := range g.logs[p].appliedAt() {
			if a, ok := first[s]; !ok || at < a {
				first[s] = at
			}
			last[s] = max(last[s], at)
		}
		res.timer += r.m.slowTimer.Load()
		res.order += r.m.slowOrder.Load()
		res.peer += r.m.slowPeer.Load()
		res.xfer += r.m.pathXfer.Load()
		res.regime += r.m.regime.Load()

		// Exactly-once per (client, seq): every request wrote a key of its
		// own, so all keys present and no more executions than requests means
		// each ran once.
		if got := g.stores[p].AppliedOps(); got != total {
			t.Fatalf("seed %d: replica %s executed %d commands for %d requests", seed, p, got, total)
		}
		for c := 0; c < scheduleSessions; c++ {
			for k := 1; k <= scheduleRequests; k++ {
				if v, ok := g.stores[p].Get(fmt.Sprintf("s%d-%d", c, k)); !ok || v != fmt.Sprintf("v%d", k) {
					t.Fatalf("seed %d: replica %s: request s%d/%d left %q (present=%v)", seed, p, c, k, v, ok)
				}
			}
		}
	})
	for s, at := range first {
		res.lag = max(res.lag, last[s]-at)
	}
	// Agreement per slot, and byte-identical application state.
	for i := 1; i < len(res.decided); i++ {
		for s := 0; s < len(res.decided[i]) && s < len(res.decided[0]); s++ {
			if !res.decided[i][s].Value.Equal(res.decided[0][s].Value) {
				t.Fatalf("seed %d: slot %d decided differently on two replicas", seed, s)
			}
		}
		if !bytes.Equal(res.stores[i], res.stores[0]) {
			t.Fatalf("seed %d: replica stores diverged", seed)
		}
	}
	return res
}

// sendLoneAckSig sends, once per slot and view, replica p's valid AckSig
// for the value of its Ack to every peer, ahead of anything p's own
// instance would send.
func (f *scheduleFaults) sendLoneAckSig(g *simGroup, s uint64, p types.ProcessID, ack *msg.Ack) {
	key := slotView{s, ack.View}
	if _, done := f.lone[key]; done {
		return
	}
	f.lone[key] = struct{}{}
	signer := domainSigner{inner: g.scheme.Signer(p), salt: slotDomain(0, s)}
	frame := envelope(0, s, &msg.AckSig{View: ack.View, X: ack.X, Phi: signer.Sign(msg.AckDigest(ack.X, ack.View))})
	g.net.Clock(p).AfterFunc(0, func() {
		for q := 0; q < g.cfg.N; q++ {
			if types.ProcessID(q) != p {
				_ = g.net.Transport(p).Send(types.ProcessID(q), frame)
			}
		}
	})
}

// seededFaults draws a run's faults from its seed: in one run of four a
// silent replica, the view-1 leader or not; each of the first 24 slots hit
// with probability 1/3 by an ackDrop, a noPropose or a loneAckSig aimed at a
// live replica; and an ackDrop on the last request's slot. A noPropose is
// drawn only where the slot can decide without its target's ack, and an
// ackDrop loses the Acks of t + 1 live senders, so its target misses the
// fast quorum that the others reach.
func seededFaults(cfg types.Config, seed int64) *scheduleFaults {
	rng := rand.New(rand.NewSource(seed))
	f := &scheduleFaults{silent: types.NoProcess, slots: make(map[uint64]slotFault)}
	if rng.Intn(4) == 0 {
		f.silent = types.ProcessID(rng.Intn(cfg.N))
	}
	var live []types.ProcessID
	for p := 0; p < cfg.N; p++ {
		if types.ProcessID(p) != f.silent {
			live = append(live, types.ProcessID(p))
		}
	}
	th := quorum.New(cfg)
	pick := func(but types.ProcessID) types.ProcessID {
		for {
			if p := live[rng.Intn(len(live))]; p != but {
				return p
			}
		}
	}
	drop := func() slotFault {
		sf := slotFault{kind: ackDrop, target: pick(types.NoProcess)}
		for _, i := range rng.Perm(len(live)) {
			if p := live[i]; p != sf.target && len(sf.from) <= cfg.T {
				sf.from = append(sf.from, p)
			}
		}
		return sf
	}
	canDeaf := len(live)-1 >= th.CommitQuorum() // the slow path decides without the deaf target
	for s := uint64(0); s < 24; s++ {
		if rng.Intn(3) != 0 {
			continue
		}
		switch k := faultKind(1 + rng.Intn(3)); {
		case k == noPropose && canDeaf:
			f.slots[s] = slotFault{kind: noPropose, target: pick(cfg.Leader(1))}
		case k == loneAckSig:
			f.slots[s] = slotFault{kind: loneAckSig, target: pick(types.NoProcess)}
		default:
			f.slots[s] = drop()
		}
	}
	tail := drop()
	f.tail = &tail
	return f
}

// TestSeededScheduleReplays: one seed, run twice, yields a byte-identical
// trace — every delivery and every client-observed reply, in order — and
// identical decided logs on every replica: the property that makes a printed
// seed a reproduction. The silenced-leader variant
// replays the regime timers and the windowed view change too.
func TestSeededScheduleReplays(t *testing.T) {
	cfg := types.Generalized(1, 1)
	for _, silent := range []bool{false, true} {
		a := runSchedule(t, cfg, 1234, silent)
		b := runSchedule(t, cfg, 1234, silent)
		if !bytes.Equal(a.trace, b.trace) {
			t.Fatalf("silent=%v: same seed, different delivery traces (%d vs %d bytes)", silent, len(a.trace), len(b.trace))
		}
		if !reflect.DeepEqual(a.decided, b.decided) {
			t.Fatalf("silent=%v: same seed, different decided logs", silent)
		}
		if len(a.trace) == 0 || len(a.decided[0]) == 0 {
			t.Fatal("the run recorded nothing")
		}
		if a.replies < scheduleSessions*scheduleRequests {
			t.Fatalf("silent=%v: the trace holds %d replies for %d requests", silent, a.replies, scheduleSessions*scheduleRequests)
		}
		if c := runSchedule(t, cfg, 1235, silent); bytes.Equal(a.trace, c.trace) {
			t.Fatalf("silent=%v: different seeds, same delivery trace", silent)
		}
	}
}

// TestSeededScheduleSmoke runs -sim.seeds seeds (20 by default; `make
// sim-sweep` runs more) of each scenario and checks, per run, agreement per
// slot, exactly-once execution, byte-identical stores, that no replica acks
// two values in one view, and progress within bounded virtual time. A
// failure names its seed.
func TestSeededScheduleSmoke(t *testing.T) {
	for _, sc := range []struct {
		name   string
		cfg    types.Config
		silent bool
	}{
		{"n4", types.Generalized(1, 1), false},
		{"n7", types.Generalized(2, 1), false},
		{"n4-silent-leader", types.Generalized(1, 1), true},
	} {
		t.Run(sc.name, func(t *testing.T) {
			var worst time.Duration
			for seed := *simFirst; seed < *simFirst+int64(*simSeeds); seed++ {
				if res := runSchedule(t, sc.cfg, seed, sc.silent); res.elapsed > worst {
					worst = res.elapsed
				}
			}
			t.Logf("%d seeds from %d: slowest run took %v of virtual time", *simSeeds, *simFirst, worst)
		})
	}
}

// TestSeededScheduleSmokeLazySlowPath explores the held AckSig's triggers:
// -sim.seeds seeds (at least 50 unless the flag is given; `make sim-sweep`
// runs more) at n = 4 and at n = 7 (f = 2, t = 1), each under the faults
// seededFaults draws from it — Acks lost on chosen links so that some
// correct replicas miss a fast quorum the others decide on, a replica that
// never receives a slot's Propose, a silent replica, a correct peer that
// sends its AckSig alone — on top of the seeded delays. Besides
// runSchedule's oracles (agreement, exactly-once, identical stores, bounded
// progress), every slot must reach every live replica within two regime
// delays at their ceiling (BaseTimeout) of its first application anywhere,
// and a run whose view-1 leader is alive must suspect it nowhere: a slot
// whose fast quorum is late is resolved by its slow path or by state
// transfer, never by a view change. A failure names its seed; replay with
// -sim.first=<seed> -sim.seeds=1.
func TestSeededScheduleSmokeLazySlowPath(t *testing.T) {
	seeds := 50
	flag.Visit(func(fl *flag.Flag) {
		if fl.Name == "sim.seeds" {
			seeds = *simSeeds
		}
	})
	bound := 2 * viewsync.DefaultBaseTimeout
	for _, sc := range []struct {
		name string
		cfg  types.Config
	}{
		{"n4", types.Generalized(1, 1)},
		{"n7", types.Generalized(2, 1)},
	} {
		t.Run(sc.name, func(t *testing.T) {
			var worst time.Duration
			var sum scheduleResult
			for seed := *simFirst; seed < *simFirst+int64(seeds); seed++ {
				f := seededFaults(sc.cfg, seed)
				res := runFaultSchedule(t, sc.cfg, seed, f)
				if res.lag > bound {
					t.Fatalf("seed %d: a slot reached the last live replica %v after the first (bound %v)", seed, res.lag, bound)
				}
				if f.silent != sc.cfg.Leader(1) && res.regime != 0 {
					t.Fatalf("seed %d: %d regime timeouts with the view-1 leader alive (faults %+v)", seed, res.regime, f)
				}
				worst = max(worst, res.lag)
				sum.timer += res.timer
				sum.order += res.order
				sum.peer += res.peer
				sum.xfer += res.xfer
			}
			t.Logf("%d seeds from %d: a slot reached every live replica within %v of its first application (bound %v); slow paths started by a regime fire %d times, by a later slot's decision %d times, by a peer %d times; %d slots decided from state-transfer tails",
				seeds, *simFirst, worst, bound, sum.timer, sum.order, sum.peer, sum.xfer)
			if sum.timer == 0 || sum.peer == 0 {
				t.Fatalf("the faults never made a held AckSig's timer (%d) or peer (%d) trigger fire", sum.timer, sum.peer)
			}
		})
	}
}

// TestFetchRetryLoop pins the state-sync retry policy on virtual time. With
// every peer silent, a replica that saw lag evidence re-sends FetchState
// every fetchRetryCooldown, round-robin over its peers, and parks the sync
// after one fruitless cycle of n retries — that is what bounds the work a
// Byzantine peer can cause with an inflated evidence slot. On the serving
// side, a second FetchState from the same requester inside
// fetchRetryCooldown/2 is refused.
func TestFetchRetryLoop(t *testing.T) {
	cfg := types.Generalized(1, 1)
	g := newSimGroup(t, cfg, 61, groupOpts{interval: 2})
	r := g.reps[0]

	// Give replica 0 something to serve: a stable checkpoint.
	submitOps(t, r, "c", 0, 4)
	g.settle()
	if _, ok := r.StableCheckpoint(); !ok {
		t.Fatal("no stable checkpoint after two intervals")
	}

	type send struct {
		at time.Duration
		to types.ProcessID
	}
	var fetches []send
	served := 0
	g.net.SetPayloadFunc(func(from, to types.ProcessID, payload []byte, now sim.Time) sim.Fate {
		_, s, m, ok := OpenEnvelope(payload)
		if !ok || s != syncSlot {
			return sim.Fate{}
		}
		switch m.(type) {
		case *msg.FetchState:
			if from == r.cfg.Self {
				fetches = append(fetches, send{now, to})
				return sim.Fate{Drop: true} // every peer stays silent
			}
		case *msg.StateSnapshot:
			if from == r.cfg.Self {
				served++
			}
		}
		return sim.Fate{}
	})

	// Serving side first: three requests from process 3, the second inside
	// the refusal window, the third just past it.
	ask := func() {
		_ = g.net.Transport(3).Send(0, Envelope(0, syncSlot, &msg.FetchState{From: 0}))
		g.settle()
	}
	ask()
	g.net.Advance(fetchRetryCooldown/2 - 1)
	ask()
	if served != 1 {
		t.Fatalf("%d responses to two requests %v apart, want the second refused", served, fetchRetryCooldown/2-1)
	}
	g.net.Advance(1)
	ask()
	if served != 2 {
		t.Fatalf("%d responses after the refusal window passed, want 2", served)
	}

	// Requesting side: lag evidence from process 2, far beyond the frontier.
	start := g.net.Now()
	r.mu.Lock()
	r.noteBehindLocked(r.applyPtr+100, 2)
	r.mu.Unlock()
	g.net.Advance(time.Duration(cfg.N+3) * fetchRetryCooldown)

	want := []send{{0, 2}}
	for i, to := 1, types.ProcessID(2); i <= cfg.N; i++ {
		if to = (to + 1) % types.ProcessID(cfg.N); to == r.cfg.Self {
			to = (to + 1) % types.ProcessID(cfg.N)
		}
		want = append(want, send{time.Duration(i) * fetchRetryCooldown, to})
	}
	for i := range fetches {
		fetches[i].at -= start
	}
	if !reflect.DeepEqual(fetches, want) {
		t.Fatalf("fetch schedule %v, want %v (one per cooldown, round-robin, parked after %d retries)", fetches, want, cfg.N)
	}
	r.mu.Lock()
	parked := r.fetchAt == 0
	r.mu.Unlock()
	if !parked {
		t.Fatal("the sync loop is still armed after a fruitless cycle")
	}
	// Fresh evidence re-arms it.
	r.mu.Lock()
	r.noteBehindLocked(r.applyPtr+200, 3)
	r.mu.Unlock()
	if got := fetches[len(fetches)-1]; got.to != 3 {
		t.Fatalf("fresh evidence from process 3 sent the fetch to %s", got.to)
	}
}
