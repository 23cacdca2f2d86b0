package smr

import (
	"fmt"
	"strings"
	"sync/atomic"
	"testing"
	"time"

	"repro/internal/msg"
	"repro/internal/quorum"
	"repro/internal/sigcrypto"
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

// ledgerCounts is one run's tally: frames by kind, as the senders emit them
// (a broadcast is n − 1 frames), with request relays apart, and every
// signature operation of the group.
type ledgerCounts struct {
	frames   [maxMsgKind + 1]int64
	relays   int64
	signs    atomic.Int64
	verifies atomic.Int64
}

func (c *ledgerCounts) reset() {
	c.frames = [maxMsgKind + 1]int64{}
	c.relays = 0
	c.signs.Store(0)
	c.verifies.Store(0)
}

// countingScheme counts every Sign and Verify of the scheme it wraps.
type countingScheme struct {
	sigcrypto.Scheme
	c *ledgerCounts
}

func (s countingScheme) Signer(p types.ProcessID) sigcrypto.Signer {
	return countingSigner{s.Scheme.Signer(p), s.c}
}

func (s countingScheme) Verifier() sigcrypto.Verifier {
	return countingVerifier{s.Scheme.Verifier(), s.c}
}

type countingSigner struct {
	sigcrypto.Signer
	c *ledgerCounts
}

func (s countingSigner) Sign(m []byte) sigcrypto.Signature {
	s.c.signs.Add(1)
	return s.Signer.Sign(m)
}

type countingVerifier struct {
	sigcrypto.Verifier
	c *ledgerCounts
}

func (v countingVerifier) Verify(m []byte, sig sigcrypto.Signature) bool {
	v.c.verifies.Add(1)
	return v.Verifier.Verify(m, sig)
}

// ledgerRegime is one way of running the closed loop.
type ledgerRegime struct {
	name     string
	everyone bool // hand each request to every live replica, not the leader only
	dropAcks bool // lose every Ack frame, so no slot can decide on the fast path
	silent   int  // replicas crashed before the run (never the leader)
}

// ledgerRow is one regime's per-slot cost: frames and allocations for the
// whole group, signature operations per live replica, and how many slots a
// live replica decided off the regime's path (slow with Acks lost, fast
// otherwise).
type ledgerRow struct {
	frames   [maxMsgKind + 1]float64
	relays   float64
	signs    float64
	verifies float64
	allocs   float64
	offPath  float64
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

// runLedger runs warm-up slots, then ledgerSlots closed-loop slots of one
// client session under testing.AllocsPerRun (plus its own warm-up call),
// and divides the tally by the slots the group applied meanwhile.
func runLedger(t *testing.T, cfg types.Config, reg ledgerRegime) ledgerRow {
	t.Helper()
	c := &ledgerCounts{}
	const delta = time.Millisecond
	g := newSimGroup(t, cfg, 91, groupOpts{
		delta:  delta,
		scheme: countingScheme{sigcrypto.NewHMAC(cfg.N, 91), c},
	})
	for i := 0; i < reg.silent; i++ {
		g.crash(types.ProcessID(cfg.N - 1 - i))
	}
	live := cfg.N - reg.silent
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
		return sim.Fate{Delay: delta, Drop: reg.dropAcks && k == msg.KindAck}
	})

	leader := cfg.Leader(1)
	seq := uint64(0)
	op := func() {
		seq++
		req := &msg.Request{Client: "ledger", Seq: seq, Op: kvSetOp(fmt.Sprintf("k%d", seq), "v")}
		g.live(func(p types.ProcessID, r *Replica) {
			if reg.everyone || p == leader {
				if err := r.HandleRequest(req, nil); err != nil {
					t.Fatal(err)
				}
			}
		})
		g.run(time.Second, g.applied(seq), "a closed-loop slot to apply")
	}
	for i := 0; i < 3; i++ {
		op() // seed the decide-latency estimates and the replicas' maps
	}
	c.reset()
	from := g.reps[leader].AppliedCount()
	allocs := testing.AllocsPerRun(ledgerSlots, op)
	slots := float64(g.reps[leader].AppliedCount() - from)
	if slots < ledgerSlots {
		t.Fatalf("%s: %v slots applied for %d closed-loop requests", reg.name, slots, ledgerSlots)
	}
	row := ledgerRow{
		relays:   float64(c.relays) / slots,
		signs:    float64(c.signs.Load()) / slots / float64(live),
		verifies: float64(c.verifies.Load()) / slots / float64(live),
		allocs:   allocs,
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
	})
	return row
}

// TestCostLedger pins what one closed-loop slot costs at n = 4 and n = 7,
// per regime, against the paper's arithmetic (HMAC, Δ = 1 ms, one request
// in flight, MaxBatch 1; live replicas are the ones not silenced):
//
//   - the view-1 leader proposes once: n − 1 Propose frames;
//   - every live replica acks and ack-signs once and, having seen
//     CommitQuorum = ⌈(n+f+1)/2⌉ AckSigs, commits once: live·(n − 1) Ack,
//     AckSig and Commit frames each — n(n − 1) fault-free;
//   - nothing else flows: no view-change, checkpoint or fetch traffic;
//   - a live replica signs its AckSig, the leader its Propose as well:
//     (live + 1)/live signatures per replica;
//   - a replica verifies the Propose, every AckSig that reaches it, and the
//     CommitQuorum signatures of every Commit's certificate (its own
//     included): 1 + live + live·⌈(n+f+1)/2⌉ — 1 + n + n·⌈(n+f+1)/2⌉
//     fault-free;
//   - a request reaches the leader once: a follower relays it to Leader(1)
//     only, so live − 1 relays when the client hands it to every live
//     replica, none when it hands it to the leader alone.
//
// The slow regime loses every Ack (and, at n = 7, two replicas are silent,
// as in the kv-slowpath benchmark), so every slot decides through Commit
// certificates, still in view 1; the fault-free regimes decide every slot on
// the fast path. The allocation figure counts the simulator's events too, so
// it is a plain ceiling for the whole group: the measured value plus 2 %.
func TestCostLedger(t *testing.T) {
	var line []string
	for _, tc := range []struct {
		cfg    types.Config
		silent int                // replicas silenced in the slow regime
		allocs map[string]float64 // measured allocations per slot, whole group
	}{
		{types.Generalized(1, 1), 0, map[string]float64{"leader-only": 1228, "every-replica": 1261, "slow": 1201}},
		{types.Generalized(2, 1), 2, map[string]float64{"leader-only": 4082, "every-replica": 4148, "slow": 2200}},
	} {
		n, f := tc.cfg.N, tc.cfg.F
		q := quorum.New(tc.cfg).CommitQuorum()
		if q != (n+f+2)/2 { // ⌈(n+f+1)/2⌉
			t.Fatalf("n=%d: CommitQuorum %d, want ⌈(n+f+1)/2⌉ = %d", n, q, (n+f+2)/2)
		}
		for _, reg := range []ledgerRegime{
			{name: "leader-only"},
			{name: "every-replica", everyone: true},
			{name: "slow", everyone: true, dropAcks: true, silent: tc.silent},
		} {
			row := runLedger(t, tc.cfg, reg)
			live := n - reg.silent
			relays := 0
			if reg.everyone {
				relays = live - 1
			}
			for _, c := range []struct {
				what      string
				got, want float64
			}{
				{"Propose frames per slot", row.frames[msg.KindPropose], float64(n - 1)},
				{"Ack frames per slot", row.frames[msg.KindAck], float64(live * (n - 1))},
				{"AckSig frames per slot", row.frames[msg.KindAckSig], float64(live * (n - 1))},
				{"Commit frames per slot", row.frames[msg.KindCommit], float64(live * (n - 1))},
				{"other frames per slot", row.total() - row.consensus(), 0},
				{"request relays per slot", row.relays, float64(relays)},
				{"signs per slot and replica", row.signs, float64(live+1) / float64(live)},
				{"verifies per slot and replica", row.verifies, float64(1 + live + live*q)},
				{"slots decided off the regime's path", row.offPath, 0},
			} {
				if c.got != c.want {
					t.Errorf("n=%d %s: %s = %v, want %v", n, reg.name, c.what, c.got, c.want)
				}
			}
			if ceil := tc.allocs[reg.name] * 1.02; row.allocs > ceil {
				t.Errorf("n=%d %s: %.0f allocations per slot, ceiling %.0f", n, reg.name, row.allocs, ceil)
			}
			line = append(line, fmt.Sprintf("n=%d %s: consensus %.0f relay %.0f verify %.2f sign %.2f allocs %.0f (%.1f/replica)",
				n, reg.name, row.consensus(), row.relays, row.verifies, row.signs, row.allocs, row.allocs/float64(live)))
		}
	}
	t.Log("ledger " + strings.Join(line, "; "))
}
