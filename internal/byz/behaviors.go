package byz

import (
	"crypto/sha256"
	"sync"
	"sync/atomic"

	"repro/internal/msg"
	"repro/internal/quorum"
	"repro/internal/sigcrypto"
	"repro/internal/smr"
	"repro/internal/types"
)

// The behaviors below are the adversarial replica strategies the Byzantine
// harness runs against the full SMR stack (see docs/THREAT_MODEL.md for the
// attack taxonomy and the safety/liveness claim each one probes). The
// workload-triggered ones arm on the first relayed client request — the
// natural "cluster is live" signal an adversary can observe. Followers relay
// requests only to the view-1 leader, so these must run as that leader (as
// every harness and drill places them); they then work unmodified in
// lockstep simulations and in multi-process clusters.

// SlotEquivocator is a corrupted process that, as leader of view 1 of one
// log slot, proposes ValueA to the processes in GroupA and ValueB to
// everyone else, then goes silent — it never acks either value, so with
// the split below the commit quorum neither branch can decide in view 1
// and the slot must recover through a view change. The view change's vote
// selection then has to pick one branch; safety holds iff every correct
// replica converges on the same one.
type SlotEquivocator struct {
	// Slot is the log slot to attack.
	Slot uint64
	// ValueA goes to GroupA, ValueB to the remaining processes.
	ValueA, ValueB types.Value
	GroupA         map[types.ProcessID]bool

	fired bool
}

// Start implements Behavior.
func (e *SlotEquivocator) Start(*Driver) {}

// Deliver implements Behavior: the first relayed client request triggers
// the equivocating proposals.
func (e *SlotEquivocator) Deliver(d *Driver, _ types.ProcessID, slot uint64, _ msg.Message) {
	if e.fired || slot != smr.CtrlSlotID {
		return
	}
	e.fired = true
	f := d.Forger(e.Slot)
	pa := f.Propose(e.ValueA, 1, nil)
	pb := f.Propose(e.ValueB, 1, nil)
	d.EachPeer(func(p types.ProcessID) {
		if e.GroupA[p] {
			d.Send(p, e.Slot, pa)
		} else {
			d.Send(p, e.Slot, pb)
		}
	})
}

// GarbageBatch is a non-empty value that is not a valid batch encoding:
// correct replicas decide it (consensus never interprets values) and the
// apply loop must count, log, and skip it.
var GarbageBatch = types.Value("\xffgarbage-not-a-batch")

// GarbageProposer is a corrupted process that, as leader of view 1, drives
// the first Slots log slots to decide a non-batch value, then goes silent.
// The malformed decisions must be counted (fastbft_malformed_batches_total
// in the replica's metrics registry), logged, and skipped without stalling
// the in-order apply loop; client commands the garbage crowded out must
// still execute in later slots, which the silence forces through the
// windowed view change.
type GarbageProposer struct {
	// Slots is how many log slots (from 0) receive a garbage proposal.
	Slots uint64
	// Payload overrides GarbageBatch when non-nil.
	Payload types.Value

	fired bool
}

// Start implements Behavior.
func (g *GarbageProposer) Start(*Driver) {}

// Deliver implements Behavior: the first relayed client request triggers
// the garbage proposals.
func (g *GarbageProposer) Deliver(d *Driver, _ types.ProcessID, slot uint64, _ msg.Message) {
	if g.fired || slot != smr.CtrlSlotID {
		return
	}
	g.fired = true
	payload := g.Payload
	if payload == nil {
		payload = GarbageBatch
	}
	for s := uint64(0); s < g.Slots; s++ {
		d.Broadcast(s, d.Forger(s).Propose(payload, 1, nil))
	}
}

// StaleSnapshotServer attacks state transfer. It lures a recovering victim
// into fetching from the corrupted process (a signed far-future checkpoint
// is lag evidence, and the fetch goes to the evidence's sender), then
// serves every poisoned response shape the receiver must reject:
//
//   - a snapshot under a forged certificate (below the signature quorum),
//   - a well-formed snapshot of a genuine certificate's slot whose bytes
//     do not hash to the certificate's digest,
//   - a forged tail: GarbageBatch claimed for the slot after the genuine
//     tail, a value no correct replica decided and only this responder
//     reports,
//   - and finally a genuine but stale response, recorded earlier from a
//     correct peer and replayed frame for frame — verifiable progress,
//     but short of the frontier.
//
// The stale response is the liveness half of the attack: the victim
// accepts it (it is real), stays behind the cluster, and must escape via
// the round-robin fetch retry rather than park on the corrupted server.
type StaleSnapshotServer struct {
	// Victim is the recovering process to poison.
	Victim types.ProcessID

	mu           sync.Mutex
	stale        []*msg.StateSnapshot // the harvested response, frame by frame
	harvested    bool                 // stale holds a complete response
	poisonServed int
	forgedSlot   uint64
}

// Start implements Behavior.
func (s *StaleSnapshotServer) Start(*Driver) {}

// Harvest asks a correct peer for a genuine StateSnapshot; the recorded
// response is later replayed, stale, to the victim.
func (s *StaleSnapshotServer) Harvest(d *Driver, peer types.ProcessID) {
	d.Send(peer, smr.SyncSlotID, &msg.FetchState{From: 0})
}

// Lure sends the victim a signed checkpoint claiming the corrupted process
// has applied through evidence — unverifiable lag evidence that attracts
// the victim's next FetchState.
func (s *StaleSnapshotServer) Lure(d *Driver, evidence uint64) { lure(d, s.Victim, evidence) }

// lure sends victim, from d, a signed checkpoint at evidence.
func lure(d *Driver, victim types.ProcessID, evidence uint64) {
	sum := sha256.Sum256([]byte("no-such-state"))
	cp := types.Checkpoint{Slot: evidence, StateHash: sum[:]}
	d.Send(victim, smr.SyncSlotID, &msg.Checkpoint{
		CP:  cp,
		Phi: d.Signer().Sign(msg.CheckpointDigest(cp)),
	})
}

// Stale reports whether a genuine response has been harvested.
func (s *StaleSnapshotServer) Stale() bool {
	s.mu.Lock()
	defer s.mu.Unlock()
	return s.harvested
}

// StaleTailLen returns how many tail decisions the harvested response
// carries (the forged tail claims the slot after them, so it needs one).
func (s *StaleSnapshotServer) StaleTailLen() int {
	s.mu.Lock()
	defer s.mu.Unlock()
	if !s.harvested {
		return 0
	}
	return len(s.stale[len(s.stale)-1].Tail)
}

// ForgedSlot returns the slot the last forged tail claimed.
func (s *StaleSnapshotServer) ForgedSlot() uint64 {
	s.mu.Lock()
	defer s.mu.Unlock()
	return s.forgedSlot
}

// PoisonServed returns how many poisoned fetch rounds were served to the
// victim.
func (s *StaleSnapshotServer) PoisonServed() int {
	s.mu.Lock()
	defer s.mu.Unlock()
	return s.poisonServed
}

// Deliver implements Behavior: genuine responses are recorded for stale
// replay, and the victim's fetches are served poison.
func (s *StaleSnapshotServer) Deliver(d *Driver, from types.ProcessID, slot uint64, m msg.Message) {
	if slot != smr.SyncSlotID {
		return
	}
	switch t := m.(type) {
	case *msg.StateSnapshot:
		if from == s.Victim {
			return
		}
		// Record one whole response: its first frame starts at offset 0,
		// its last completes the snapshot (or carries only a tail).
		s.mu.Lock()
		if t.Offset == 0 {
			s.stale = nil
		}
		s.stale = append(s.stale, t)
		s.harvested = t.Offset+uint64(len(t.Data)) >= t.Total
		s.mu.Unlock()
	case *msg.FetchState:
		if from != s.Victim {
			return
		}
		s.mu.Lock()
		var stale []*msg.StateSnapshot
		if s.harvested {
			stale = s.stale
		}
		s.poisonServed++
		s.mu.Unlock()

		// Forged certificate: the digest matches the bytes, but the only
		// signature is the adversary's own — below CertQuorum.
		poison := []byte("poisoned-snapshot-bytes")
		sum := sha256.Sum256(poison)
		cp := types.Checkpoint{Slot: t.From + 1000, StateHash: sum[:]}
		forged := msg.CheckpointCert{CP: cp, Sigs: []sigcrypto.Signature{
			d.Signer().Sign(msg.CheckpointDigest(cp)),
		}}
		d.Send(s.Victim, smr.SyncSlotID, &msg.StateSnapshot{
			Cert: forged, Total: uint64(len(poison)), Data: poison,
		})

		if len(stale) > 0 && stale[0].Total > 0 {
			// Genuine certificate, wrong bytes: a well-formed snapshot of
			// the certified slot holding an empty store. The certificate
			// opens the reassembly and the snapshot decodes; only the
			// certified digest rejects it.
			empty := smr.SnapshotOf(stale[0].Cert.CP.Slot, smr.NewKVStore().Snapshot())
			d.Send(s.Victim, smr.SyncSlotID, &msg.StateSnapshot{
				Cert: stale[0].Cert, Total: uint64(len(empty)), Data: empty,
			})
		}
		if len(stale) > 0 && len(stale[len(stale)-1].Tail) > 0 {
			// A forged tail: one responder's word for the slot after the
			// genuine tail, which f+1 responders never confirm.
			tail := stale[len(stale)-1].Tail
			slot := tail[len(tail)-1].Slot + 1
			s.mu.Lock()
			s.forgedSlot = slot
			s.mu.Unlock()
			d.Send(s.Victim, smr.SyncSlotID, &msg.StateSnapshot{
				Tail: []msg.TailDecision{{Slot: slot, Value: GarbageBatch}},
			})
		}
		// The stale-but-genuine response, last and frame for frame: the
		// victim accepts it and lands behind the frontier.
		for _, f := range stale {
			d.Send(s.Victim, smr.SyncSlotID, f)
		}
	}
}

// CertReplayer is a corrupted process that records the commit certificates
// the cluster broadcasts (any process receives Commit messages — no
// protocol deviation needed to harvest them) and replays a certificate
// decided in one log slot into other slots' envelopes. Slot-salted
// signatures are the mechanism under test: a certificate from slot j must
// verify in no other slot, so the replay must change no replica's decision
// for the target slot.
type CertReplayer struct {
	mu    sync.Mutex
	seen  map[uint64]*msg.Commit
	order []uint64
}

// Start implements Behavior.
func (c *CertReplayer) Start(*Driver) {}

// Deliver implements Behavior: Commit messages are recorded per slot.
func (c *CertReplayer) Deliver(_ *Driver, _ types.ProcessID, slot uint64, m msg.Message) {
	cm, ok := m.(*msg.Commit)
	if !ok || slot == smr.CtrlSlotID || slot == smr.SyncSlotID {
		return
	}
	c.mu.Lock()
	defer c.mu.Unlock()
	if c.seen == nil {
		c.seen = make(map[uint64]*msg.Commit)
	}
	if _, dup := c.seen[slot]; !dup {
		c.seen[slot] = cm
		c.order = append(c.order, slot)
	}
}

// Harvested returns the first slot a commit certificate was recorded for.
func (c *CertReplayer) Harvested() (uint64, bool) {
	c.mu.Lock()
	defer c.mu.Unlock()
	if len(c.order) == 0 {
		return 0, false
	}
	return c.order[0], true
}

// Replay broadcasts the commit certificate recorded for slot from inside
// slot to's envelope. It reports whether a certificate was available.
func (c *CertReplayer) Replay(d *Driver, from, to uint64) bool {
	c.mu.Lock()
	cm := c.seen[from]
	c.mu.Unlock()
	if cm == nil {
		return false
	}
	d.Broadcast(to, cm)
	return true
}

// AckEquivocator probes the recovery re-ack guard: as leader of view 1 of
// one slot it proposes ValueA to a single durable victim (who acks and
// persists the vote), waits for the test to crash and recover the victim,
// and then proposes ValueB for the same slot and view. A correct recovery
// must hold the victim to its persisted ack — it stays silent on the
// conflicting proposal — or the adversary has turned a crash into an
// equivocation by a correct process.
type AckEquivocator struct {
	// Slot is the log slot to attack; Victim the durable process.
	Slot   uint64
	Victim types.ProcessID
	// ValueA is proposed before the crash, ValueB after recovery.
	ValueA, ValueB types.Value
}

// Start implements Behavior.
func (a *AckEquivocator) Start(*Driver) {}

// Deliver implements Behavior (the attack is test-scripted; deliveries are
// ignored).
func (a *AckEquivocator) Deliver(*Driver, types.ProcessID, uint64, msg.Message) {}

// ProposeFirst sends the victim the pre-crash proposal for ValueA.
func (a *AckEquivocator) ProposeFirst(d *Driver) {
	d.Send(a.Victim, a.Slot, d.Forger(a.Slot).Propose(a.ValueA, 1, nil))
}

// ProposeConflict sends the recovered victim the conflicting proposal for
// ValueB, same slot and view.
func (a *AckEquivocator) ProposeConflict(d *Driver) {
	d.Send(a.Victim, a.Slot, d.Forger(a.Slot).Propose(a.ValueB, 1, nil))
}

// CertWithholder is a pair of corrupted processes, one of them the view-1
// leader, that turn one valid commit certificate into a false claim about
// what a slot decided (the n = 3f + 2t − 1, f > t shape, where a
// certificate can verify for a value the next view must not select):
//
//   - the leader proposes X to the correct processes in GroupX and Y to the
//     other correct ones;
//   - both members add their own ack signatures for X to GroupX's, so a
//     commit certificate for X in view 1 forms and verifies, and they keep
//     it: no correct process ever holds it, and none decides in view 1;
//   - in view 2 the colluder votes for Y. With the equivocating leader's
//     votes set aside, the new leader's selection sees f + t votes for Y
//     and must pick Y, which could have been decided fast. View 2 decides Y;
//   - both members then answer any fetch of Victim with a tail that claims
//     X for Slot. The claim is backed by the certificate, and by no correct
//     process.
//
// Both members' drivers run the one value, which tells them apart by the
// driver a delivery comes through.
type CertWithholder struct {
	Slot   uint64
	X, Y   types.Value
	GroupX map[types.ProcessID]bool
	Victim types.ProcessID

	mu      sync.Mutex
	members map[types.ProcessID]*Driver
	propY   *msg.Propose
	sigs    map[types.ProcessID]sigcrypto.Signature // correct processes' AckSigs for X
	cc      *msg.CommitCert
	voted   bool
	served  int
}

// Start implements Behavior: it registers the member's driver.
func (w *CertWithholder) Start(d *Driver) {
	w.mu.Lock()
	defer w.mu.Unlock()
	if w.members == nil {
		w.members = make(map[types.ProcessID]*Driver)
		w.sigs = make(map[types.ProcessID]sigcrypto.Signature)
	}
	w.members[d.Self()] = d
}

// Cert returns the withheld certificate once it has formed.
func (w *CertWithholder) Cert() *msg.CommitCert {
	w.mu.Lock()
	defer w.mu.Unlock()
	return w.cc.Clone()
}

// Served returns how many of Victim's fetches the pair answered.
func (w *CertWithholder) Served() int {
	w.mu.Lock()
	defer w.mu.Unlock()
	return w.served
}

// Lure sends Victim, from member d, a signed checkpoint at evidence: lag
// evidence that makes d the target of the victim's next FetchState.
func (w *CertWithholder) Lure(d *Driver, evidence uint64) { lure(d, w.Victim, evidence) }

// Deliver implements Behavior for either member. The two drivers deliver
// concurrently on a real transport, hence the lock.
func (w *CertWithholder) Deliver(d *Driver, from types.ProcessID, slot uint64, m msg.Message) {
	w.mu.Lock()
	defer w.mu.Unlock()
	leader := d.Cluster().Leader(1) == d.Self()
	switch t := m.(type) {
	case *msg.Request:
		// The first relayed request: the leader equivocates on Slot.
		if slot != smr.CtrlSlotID || !leader || w.propY != nil {
			return
		}
		f := d.Forger(w.Slot)
		px, py := f.Propose(w.X, 1, nil), f.Propose(w.Y, 1, nil)
		w.propY = py
		d.EachPeer(func(p types.ProcessID) {
			switch {
			case w.members[p] != nil:
			case w.GroupX[p]:
				d.Send(p, w.Slot, px)
			default:
				d.Send(p, w.Slot, py)
			}
		})
	case *msg.AckSig:
		if slot != w.Slot || t.View != 1 || !t.X.Equal(w.X) || t.Phi.Signer != from ||
			w.members[from] != nil || w.cc != nil {
			return
		}
		w.sigs[from] = t.Phi
		th := quorum.New(d.Cluster())
		if len(w.sigs)+len(w.members) < th.CommitQuorum() {
			return
		}
		cc := &msg.CommitCert{Value: w.X.Clone(), View: 1}
		for _, sig := range w.sigs {
			cc.Sigs = append(cc.Sigs, sig)
		}
		for _, md := range w.members {
			cc.Sigs = append(cc.Sigs, md.Forger(w.Slot).AckSig(w.X, 1).Phi)
		}
		w.cc = cc
	case *msg.Wish:
		// The colluder's vote for Y, sent as view 2 opens.
		if slot != w.Slot || t.View != 2 || leader || w.voted || w.propY == nil {
			return
		}
		w.voted = true
		vr := msg.VoteRecord{Value: w.Y, View: 1, Tau: w.propY.Tau}
		d.Send(d.Cluster().Leader(2), w.Slot, d.Forger(w.Slot).Vote(vr, 2))
	case *msg.FetchState:
		if slot != smr.SyncSlotID || from != w.Victim || w.cc == nil {
			return
		}
		// Both members answer: two responders claim X, f of them at f = 2.
		w.served++
		claim := &msg.StateSnapshot{Tail: []msg.TailDecision{{Slot: w.Slot, Value: w.X}}}
		for _, md := range w.members {
			md.Send(w.Victim, smr.SyncSlotID, claim)
		}
	}
}

// squatJunk is the value of SlotSquatter's junk Acks: no leader proposes it.
var squatJunk = types.Value("\xffsquat")

// squatWindow is the window SlotSquatter squats: smr's default WindowSize,
// which every harness runs.
const squatWindow = 8

// SlotSquatter is a corrupted follower that opens the view-1 leader's window
// slots ahead of the leader: on every Propose it sees from that leader, for
// slot s, it sends the leader an unsigned junk Ack for every later slot of
// the window, s+1 to s+7. Each junk Ack opens the leader's instance for its
// slot before a request for that slot arrives. A leader that filled only
// slots with no instance skipped every one of them, and each write then
// waited out a regime timeout and a view change; the leader must fill a slot
// a peer opened exactly as it fills an unopened one.
type SlotSquatter struct {
	sent atomic.Int64
}

// Start implements Behavior.
func (q *SlotSquatter) Start(*Driver) {}

// Deliver implements Behavior: each view-1 Propose of the leader triggers
// the junk Acks for the slots after it.
func (q *SlotSquatter) Deliver(d *Driver, from types.ProcessID, slot uint64, m msg.Message) {
	leader := d.Cluster().Leader(1)
	if p, ok := m.(*msg.Propose); !ok || p.View != 1 || from != leader {
		return
	}
	for s := slot + 1; s < slot+squatWindow; s++ {
		d.Send(leader, s, &msg.Ack{View: 1, X: squatJunk})
		q.sent.Add(1)
	}
}

// Sent returns how many junk Acks the squatter has sent.
func (q *SlotSquatter) Sent() int64 { return q.sent.Load() }

// junkAckFlood is how many junk Acks JunkAcker sends per slot: as many
// values as the value-keyed ack tallies once tracked per instance.
const junkAckFlood = 4096

// JunkAcker is a corrupted follower that floods the view-1 leader with junk
// Acks: on every Propose it sees from that leader, for slot s, it sends the
// leader junkAckFlood Acks for slot s+1, each for a distinct 5-byte value
// no leader proposes, before the leader proposes there. It acks no real
// value. A replica that tallied Acks per (view, value), in a bounded number
// of such pairs, had no pair left for the real value once the junk took
// them, and decided no flooded slot fast; a replica that counts each
// sender's first Ack of a view, and drops its later ones unread, is not
// moved by the flood.
type JunkAcker struct {
	sent atomic.Int64
}

// Start implements Behavior.
func (j *JunkAcker) Start(*Driver) {}

// Deliver implements Behavior: each view-1 Propose of the leader triggers
// the flood for the slot after it.
func (j *JunkAcker) Deliver(d *Driver, from types.ProcessID, slot uint64, m msg.Message) {
	leader := d.Cluster().Leader(1)
	if p, ok := m.(*msg.Propose); !ok || p.View != 1 || from != leader {
		return
	}
	for i := 0; i < junkAckFlood; i++ {
		x := types.Value{0xff, byte(slot), byte(i >> 16), byte(i >> 8), byte(i)}
		d.Send(leader, slot+1, &msg.Ack{View: 1, X: x})
	}
	j.sent.Add(junkAckFlood)
}

// Sent returns how many junk Acks the flooder has sent.
func (j *JunkAcker) Sent() int64 { return j.sent.Load() }
