package smr

import (
	"crypto/sha256"
	"fmt"
	"time"

	"repro/internal/msg"
	"repro/internal/types"
)

// State transfer lets a replica that missed slots — it crashed and
// restarted, or was partitioned past the live window — catch up without
// re-running consensus for slots the rest of the cluster has already
// garbage-collected. The lagging replica sends FetchState to a peer that
// showed evidence of being ahead; the peer answers with a stream of
// StateSnapshot frames: its stable checkpoint (snapshot bytes, in pieces,
// each carrying the f+1-signature certificate over the whole snapshot's
// digest) and, on the last frame, the values it decided for the slots
// after the checkpoint. Once that response is in, the replica asks f
// further peers, whose answers start above the checkpoint it installed and
// so carry tails only. Neither part rests on one responder's word:
//
//   - the reassembled snapshot is installed only if its SHA-256 digest
//     matches a valid CheckpointCert, whose f+1 signers include a correct
//     replica that computed that state;
//   - a tail slot is decided only once f+1 distinct responders report the
//     same value for it (the client's f+1 matching-reply rule). The peer
//     channel authenticates its sender, so one of them is correct, and a
//     correct replica reports only what it decided. One commit certificate
//     would not do: at n = 3f + 2t − 1 with f > t, corrupted processes can
//     form and keep a certificate for a value that the next view, correctly,
//     does not select.
//
// A Byzantine responder can thus at worst stay silent or say nothing that
// f correct peers confirm. One fetch round may not reach the cluster
// frontier (each responder answers with what it had at that moment); the
// lag-evidence triggers below re-arm after every applied-frontier advance,
// so successive rounds converge while traffic keeps flowing.

// maxTailDecisions and maxResponseBytes bound the tail of one response —
// by entry count and by encoded size, so the last frame (at
// most one snapChunkSize piece plus the tail) fits the transport frame
// limit (transport.MaxFrame, 8 MiB). A requester further behind than one
// response can cover catches up over multiple fetch rounds. A stable
// snapshot above maxSnapshotBytes is not shipped at all.
const (
	maxTailDecisions = msg.MaxTailDecisions
	maxResponseBytes = 4 << 20
	maxSnapshotBytes = 64 << 20
)

// snapChunkSize is the largest snapshot piece one StateSnapshot frame
// carries. It is a variable only so tests can split a small state into
// several pieces.
var snapChunkSize = 1 << 20

// fetchRetryCooldown is the retry cadence of an unsatisfied state-sync.
// Retries matter for liveness twice over: evidence slots are unverifiable
// claims (a Byzantine peer could otherwise park the sync on itself and stay
// silent), and a response can land after the cluster has gone quiescent,
// leaving the replica short of the frontier with no further traffic to
// re-trigger a fetch.
const fetchRetryCooldown = time.Second

// fetchWiden is how long a fetch round waits, after its f further asks, for
// them to move the applied frontier before it asks f more peers (see
// fanOutLocked): a small share of the retry period, and many round trips.
const fetchWiden = fetchRetryCooldown / 16

// noteBehindLocked records evidence that peer `from` is ahead (it sent
// traffic for slot `evidence`, beyond our window or frontier) and starts or
// feeds the state-sync loop, rate-limited so that a burst of evidence
// produces one fetch. The caller holds r.mu.
func (r *Replica) noteBehindLocked(evidence uint64, from types.ProcessID) {
	if from == r.cfg.Self {
		return
	}
	if evidence > r.fetchEv {
		r.fetchEv = evidence
	}
	if r.fetchAt != 0 && r.applyPtr+1 <= r.fetchAt &&
		r.cfg.Clock.Now().Sub(r.fetchTime) < fetchRetryCooldown {
		return
	}
	r.sendFetchLocked(from)
}

// sendFetchLocked starts a fetch round: one FetchState to peer `to`, the
// further asks once its response is in (see fanOutLocked), and the retry
// timer. The caller holds r.mu.
func (r *Replica) sendFetchLocked(to types.ProcessID) {
	r.fetchRound++
	r.fetchAt = r.applyPtr + 1
	r.fetchTime = r.cfg.Clock.Now()
	r.fetchRR = to
	r.fetchFan = true
	r.askLocked(to)
	if r.fetchTimer != nil {
		r.fetchTimer.Stop()
	}
	r.fetchTimer = r.cfg.Clock.AfterFunc(fetchRetryCooldown, r.onFetchRetry)
}

// askLocked sends one FetchState for everything from the lowest unapplied
// slot on. The caller holds r.mu.
func (r *Replica) askLocked(to types.ProcessID) {
	r.sendOrderedLocked(to, r.envOut(syncSlot, &msg.FetchState{From: r.applyPtr}))
}

// nextPeer returns the peer after p in round-robin order, skipping self.
func (r *Replica) nextPeer(p types.ProcessID) types.ProcessID {
	for {
		p = (p + 1) % types.ProcessID(r.cfg.Cluster.N)
		if p != r.cfg.Self {
			return p
		}
	}
}

// fanOutLocked sends the round's f further asks, to the f peers after the
// round's first in round-robin order, so that a tail slot can gather f+1
// matching reports, and arms the round's widening: if fetchWiden later the
// applied frontier has not moved, the round asks the f peers after those
// (onFetchWiden). Of the 2f+1 peers a round then has asked (n − 1 ≥ 3f of
// them exist), f+1 are correct even if f are faulty or down, where the f
// further asks alone left a round with one down peer a report short until
// the retry timer. Most rounds end on f+1 answers, so the second f asks,
// and the tails they draw, go out only when the first ones fell short. It
// runs once the first response is in: its snapshot, if any, is installed,
// so the asks start above it and the peers answer with tails, not with the
// snapshot again. The caller holds r.mu.
func (r *Replica) fanOutLocked() {
	r.fetchFan = false
	r.askFurtherLocked()
	r.fetchFanAt = r.applyPtr
	if r.fetchWide != nil {
		r.fetchWide.Stop()
	}
	round := r.fetchRound
	r.fetchWide = r.cfg.Clock.AfterFunc(fetchWiden, func() { r.onFetchWiden(round) })
}

// askFurtherLocked asks the f peers after the last one asked, in
// round-robin order. The caller holds r.mu.
func (r *Replica) askFurtherLocked() {
	for i := 0; i < r.cfg.Cluster.F; i++ {
		r.fetchRR = r.nextPeer(r.fetchRR)
		r.askLocked(r.fetchRR)
	}
}

// onFetchWiden asks fetch round `round` the f peers after its first f+1
// if the round is still the current one, still short of the lag evidence,
// and its answers have not moved the applied frontier since it fanned out.
func (r *Replica) onFetchWiden(round uint64) {
	r.mu.Lock()
	defer r.mu.Unlock()
	if r.closed || r.fetchAt == 0 || round != r.fetchRound ||
		r.applyPtr != r.fetchFanAt || r.applyPtr > r.fetchEv {
		return
	}
	r.askFurtherLocked()
}

// endSyncLocked parks the state-sync loop and drops its tail tally. The
// caller holds r.mu.
func (r *Replica) endSyncLocked() {
	r.fetchAt = 0
	r.fetchCycle = 0
	r.tails = nil
}

// onFetchRetry re-drives an unsatisfied state-sync: as long as the applied
// frontier has not passed the lag evidence, it starts a new fetch round
// with the next peer in round-robin order. A full cycle of peers that
// yields no progress parks the sync until fresh evidence arrives — that is
// what bounds the retries a Byzantine peer can cause with an inflated
// evidence slot.
func (r *Replica) onFetchRetry() {
	r.mu.Lock()
	defer r.mu.Unlock()
	if r.closed || r.fetchAt == 0 {
		return
	}
	if r.applyPtr > r.fetchEv {
		r.endSyncLocked() // evidence satisfied; sync complete
		return
	}
	if r.fetchCycle == 0 {
		r.fetchStart = r.applyPtr
	}
	r.fetchCycle++
	if r.fetchCycle > r.cfg.Cluster.N {
		if r.applyPtr == r.fetchStart {
			r.endSyncLocked() // a fruitless full round; wait for new evidence
			return
		}
		r.fetchCycle = 1
		r.fetchStart = r.applyPtr
	}
	r.sendFetchLocked(r.nextPeer(r.fetchRR))
}

// served is what a replica last sent one state-transfer requester: when
// it last sent a full response, the slot after the last tail entry, and
// 1 + the slot of the last checkpoint snapshot.
type served struct {
	at   time.Time
	end  uint64
	snap uint64
}

// onFetchStateLocked serves a state-transfer request: this replica's
// decided values for the applied slots from the requester's frontier on,
// on the last frame, and ahead of them, if it kept no decision that far
// back, the stable checkpoint, streamed in pieces of at most snapChunkSize
// bytes. r.decided holds every decided slot above the previous stable
// checkpoint, recovered ones and ones learned by tail included.
// Per-sender delivery order keeps the pieces in offset order.
//
// Serving is rate-limited per requester — building a multi-MiB response
// for a 2-byte request is an amplification lever a Byzantine peer must not
// be able to pull at line rate. A full response goes out at most once per
// fetchRetryCooldown/2; in between, a requester is sent only what it has
// not been sent yet: decisions past the last tail, and a checkpoint newer
// than the last snapshot. So a follower that keeps falling behind a fast
// cluster can ask again as soon as it has caught up with the last answer,
// while what any requester can draw stays bounded by one full response per
// half cooldown, each decided slot once and each checkpoint once. The
// caller holds r.mu; every frame is encoded before this method returns, so
// sharing the stored snapshot and values (no clones) is safe.
func (r *Replica) onFetchStateLocked(from types.ProcessID, m *msg.FetchState) {
	now := r.cfg.Clock.Now()
	last := r.served[from]
	fresh := now.Sub(last.at) >= fetchRetryCooldown/2
	tailFrom := m.From
	if fresh {
		last.at = now
	} else {
		tailFrom = max(tailFrom, last.end)
	}
	var cert msg.CheckpointCert
	var snap []byte
	if _, kept := r.decided[tailFrom]; !kept && r.stable != nil && r.stableSnap != nil &&
		r.stable.CP.Slot >= tailFrom && len(r.stableSnap) <= maxSnapshotBytes &&
		(fresh || r.stable.CP.Slot >= last.snap) {
		cert, snap = *r.stable, r.stableSnap
		tailFrom = r.stable.CP.Slot + 1
		last.snap = tailFrom
	}
	// Beyond maxSnapshotBytes the snapshot is not shippable; the tail still
	// serves requesters inside the un-pruned range.
	var tail []msg.TailDecision
	budget := maxResponseBytes
	for s := tailFrom; s < r.applyPtr && len(tail) < maxTailDecisions; s++ {
		d, ok := r.decided[s]
		if !ok {
			break // tail must stay contiguous to be useful
		}
		sz := len(d.Value) + 16
		if sz > budget {
			break // the rest goes in the requester's next fetch round
		}
		budget -= sz
		tail = append(tail, msg.TailDecision{Slot: s, Value: d.Value})
	}
	if len(tail) > 0 {
		last.end = tail[len(tail)-1].Slot + 1
	}
	r.served[from] = last
	if len(snap) == 0 && len(tail) == 0 {
		return
	}
	for off := 0; off == 0 || off < len(snap); off += snapChunkSize {
		end := min(off+snapChunkSize, len(snap))
		piece := &msg.StateSnapshot{Cert: cert, Total: uint64(len(snap)), Offset: uint64(off), Data: snap[off:end]}
		if end == len(snap) {
			piece.Tail = tail
		}
		r.sendOrderedLocked(from, r.envOut(syncSlot, piece))
	}
}

// chunkAssembly is the in-progress reassembly of one streamed snapshot. At
// most one exists per replica, bounding the buffered memory; it is
// replaced only by a verified certificate for a strictly newer checkpoint.
type chunkAssembly struct {
	cert  *msg.CheckpointCert
	total uint64
	buf   []byte
}

// reassembleLocked feeds one snapshot piece into the reassembly and returns
// the certificate and bytes once the snapshot is complete. Pieces are
// accepted in offset order (per-sender delivery order preserves it; a gap
// means loss, and the fetch retry simply re-requests). The first piece
// must present a valid certificate — the gate that stops an unsolicited
// sender from making the replica buffer anything; the completed bytes are
// checked against that certificate by installSnapshotLocked. The caller
// holds r.mu and has checked that a fetch is outstanding.
func (r *Replica) reassembleLocked(m *msg.StateSnapshot) (*msg.CheckpointCert, []byte) {
	if m.Cert.CP.Slot < r.applyPtr {
		return nil, nil // already past it
	}
	if m.Total == 0 || m.Total > maxSnapshotBytes ||
		uint64(len(m.Data)) > m.Total || m.Offset+uint64(len(m.Data)) > m.Total {
		return nil, nil
	}
	asm := r.chunkAsm
	if m.Offset == 0 {
		// Keep the assembly already under way unless the newcomer is
		// strictly newer (a retry restarts via the retry fetch anyway).
		if asm != nil && (asm.cert.CP.Slot > m.Cert.CP.Slot ||
			asm.cert.CP.Slot == m.Cert.CP.Slot && len(asm.buf) > 0 && !asm.cert.CP.Equal(m.Cert.CP)) {
			return nil, nil
		}
		if !m.Cert.Verify(r.logVerifier, r.th) {
			return nil, nil
		}
		asm = &chunkAssembly{
			cert:  m.Cert.Clone(),
			total: m.Total,
			buf:   append([]byte(nil), m.Data...),
		}
		r.chunkAsm = asm
	} else {
		if asm == nil || !asm.cert.CP.Equal(m.Cert.CP) ||
			asm.total != m.Total || uint64(len(asm.buf)) != m.Offset {
			return nil, nil // out of order or mismatched; the fetch retry recovers
		}
		asm.buf = append(asm.buf, m.Data...)
	}
	if uint64(len(asm.buf)) < asm.total {
		return nil, nil
	}
	r.chunkAsm = nil
	return asm.cert, asm.buf
}

// onStateSnapshotLocked takes one state-transfer frame from peer `from`:
// its snapshot piece feeds the reassembly, and its tail feeds the tally
// (tallyTailLocked). The first complete response of a round sends the
// round's further asks (fanOutLocked). Frames count only while a fetch is
// outstanding; a response that arrives after the sync loop gave up is
// dropped, and the next lag evidence re-requests it. The caller holds r.mu.
func (r *Replica) onStateSnapshotLocked(from types.ProcessID, m *msg.StateSnapshot) {
	if r.fetchAt == 0 {
		return
	}
	if m.Total > 0 {
		if cert, snap := r.reassembleLocked(m); snap != nil && cert.CP.Slot >= r.applyPtr {
			// A snapshot its certificate does not cover is dropped; the
			// fetch retry asks another peer.
			_ = r.installSnapshotLocked(cert, snap)
		}
	}
	r.tallyTailLocked(from, m.Tail)
	if r.fetchFan && m.Offset+uint64(len(m.Data)) >= m.Total && r.applyPtr <= r.fetchEv {
		r.fanOutLocked()
	}
}

// tallyTailLocked records responder from's tail — its value for each slot,
// replacing what it reported before — and decides every slot in it that
// f+1 distinct responders report with the same value. Values alone are
// compared: correct replicas can decide one value in different views, and
// the tail does not carry the view (a tail-decided slot records NoView and
// the transfer path: it was learned, not reached by consensus).
// The tally is bounded: at most maxTailDecisions slots per responder, none
// below the applied frontier, and it lives only while a fetch is
// outstanding (endSyncLocked drops it). The caller holds r.mu.
func (r *Replica) tallyTailLocked(from types.ProcessID, tail []msg.TailDecision) {
	if len(tail) == 0 {
		return
	}
	if r.tails == nil {
		r.tails = make(map[types.ProcessID]map[uint64]types.Value)
	}
	claims := r.tails[from]
	if claims == nil {
		claims = make(map[uint64]types.Value)
		r.tails[from] = claims
	}
	for _, td := range tail {
		if _, known := claims[td.Slot]; td.Slot < r.applyPtr || !known && len(claims) >= maxTailDecisions {
			continue
		}
		claims[td.Slot] = td.Value
	}
	// In slot order, so that one response moves the frontier as far as it
	// can (the apply loop only ever advances contiguously). Deciding a slot
	// already decided or applied is a no-op.
	for _, td := range tail {
		v, ok := claims[td.Slot]
		if !ok {
			continue
		}
		n := 0
		for _, c := range r.tails {
			if w, ok := c[td.Slot]; ok && w.Equal(v) {
				n++
			}
		}
		if n >= r.th.CertQuorum() {
			r.onDecideLocked(td.Slot, types.Decision{Value: v, Path: types.TransferPath})
		}
	}
	for _, c := range r.tails {
		for s := range c {
			if s < r.applyPtr {
				delete(c, s)
			}
		}
	}
}

// installSnapshotLocked is the one way a snapshot enters the replica, from
// a peer through state transfer or from the replica's own data directory
// at recovery. It checks snap against cert (a CertQuorum certificate whose
// digest snap matches), replaces the application state and session table,
// discards everything at or below the checkpoint slot, and makes the
// checkpoint this replica's own stable checkpoint (so it can in turn serve
// state transfer and prune). With pipelined replication the discarded
// range can include live window slots this replica proposed chunks for but
// never saw decide; pruning them (stabilizeLocked) returns those in-flight
// commands to the pending queue, and the compaction below then drops
// whichever of them the restored session table proves already executed —
// so a caught-up replica neither loses nor replays commands its
// part-filled window was carrying. On error nothing has changed unless
// the application's Restore failed. The caller holds r.mu.
func (r *Replica) installSnapshotLocked(cert *msg.CheckpointCert, snap []byte) error {
	s := cert.CP.Slot
	if !cert.Verify(r.logVerifier, r.th) {
		return fmt.Errorf("snapshot certificate invalid (slot %d)", s)
	}
	sum := sha256.Sum256(snap)
	if !types.Value(sum[:]).Equal(types.Value(cert.CP.StateHash)) {
		return fmt.Errorf("snapshot does not match its certificate (slot %d)", s)
	}
	sessions, app, err := decodeSnapshot(s, snap)
	if err != nil {
		return fmt.Errorf("snapshot at slot %d: %w", s, err)
	}
	if err := r.cfg.App.Restore(app); err != nil {
		return fmt.Errorf("restoring snapshot at slot %d: %w", s, err)
	}
	r.sessions = sessions
	// Drop queued requests the restored session table proves stale, so a
	// caught-up replica rejects replays exactly like one that applied the
	// whole log.
	r.compactPendingLocked()
	r.applyPtr = s + 1
	if r.next < r.applyPtr {
		r.next = r.applyPtr
	}
	if r.ckptDone < s+1 {
		r.ckptDone = s + 1
	}
	snapCopy := append([]byte(nil), snap...)
	r.snaps[s] = snapCopy
	r.stabilizeLocked(cert.Clone(), snapCopy)
	// Slots just above the checkpoint may already be decided locally (they
	// arrived while the gap below blocked the apply loop); drain them. The
	// sync loop itself stays armed until the lag evidence is satisfied.
	r.advanceLocked()
	return nil
}
