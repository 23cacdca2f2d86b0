package smr

import (
	"crypto/sha256"
	"time"

	"repro/internal/msg"
	"repro/internal/types"
)

// State transfer lets a replica that missed slots — it crashed and
// restarted, or was partitioned past the live window — catch up without
// re-running consensus for slots the rest of the cluster has already
// garbage-collected. The lagging replica sends FetchState to a peer that
// showed evidence of being ahead; the peer answers with a StateSnapshot:
// its stable checkpoint (snapshot bytes plus the f+1-signature certificate
// over their digest) and, for the slots after the checkpoint, the decided
// values authenticated by their commit certificates. Both parts are
// verifiable, so a Byzantine responder can at worst stay silent:
//
//   - the snapshot is accepted only if its SHA-256 digest matches a valid
//     CheckpointCert, which only ever certifies the unique correct state;
//   - each tail decision is accepted only with a valid CommitCert, which by
//     Lemma A.2 can only exist for the value the slot actually decided.
//
// One fetch round may not reach the cluster frontier (the responder answers
// with what it had at that moment); the lag-evidence triggers below re-arm
// after every applied-frontier advance, so successive rounds converge while
// traffic keeps flowing.

// maxTailDecisions and maxResponseBytes bound one StateSnapshot response —
// by entry count and by encoded size, so a response that is sent fits the
// transport frame limit (transport.MaxFrame, 8 MiB). A requester further
// behind than one response can cover catches up over multiple fetch
// rounds. A stable snapshot that alone exceeds the single-frame budget is
// streamed as SnapshotChunk messages instead (up to maxSnapshotBytes),
// reassembled and digest-verified against the checkpoint certificate by
// the receiver.
const (
	maxTailDecisions = msg.MaxTailDecisions
	maxSnapshotBytes = 64 << 20
)

// maxResponseBytes and snapChunkSize are variables only so tests can
// exercise the chunked path with small states; production values are
// fixed at init.
var (
	maxResponseBytes = 4 << 20
	snapChunkSize    = 1 << 20
)

// fetchRetryCooldown is the retry cadence of an unsatisfied state-sync.
// Retries matter for liveness twice over: evidence slots are unverifiable
// claims (a Byzantine peer could otherwise park the sync on itself and stay
// silent), and a response can land after the cluster has gone quiescent,
// leaving the replica short of the frontier with no further traffic to
// re-trigger a fetch.
const fetchRetryCooldown = time.Second

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

// sendFetchLocked sends one FetchState to peer `to` and arms the retry
// timer. The caller holds r.mu.
func (r *Replica) sendFetchLocked(to types.ProcessID) {
	r.fetchAt = r.applyPtr + 1
	r.fetchTime = r.cfg.Clock.Now()
	r.fetchRR = to
	r.sendOrderedLocked(to, r.envOut(syncSlot, &msg.FetchState{From: r.applyPtr}))
	if r.fetchTimer != nil {
		r.fetchTimer.Stop()
	}
	r.fetchTimer = r.cfg.Clock.AfterFunc(fetchRetryCooldown, r.onFetchRetry)
}

// onFetchRetry re-drives an unsatisfied state-sync: as long as the applied
// frontier has not passed the lag evidence, it re-sends FetchState round-
// robin across the peers. A full cycle of peers that yields no progress
// parks the sync until fresh evidence arrives — that is what bounds the
// retries a Byzantine peer can cause with an inflated evidence slot.
func (r *Replica) onFetchRetry() {
	r.mu.Lock()
	defer r.mu.Unlock()
	if r.closed || r.fetchAt == 0 {
		return
	}
	if r.applyPtr > r.fetchEv {
		r.fetchAt = 0 // evidence satisfied; sync complete
		r.fetchCycle = 0
		return
	}
	if r.fetchCycle == 0 {
		r.fetchStart = r.applyPtr
	}
	r.fetchCycle++
	if r.fetchCycle > r.cfg.Cluster.N {
		if r.applyPtr == r.fetchStart {
			r.fetchAt = 0 // a fruitless full round; wait for new evidence
			r.fetchCycle = 0
			return
		}
		r.fetchCycle = 1
		r.fetchStart = r.applyPtr
	}
	to := r.fetchRR
	for {
		to = (to + 1) % types.ProcessID(r.cfg.Cluster.N)
		if to != r.cfg.Self {
			break
		}
	}
	r.sendFetchLocked(to)
}

// onFetchStateLocked serves a state-transfer request: the stable checkpoint
// if it moves the requester forward, plus certified decisions for the slots
// after it. Serving is rate-limited per requester — building a multi-MiB
// response for a 2-byte request is an amplification lever a Byzantine peer
// must not be able to pull at line rate. The caller holds r.mu.
func (r *Replica) onFetchStateLocked(from types.ProcessID, m *msg.FetchState) {
	now := r.cfg.Clock.Now()
	if now.Sub(r.serveTime[from]) < fetchRetryCooldown/2 {
		return // the honest retry cadence is fetchRetryCooldown
	}
	r.serveTime[from] = now
	resp := &msg.StateSnapshot{}
	tailFrom := m.From
	budget := maxResponseBytes
	if r.stable != nil && r.stableSnap != nil && r.stable.CP.Slot >= m.From {
		switch {
		case len(r.stableSnap) <= budget:
			// Single-frame path. The response is encoded and framed before
			// this method returns, so sharing the stored snapshot and
			// certificate (no clones) is safe.
			resp.HasSnap = true
			resp.Snapshot = r.stableSnap
			resp.Cert = *r.stable
			tailFrom = r.stable.CP.Slot + 1
			budget -= len(r.stableSnap)
		case len(r.stableSnap) <= maxSnapshotBytes:
			// Too large for one frame: stream it in size-bounded chunks
			// ahead of the tail. Order is preserved per sender, so the
			// chunks arrive in offset order and the tail after them.
			r.sendSnapshotChunksLocked(from)
			tailFrom = r.stable.CP.Slot + 1
		}
		// Beyond maxSnapshotBytes the snapshot is not shippable; the tail
		// below still serves requesters inside the un-pruned range.
	}
	for s := tailFrom; s < r.applyPtr && len(resp.Tail) < maxTailDecisions; s++ {
		cc, ok := r.certs[s]
		if !ok {
			break // tail must stay contiguous to be useful
		}
		sz := commitCertSize(cc)
		if sz > budget {
			break // the rest goes in the requester's next fetch round
		}
		budget -= sz
		resp.Tail = append(resp.Tail, msg.TailDecision{Slot: s, CC: *cc})
	}
	if !resp.HasSnap && len(resp.Tail) == 0 {
		return // nothing beyond what the chunks (if any) already carry
	}
	r.sendOrderedLocked(from, r.envOut(syncSlot, resp))
}

// sendSnapshotChunksLocked streams the stable snapshot to one requester as
// SnapshotChunk messages. Every chunk carries the checkpoint certificate,
// so the receiver can validate the association cheaply and the reassembled
// snapshot verifies against the certified digest exactly like the
// single-frame path. The caller holds r.mu; each chunk is encoded before
// the method returns, so sharing the snapshot bytes is safe.
func (r *Replica) sendSnapshotChunksLocked(to types.ProcessID) {
	snap := r.stableSnap
	total := uint64(len(snap))
	for off := 0; off < len(snap); off += snapChunkSize {
		end := off + snapChunkSize
		if end > len(snap) {
			end = len(snap)
		}
		r.sendOrderedLocked(to, r.envOut(syncSlot, &msg.SnapshotChunk{
			Cert:   *r.stable,
			Total:  total,
			Offset: uint64(off),
			Data:   snap[off:end],
		}))
	}
}

// chunkAssembly is the in-progress reassembly of one chunked snapshot. At
// most one exists per replica, bounding the buffered memory; it is
// replaced only by a verified certificate for a strictly newer checkpoint.
type chunkAssembly struct {
	cert  *msg.CheckpointCert
	total uint64
	buf   []byte
}

// onSnapshotChunkLocked feeds one chunk into the reassembly. Chunks are
// accepted only while a fetch is outstanding, in offset order (per-sender
// delivery order preserves it; a gap means loss, and the fetch retry
// simply re-requests). The first chunk must present a valid certificate —
// the gate that stops an unsolicited sender from making the replica
// buffer anything — and the completed snapshot is accepted only if its
// SHA-256 digest matches that certificate. The caller holds r.mu.
func (r *Replica) onSnapshotChunkLocked(m *msg.SnapshotChunk) {
	if r.fetchAt == 0 {
		return
	}
	if m.Cert.CP.Slot < r.applyPtr {
		return // already past it
	}
	if m.Total == 0 || m.Total > maxSnapshotBytes ||
		uint64(len(m.Data)) > m.Total || m.Offset+uint64(len(m.Data)) > m.Total {
		return
	}
	asm := r.chunkAsm
	if m.Offset == 0 {
		if asm != nil && asm.cert.CP.Slot >= m.Cert.CP.Slot {
			// Keep the assembly already under way unless the newcomer is
			// strictly newer (a retry restarts via the retry fetch anyway).
			if asm.cert.CP.Slot > m.Cert.CP.Slot || uint64(len(asm.buf)) > 0 &&
				!types.Value(asm.cert.CP.StateHash).Equal(types.Value(m.Cert.CP.StateHash)) {
				return
			}
		}
		if !m.Cert.Verify(r.logVerifier, r.th) {
			return
		}
		asm = &chunkAssembly{
			cert:  m.Cert.Clone(),
			total: m.Total,
			buf:   append([]byte(nil), m.Data...),
		}
		r.chunkAsm = asm
	} else {
		if asm == nil || asm.cert.CP.Slot != m.Cert.CP.Slot ||
			!types.Value(asm.cert.CP.StateHash).Equal(types.Value(m.Cert.CP.StateHash)) ||
			asm.total != m.Total || uint64(len(asm.buf)) != m.Offset {
			return // out of order or mismatched; the fetch retry recovers
		}
		asm.buf = append(asm.buf, m.Data...)
	}
	if uint64(len(asm.buf)) < asm.total {
		return
	}
	r.chunkAsm = nil
	sum := sha256.Sum256(asm.buf)
	if !types.Value(sum[:]).Equal(types.Value(asm.cert.CP.StateHash)) {
		return // reassembly does not match the certified digest
	}
	if asm.cert.CP.Slot >= r.applyPtr {
		r.restoreLocked(asm.cert, asm.buf)
	}
}

// commitCertSize estimates the encoded size of one tail decision, for the
// response byte budget.
func commitCertSize(cc *msg.CommitCert) int {
	n := len(cc.Value) + 16
	for _, s := range cc.Sigs {
		n += len(s.Bytes) + 8
	}
	return n
}

// onStateSnapshotLocked verifies and applies a state-transfer response. The
// caller holds r.mu.
func (r *Replica) onStateSnapshotLocked(from types.ProcessID, m *msg.StateSnapshot) {
	// Accept snapshots only while a fetch is outstanding, and never more
	// tail entries than a response may carry: signature verification is
	// expensive and runs under r.mu, so unsolicited frames stuffed with
	// garbage certificates must not become a stall lever. (A response that
	// arrives after the sync loop gave up is dropped; the next lag evidence
	// re-requests it.)
	if r.fetchAt == 0 {
		return
	}
	if len(m.Tail) > maxTailDecisions {
		m.Tail = m.Tail[:maxTailDecisions]
	}
	if m.HasSnap && m.Cert.CP.Slot >= r.applyPtr {
		if m.Cert.Verify(r.logVerifier, r.th) {
			sum := sha256.Sum256(m.Snapshot)
			if types.Value(sum[:]).Equal(types.Value(m.Cert.CP.StateHash)) {
				r.restoreLocked(m.Cert.Clone(), m.Snapshot)
			}
		}
	}
	// Apply certified tail decisions. Order does not matter for safety (the
	// decision apply loop only ever advances contiguously), but applying in
	// slot order lets one response move the frontier as far as it can.
	for _, td := range m.Tail {
		if td.Slot < r.applyPtr {
			continue
		}
		// Verify under the slot's signing domain: a certificate from any
		// other slot cannot pass (see slotDomain).
		if !td.CC.Verify(domainVerifier{inner: r.cfg.Verifier, salt: slotDomain(r.cfg.Group, td.Slot)}, r.th) {
			continue
		}
		if r.certs[td.Slot] == nil {
			r.certs[td.Slot] = td.CC.Clone() // retain even for known slots: it serves others
		}
		if _, dup := r.decided[td.Slot]; dup {
			continue
		}
		r.onDecideLocked(td.Slot, types.Decision{
			Value: td.CC.Value.Clone(),
			View:  td.CC.View,
			Path:  types.SlowPath,
		})
	}
}

// restoreLocked fast-forwards the replica to a verified checkpoint: the
// application state is replaced by the snapshot, everything at or below the
// checkpoint slot is discarded, and the checkpoint becomes this replica's
// own stable checkpoint (so it can in turn serve state transfer and prune).
// With pipelined replication the discarded range can include live window
// slots this replica proposed chunks for but never saw decide; pruning them
// (stabilizeLocked) returns those in-flight commands to the pending queue,
// and the compaction below then drops whichever of them the restored
// session table proves already executed — so a caught-up replica neither
// loses nor replays commands its part-filled window was carrying.
// The caller holds r.mu; the snapshot digest has been verified against cert.
func (r *Replica) restoreLocked(cert *msg.CheckpointCert, snap []byte) {
	s := cert.CP.Slot
	sessions, app, err := decodeSnapshot(s, snap)
	if err != nil {
		return // certified digest but malformed layout: not a correct snapshot
	}
	if err := r.cfg.App.Restore(app); err != nil {
		return
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
	r.stabilizeLocked(cert, snapCopy)
	// Slots just above the checkpoint may already be decided locally (they
	// arrived while the gap below blocked the apply loop); drain them. The
	// sync loop itself stays armed until the lag evidence is satisfied.
	r.advanceLocked()
}
