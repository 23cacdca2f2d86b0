package smr

import (
	"crypto/sha256"
	"errors"
	"fmt"

	"repro/internal/msg"
	"repro/internal/sigcrypto"
	"repro/internal/types"
	"repro/internal/wire"
)

// Checkpointing bounds the memory of the replicated log. Every
// Config.CheckpointInterval applied slots a replica snapshots its state
// (application snapshot plus the client session table), signs the snapshot
// digest, and broadcasts a Checkpoint message. Once CertQuorum (f+1)
// replicas sign the same (slot, digest) pair the checkpoint is stable: at
// least one signer is correct and correct replicas compute the digest only
// by applying the decided log, so the digest provably identifies the unique
// correct state at that slot. A replica with a stable checkpoint prunes all
// consensus instances and decision records at or below the checkpoint
// slot, and keeps the snapshot bytes to serve state transfer (see
// statetransfer.go). Checkpointing is always on: a replica left out of
// the fast quorums (n − t acks decide, so up to t correct replicas can trail
// every slot) catches up only through it.

// ckptVotesPerSender is how many recent signed checkpoints are retained per
// sender. Keying the store by sender (rather than by (slot, digest)) bounds
// it at n×ckptVotesPerSender entries and makes it unpoisonable: a Byzantine
// replica can only ever overwrite its own entries, never evict a correct
// replica's vote. A replica more than ckptVotesPerSender boundaries behind
// its peers recovers through state transfer, not through tallying.
const ckptVotesPerSender = 4

// maybeCheckpointLocked emits a checkpoint if the apply pointer just crossed
// an interval boundary. The caller holds r.mu and has applied every slot
// below r.applyPtr.
func (r *Replica) maybeCheckpointLocked() {
	if r.applyPtr == 0 || r.applyPtr%r.interval != 0 {
		return
	}
	s := r.applyPtr - 1
	if r.ckptDone > s {
		return
	}
	r.ckptDone = s + 1
	// Prune inactive sessions before encoding: the rule is deterministic,
	// so every replica's snapshot at this boundary stays byte-identical.
	r.pruneSessionsLocked(s)
	snap := r.encodeSnapshotLocked(s)
	r.snaps[s] = snap
	sum := sha256.Sum256(snap)
	cp := types.Checkpoint{Slot: s, StateHash: sum[:]}
	m := &msg.Checkpoint{CP: cp, Phi: r.logSigner.Sign(msg.CheckpointDigest(cp))}
	// Ordered, not durably gated: the digest is a deterministic function of
	// the decided log, so a recovered replica could only ever re-sign the
	// identical digest (see sendOrderedLocked).
	r.broadcastOrderedLocked(r.envOut(syncSlot, m))
	r.onCheckpointLocked(r.cfg.Self, m)
}

// onCheckpointLocked records one signed checkpoint (the replica's own or a
// peer's) and stabilizes the checkpoint once a quorum of matching digests
// accumulates. A checkpoint far beyond the local frontier is evidence that
// this replica is lagging and triggers state transfer.
func (r *Replica) onCheckpointLocked(from types.ProcessID, m *msg.Checkpoint) {
	if m.Phi.Signer != from {
		return
	}
	if !r.logVerifier.Verify(msg.CheckpointDigest(m.CP), m.Phi) {
		return // also gates the lag evidence below: unsigned claims carry none
	}
	if m.CP.Slot >= r.applyPtr+r.interval {
		r.noteBehindLocked(m.CP.Slot, from)
	}
	// Store the vote in the sender's ring: replace an entry for the same
	// slot, otherwise append and trim to the most recent ckptVotesPerSender.
	ring := r.ckptVotes[from]
	replaced := false
	for i, v := range ring {
		if v.CP.Slot == m.CP.Slot {
			ring[i] = m
			replaced = true
			break
		}
	}
	if !replaced {
		ring = append(ring, m)
		if len(ring) > ckptVotesPerSender {
			oldest := 0
			for i, v := range ring {
				if v.CP.Slot < ring[oldest].CP.Slot {
					oldest = i
				}
			}
			ring = append(ring[:oldest], ring[oldest+1:]...)
		}
	}
	r.ckptVotes[from] = ring

	// Adopt the checkpoint as stable only if this replica has applied
	// through the slot itself (so pruning never discards unapplied state);
	// otherwise it is just lag evidence, handled above.
	snap, have := r.snaps[m.CP.Slot]
	if !have {
		return
	}
	sigs := make([]sigcrypto.Signature, 0, r.th.CertQuorum())
	for _, votes := range r.ckptVotes {
		for _, v := range votes {
			if v.CP.Equal(m.CP) {
				sigs = append(sigs, v.Phi.Clone())
				break // one vote per sender
			}
		}
	}
	if len(sigs) < r.th.CertQuorum() {
		return
	}
	cert := &msg.CheckpointCert{CP: m.CP.Clone(), Sigs: sigs}
	r.stabilizeLocked(cert, snap)
}

// stabilizeLocked installs a newer stable checkpoint and garbage-collects
// everything the checkpoint covers: consensus instances, older snapshots,
// recovered vote state, and older checkpoint votes, and the decision
// records the previous stable checkpoint covers. The
// caller holds r.mu; cert must be valid and snap must hash to
// cert.CP.StateHash.
func (r *Replica) stabilizeLocked(cert *msg.CheckpointCert, snap []byte) {
	if cert == nil {
		return
	}
	if r.stable != nil && cert.CP.Slot <= r.stable.CP.Slot {
		return
	}
	s := cert.CP.Slot
	var keep uint64 // decision records below it go (see below)
	if r.stable != nil {
		keep = r.stable.CP.Slot + 1
	}
	r.stable = cert
	r.stableSnap = snap
	if r.chunkAsm != nil && r.chunkAsm.cert.CP.Slot <= s {
		r.chunkAsm = nil // a half-assembled older snapshot is moot now
	}
	for num, sl := range r.slots {
		if num <= s {
			// With pipelining the live window can hold instances the replica
			// proposed for but never saw decide (state transfer restored past
			// them); return their in-flight chunks to the queue so the
			// commands are re-proposed above the checkpoint unless the
			// restored session table proves them executed. Slots that decided
			// locally settled their chunk at decision time (proposed is nil).
			r.releaseProposedLocked(sl, nil)
			delete(r.slots, num)
		}
	}
	// Decision records outlive the checkpoint that covers them by one
	// interval: a follower that fell behind across the checkpoint can still
	// catch up slot by slot from state-transfer tails (see
	// onFetchStateLocked) instead of installing the snapshot.
	for num := range r.decided {
		if num < keep {
			delete(r.decided, num)
		}
	}
	for num := range r.snaps {
		if num < s {
			delete(r.snaps, num)
		}
	}
	for num := range r.restoredVotes {
		if num <= s {
			delete(r.restoredVotes, num)
		}
	}
	for sender, votes := range r.ckptVotes {
		kept := votes[:0]
		for _, v := range votes {
			if v.CP.Slot > s {
				kept = append(kept, v)
			}
		}
		if len(kept) == 0 {
			delete(r.ckptVotes, sender)
		} else {
			r.ckptVotes[sender] = kept
		}
	}
	// Durably install the checkpoint: one new WAL, headed by the snapshot
	// record, keeps the records above it (see durable.go).
	r.persistCheckpointLocked(cert, snap)
}

// StableCheckpoint returns the replica's stable checkpoint, if one exists.
func (r *Replica) StableCheckpoint() (types.Checkpoint, bool) {
	r.mu.Lock()
	defer r.mu.Unlock()
	if r.stable == nil {
		return types.Checkpoint{}, false
	}
	return r.stable.CP.Clone(), true
}

// SlotCount returns the number of live consensus instances (test/metrics
// hook: it stays bounded regardless of log length).
func (r *Replica) SlotCount() int {
	r.mu.Lock()
	defer r.mu.Unlock()
	return len(r.slots)
}

// DecidedCount returns the number of retained decision records.
func (r *Replica) DecidedCount() int {
	r.mu.Lock()
	defer r.mu.Unlock()
	return len(r.decided)
}

// ---------------------------------------------------------------------------
// Composite snapshot codec
// ---------------------------------------------------------------------------

// encodeSnapshotLocked serializes the replica state after applying slot s:
// the checkpoint slot, the client session table (sorted, so the encoding is
// deterministic across replicas), and the application snapshot. The session
// table rides inside the certified snapshot so that replicas catching up
// through state transfer reject replays exactly like replicas that applied
// the whole log. The caller holds r.mu and must have r.applyPtr == s+1.
func (r *Replica) encodeSnapshotLocked(s uint64) []byte {
	return encodeSnapshot(s, r.sessions, r.cfg.App.Snapshot())
}

// encodeSnapshot renders the composite snapshot layout decodeSnapshot
// parses.
func encodeSnapshot(s uint64, sessions map[types.ClientID]*session, app []byte) []byte {
	size := 16 + len(app)
	for id, sess := range sessions {
		size += len(id) + len(sess.lastReply) + 24
	}
	w := wire.NewWriter(size)
	w.Uvarint(s)
	encodeSessions(w, sessions)
	w.BytesField(app)
	return w.Bytes()
}

// errSnapshotMismatch reports a snapshot that does not cover the slot its
// certificate claims.
var errSnapshotMismatch = errors.New("smr: snapshot slot mismatch")

// decodeSnapshot parses a composite snapshot, returning the client session
// table and the application snapshot bytes.
func decodeSnapshot(slot uint64, snap []byte) (map[types.ClientID]*session, []byte, error) {
	rd := wire.NewReader(snap)
	s := rd.Uvarint()
	if err := rd.Err(); err != nil {
		return nil, nil, err
	}
	if s != slot {
		return nil, nil, errSnapshotMismatch
	}
	sessions, err := decodeSessions(rd)
	if err != nil {
		return nil, nil, err
	}
	// The application snapshot is the length-prefixed rest, read without
	// wire's one-message cap: a snapshot travels in pieces (state
	// transfer) or in an uncapped WAL record, so it must decode at any
	// size.
	n := rd.Uvarint()
	if err := rd.Err(); err != nil {
		return nil, nil, fmt.Errorf("smr snapshot: %w", err)
	}
	if n != uint64(rd.Remaining()) {
		return nil, nil, fmt.Errorf("smr snapshot: application snapshot of %d bytes in %d", n, rd.Remaining())
	}
	return sessions, snap[len(snap)-rd.Remaining():], nil
}
