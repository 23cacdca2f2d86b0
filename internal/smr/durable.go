package smr

import (
	"fmt"

	"repro/internal/msg"
	"repro/internal/obs"
	"repro/internal/storage"
	"repro/internal/types"
)

// Durability integration. With Config.Storage set, the replica writes a
// write-ahead log through internal/storage and holds back externally
// visible effects until the records they depend on are durable:
//
//   - before an ack (and its slow-path signature) leaves the process, the
//     adopted vote behind it is appended to the WAL — so a replica that is
//     kill -9'd and restarted never acks a conflicting value in a view it
//     already voted in, and its votes in later view changes still carry
//     the pre-crash adopted proposal;
//   - before a decided slot's effects (client replies, OnCommit callbacks,
//     subsequent protocol messages) become visible, its decision record is
//     appended;
//   - a slot decided through a state-transfer tail gets its decision
//     record like any other, so a recovered replica serves it onward;
//   - every outgoing message and client reply is released through the
//     store's effect queue, strictly after the records appended before it
//     — group commit: one fsync covers everything queued while the
//     previous fsync was in flight.
//
// Every record is appended once, when the replica learns it; the replica
// keeps no copy for the store. At each stable checkpoint the store replaces
// the WAL, in one atomic install, with the snapshot record (the snapshot
// carries the session table, so client dedup state needs no WAL records of
// its own) followed by the old WAL's records above the checkpoint.
// Recovery is local: restore the snapshot, replay the decisions after it
// in slot order through the normal apply path, and seed the in-flight
// consensus instances with their pre-crash vote state.

// sendEnvLocked ships an encoded envelope to one peer, durably gated: with
// storage, the send waits until everything appended to the WAL so far is
// fsync'd; without, it goes out immediately (the pre-durability behavior,
// bit for bit). The caller holds r.mu; the envelope is fully encoded, so
// the deferred closure touches no replica state.
func (r *Replica) sendEnvLocked(to types.ProcessID, env []byte) {
	if r.recovering {
		return
	}
	if r.store == nil {
		_ = r.cfg.Transport.Send(to, env)
		return
	}
	tr := r.cfg.Transport
	r.store.Effect(func() { _ = tr.Send(to, env) })
}

// broadcastEnvLocked is sendEnvLocked for broadcasts.
func (r *Replica) broadcastEnvLocked(env []byte) {
	if r.recovering {
		return
	}
	if r.store == nil {
		_ = r.cfg.Transport.Broadcast(env)
		return
	}
	tr := r.cfg.Transport
	r.store.Effect(func() { _ = tr.Broadcast(env) })
}

// Ordered (fsync-free) sends: for messages that commit this replica to
// nothing a crash could make it contradict, waiting for durability buys no
// safety — only latency. They still flow through the store's queue, so
// their order relative to durably-gated messages is exactly preserved;
// they just do not hold the fsync up (the network flight overlaps it).
// The classification:
//
//   - commit messages: the attached certificate is self-certifying
//     (CommitQuorum ack signatures, verified by every receiver), and a
//     conflicting certificate for the same view cannot exist by quorum
//     intersection — our own ack signature inside it was persisted before
//     the AckSig ever left the process;
//   - checkpoint digests: the state at a slot is a deterministic function
//     of the decided log, so a recovered replica can only ever re-sign
//     the identical digest;
//   - certificate-round traffic (CertRequest/CertAck): stateless
//     verification of the presented votes, re-issuable at will;
//   - state-transfer traffic: a snapshot is authenticated by its
//     checkpoint certificate, and a tail value is a decided value, the
//     same at every correct replica by agreement whether or not its
//     record is durable yet; the requester believes it only once f+1
//     responders report it;
//   - request relays to the view-1 leader: the bytes are the client's,
//     not replica state.
//
// What remains durably gated: leader proposals (the protocol would
// tolerate an equivocating leader, but letting the propose wave outrun the
// rest of the pipeline widens the window in which a slow replica opens
// slots on traffic it cannot yet act on — see applyActions), the replica's
// own votes (Ack; AckSig, which, signed at once, goes alone in the Ack's
// place behind the same vote record; the view-change Vote), its
// view-synchronization Wish (wishes feed peers' view-entry quorums, and a
// replica that forgot wishing could stall re-entry), and a decision's
// effects (client replies, OnCommit).
// The caller holds r.mu.
func (r *Replica) sendOrderedLocked(to types.ProcessID, env []byte) {
	if r.recovering {
		return
	}
	if r.store == nil {
		_ = r.cfg.Transport.Send(to, env)
		return
	}
	tr := r.cfg.Transport
	r.store.OrderedEffect(func() { _ = tr.Send(to, env) })
}

// broadcastOrderedLocked is sendOrderedLocked for broadcasts.
func (r *Replica) broadcastOrderedLocked(env []byte) {
	if r.recovering {
		return
	}
	if r.store == nil {
		_ = r.cfg.Transport.Broadcast(env)
		return
	}
	tr := r.cfg.Transport
	r.store.OrderedEffect(func() { _ = tr.Broadcast(env) })
}

// persistVoteLocked appends slot s's freshly adopted vote to the WAL,
// called when the instance's actions carry an Ack broadcast — the moment
// the replica commits itself to a (view, value) pair. The record rides the
// queue ahead of the ack itself, so the ack cannot reach the network
// before the vote is durable. The caller holds r.mu.
func (r *Replica) persistVoteLocked(s uint64, sl *slot) {
	if r.store == nil || r.recovering {
		return
	}
	vr := sl.proc.Replica().CurrentVote()
	if vr.Nil {
		return
	}
	// A recovered replica's re-ack appends its vote a second time; the
	// doubled record folds to the same VoteState at the next recovery.
	r.store.Append(storage.EncodeVote(s, &msg.Propose{View: vr.View, X: vr.Value, Cert: vr.Cert, Tau: vr.Tau}))
}

// persistDecisionLocked appends a decision record; onDecideLocked calls it
// before any of the decision's effects are scheduled. The caller holds
// r.mu.
func (r *Replica) persistDecisionLocked(s uint64, d types.Decision) {
	if r.store == nil || r.recovering {
		return
	}
	r.store.Append(storage.EncodeDecision(s, d))
}

// dispatchReplyLocked posts a client reply callback (see CommitFunc); with
// storage it waits for the durability of everything appended so far (in
// particular the decision record of the slot that produced the reply). tr is
// that slot's trace, or nil (cached replies whose slot instance is gone): the
// replied stage is stamped when the callback is released — after the
// durability gate, since a reply is a promise the command survives a crash.
// Marks are atomic, so stamping without r.mu is safe. The caller holds r.mu.
func (r *Replica) dispatchReplyLocked(cb ReplyFunc, rep *msg.Reply, tr *obs.Trace) {
	r.countOut(msg.KindReply)
	r.mu.Post(func() {
		if tr != nil {
			r.m.tracer.Mark(tr, obs.StageReplied, r.cfg.Clock.Now())
		}
		cb(rep)
	})
}

// recoverFromStore rebuilds the replica from its data directory alone:
// install the snapshot (installSnapshotLocked), re-install the decisions
// above it, replay the contiguous prefix through the normal
// apply path (which rebuilds the application state and session table), and
// stage the vote state of in-flight slots for when their instances
// restart. Runs in NewReplica, before the replica is shared, with
// r.recovering suppressing every append and send.
func (r *Replica) recoverFromStore() error {
	rec := r.store.Recovered()
	r.recovering = true
	defer func() { r.recovering = false }()

	if rec.SnapshotCert != nil {
		// The files are the replica's own, but a damaged or mixed-up data
		// directory must fail loudly, not corrupt state: the snapshot goes
		// through the same checks as one that arrives by state transfer.
		if err := r.installSnapshotLocked(rec.SnapshotCert, rec.Snapshot); err != nil {
			return fmt.Errorf("smr: recovered snapshot: %w", err)
		}
	}
	for s, d := range rec.Decisions {
		if s < r.applyPtr {
			continue
		}
		r.decided[s] = d
		r.m.decided.Inc()
	}
	for s, vs := range rec.Votes {
		if s < r.applyPtr || len(vs.Acks) == 0 {
			continue
		}
		if _, dec := r.decided[s]; dec {
			continue // a decided slot never votes again
		}
		r.restoredVotes[s] = vs
	}
	// Replay: applies the contiguous decided prefix in slot order through
	// the session table and the application, exactly like live operation.
	r.advanceLocked()
	return nil
}

// resumeRestoredSlotsLocked restarts the consensus instances of in-flight
// slots that had persisted vote state, so a recovered replica immediately
// re-joins the slots it was mid-vote in (its re-sent acks are identical to
// the pre-crash ones — safe, and the originals may have been lost). Runs
// at Start, after the transport is up. The caller holds r.mu.
func (r *Replica) resumeRestoredSlotsLocked() {
	for s := range r.restoredVotes {
		if s < r.next || s >= r.next+uint64(r.cfg.WindowSize) {
			continue
		}
		if _, dec := r.decided[s]; dec {
			continue
		}
		// The instance restarts from its persisted vote state, never from
		// a fresh chunk (see ensureSlotLocked).
		r.ensureSlotLocked(s)
	}
}

// restoreSlotVoteLocked seeds a restarting instance with its pre-crash
// vote state (ensureSlotLocked makes the latest adopted value its input, so
// a recovered leader re-proposes what it already signed rather than
// equivocating with a fresh chunk). The caller holds r.mu; called between
// core.NewProcess and the Process.Init that enters view 1.
func (r *Replica) restoreSlotVoteLocked(s uint64, sl *slot, vs *storage.VoteState) {
	acks := make(map[types.View]types.Value, len(vs.Acks))
	for _, p := range vs.Acks {
		acks[p.View] = p.X
	}
	vr := msg.NilVote()
	if n := len(vs.Acks); n > 0 {
		last := vs.Acks[n-1]
		vr = msg.VoteRecord{Value: last.X, View: last.View, Cert: last.Cert, Tau: last.Tau}
	}
	sl.proc.Replica().RestoreVoteState(acks, &vr)
	delete(r.restoredVotes, s)
}

// persistCheckpointLocked hands a freshly stabilized checkpoint to the
// store, which installs it as the head of a new WAL holding the records
// above it. The caller holds r.mu.
func (r *Replica) persistCheckpointLocked(cert *msg.CheckpointCert, snap []byte) {
	if r.store == nil || r.recovering {
		return
	}
	r.store.Checkpoint(cert, snap)
}
