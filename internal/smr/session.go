package smr

import (
	"errors"
	"fmt"
	"sort"

	"repro/internal/msg"
	"repro/internal/obs"
	"repro/internal/transport"
	"repro/internal/types"
	"repro/internal/wire"
)

// Client sessions bound the memory of exactly-once execution. Every command
// that flows through the log is an encoded msg.Request carrying a
// (client, seq) pair; each replica keeps one session per client — the
// highest executed sequence number, the slot it executed in, and the cached
// result — so the dedup structure is O(active clients) instead of O(total
// commands ever executed), and a retransmitted committed request is answered
// from the reply cache without re-executing.
//
// The session table is replicated state: it is updated only by the apply
// loop (a deterministic function of the decided log), carried inside every
// checkpoint snapshot, and pruned at checkpoint boundaries by a
// deterministic inactivity rule — so replicas that catch up through state
// transfer accept and reject replays exactly like replicas that applied the
// whole log.

// session is one client's execution state.
type session struct {
	lastSeq   uint64 // highest executed sequence number
	lastSlot  uint64 // slot in which lastSeq executed (drives pruning)
	lastReply []byte // cached result of lastSeq, served to retransmissions
}

// ReplyFunc receives the reply to a request submitted with HandleRequest,
// once per executed request of the client (and for retransmissions answered
// from the cache, before HandleRequest returns unless a delivery is already
// in progress). Replies to one client arrive in sequence order, each after
// its slot's OnCommit; see CommitFunc for the contract
// (in order, after the lock, may re-enter, must not block).
type ReplyFunc func(*msg.Reply)

// sessionRetentionIntervals is how many checkpoint intervals a session
// survives without executing anything before the checkpoint prunes it. The
// rule is deterministic — all replicas prune the same sessions at the same
// boundary, and snapshots stay byte-identical — and it is what bounds the
// table by *active* clients: a departed client's session costs memory for at
// most two intervals. The flip side is a bounded dedup horizon: a request
// retransmitted more than two intervals after its client's last execution
// may re-execute, so clients must not sleep on an unacknowledged request.
const sessionRetentionIntervals = 2

// Request validation errors.
var (
	errEmptyRequest  = errors.New("smr: empty request operation")
	errEmptyClient   = errors.New("smr: empty client id")
	errClientTooLong = fmt.Errorf("smr: client id exceeds %d bytes", msg.MaxClientID)
	errZeroSeq       = errors.New("smr: request sequence numbers start at 1")
	errWrongGroup    = errors.New("smr: request addressed to another consensus group")
)

// decodeRequest parses SMR command bytes back into a request. Commands that
// are not well-formed requests (a Byzantine leader can batch arbitrary
// bytes) decode to (nil, false) and are skipped by the apply loop. Every
// command the replica holds — queued, in flight, decided — is its own and
// never written, so the request's Op aliases cmd (msg.DecodeOwned).
func decodeRequest(cmd Command) (*msg.Request, bool) {
	m, err := msg.DecodeOwned(cmd)
	if err != nil {
		return nil, false
	}
	req, ok := m.(*msg.Request)
	if !ok || len(req.Client) == 0 || req.Seq == 0 {
		return nil, false
	}
	return req, true
}

// checkRequest is the admission check of both ways a request enters the
// replica — from a client (HandleRequest) and relayed by a peer (the ctrlSlot
// frame): a request this group must never queue is refused before it can
// reach a proposal batch.
func (r *Replica) checkRequest(req *msg.Request) error {
	switch {
	case req == nil || len(req.Op) == 0:
		return errEmptyRequest
	case len(req.Client) == 0:
		return errEmptyClient
	case len(req.Client) > msg.MaxClientID:
		return errClientTooLong
	case req.Seq == 0:
		return errZeroSeq
	case req.Group != r.cfg.Group:
		// A misrouted request must not enter this group's log: the same
		// (client, seq) pair may legitimately be in flight in its own
		// group, and executing it here would both corrupt this group's
		// session table and break exactly-once across the deployment.
		return errWrongGroup
	}
	return nil
}

// HandleRequest ingests one external client request:
//
//   - a request at or below the client's executed high-water mark never
//     reaches a proposal batch: a retransmission of the last executed
//     request is answered immediately from the reply cache, anything older
//     is dropped (the client has already moved on);
//   - a fresh request is queued for proposal and answered through reply
//     once it executes; a replica that does not lead view 1 also relays it,
//     in one frame, to the replica that does — the one that fills the
//     window.
//
// reply, when not nil, becomes the client's reply route here, stale
// request or fresh: every later execution of the client's requests is
// answered through it, including requests this replica never received.
// That is what lets a correct client (internal/client) send a session's
// first request to every replica and its later first rounds to Leader(1)
// alone, and still collect f+1 replies. A round that does not settle goes
// to every replica again, which lets the view-change leader graft the
// request from its own queue when the view-1 leader is dead. A request
// handed to a single follower reaches Leader(1) through the one relay and
// is not passed on to a view-change leader.
//
// reply may be nil (fire-and-forget). A client must keep at most one
// request in flight per session: sequence numbers are executed in log
// order, and a lower sequence number committing after a higher one is
// rejected as stale.
func (r *Replica) HandleRequest(req *msg.Request, reply ReplyFunc) error {
	if err := r.checkRequest(req); err != nil {
		return err
	}
	r.mu.Lock()
	defer r.mu.Unlock()
	if r.closed {
		return transport.ErrClosed
	}
	r.countIn(msg.KindRequest)
	if reply != nil {
		// Bound before the stale check: a follower may apply the leader's
		// batch before the client's own copy of the request arrives, and
		// the route must still follow the session, whose later requests go
		// to the leader alone.
		r.replyTo[req.Client] = reply
	}
	if sess := r.sessions[req.Client]; sess != nil && req.Seq <= sess.lastSeq {
		// Stale: reject before it ever enters a proposal batch. Serve the
		// cached reply for an exact retransmission of the last execution —
		// through the same durability gate as a first-time reply: the
		// session entry proves execution, but the decision record behind it
		// may still be riding an in-flight fsync, and a reply is a promise
		// the command survives a crash.
		if reply != nil && req.Seq == sess.lastSeq {
			r.dispatchReplyLocked(reply, r.cachedReplyLocked(req.Client, sess), nil)
		}
		return nil
	}
	// The body of the relay frame is the request's canonical encoding,
	// which is also its SMR command bytes: one buffer serves both, and
	// neither the queue nor the transport writes to it.
	w := newFrame(r.cfg.Group, ctrlSlot)
	hdr := w.Len()
	msg.EncodeTo(w, req)
	frame := w.Bytes()
	r.enqueueRequestLocked(req, Command(frame[hdr:]))
	if leader := r.cfg.Cluster.Leader(1); leader != r.cfg.Self {
		// Ordered, not durably gated: the relayed bytes are the client's,
		// not replica state.
		r.countOut(msg.KindRequest)
		r.sendOrderedLocked(leader, frame)
	}
	r.fillWindowLocked()
	r.pokeRegimeLocked()
	return nil
}

// cachedReplyLocked materializes the cached last reply of a session. The
// caller holds r.mu.
func (r *Replica) cachedReplyLocked(c types.ClientID, sess *session) *msg.Reply {
	return &msg.Reply{
		Client:  c,
		Seq:     sess.lastSeq,
		Slot:    sess.lastSlot,
		Replica: r.cfg.Self,
		Result:  append([]byte(nil), sess.lastReply...),
		Group:   r.cfg.Group,
	}
}

// staleLocked reports whether the session table proves req already executed
// (or was superseded). The caller holds r.mu.
func (r *Replica) staleLocked(req *msg.Request) bool {
	sess := r.sessions[req.Client]
	return sess != nil && req.Seq <= sess.lastSeq
}

// enqueueRequestLocked queues an encoded request for proposal unless it is
// stale, already queued, or already in flight in a live slot proposal — the
// in-flight check is what keeps concurrent slot chunks disjoint when the
// same request arrives again (a retransmission, or a follower's relay of a
// command this replica already assigned). enc is the tail of a frame this
// replica owns — one it encoded, or one its transport delivered — that
// nobody writes again, so the queue keeps it without a copy. The caller
// holds r.mu.
func (r *Replica) enqueueRequestLocked(req *msg.Request, enc Command) {
	if r.staleLocked(req) {
		return
	}
	if _, live := r.inflight[string(enc)]; live {
		return
	}
	if r.pending.Contains(enc) {
		return // duplicate arrival
	}
	r.pending.PushBackAt(enc, r.m.tracer.Nanos(r.cfg.Clock.Now()))
}

// compactPendingLocked drops queued commands the session table has since
// proven stale, so they never enter a proposal batch (a command can go stale
// while queued: the same request commits through another replica's batch
// under different bytes, or a later sequence number of the client commits
// first). The caller holds r.mu.
func (r *Replica) compactPendingLocked() {
	r.pending.Filter(func(p Command) bool {
		req, ok := decodeRequest(p)
		return !ok || !r.staleLocked(req)
	})
}

// executeRequestLocked runs one decided command through the session table:
// skip it if it is not a well-formed request or its session proves it
// already executed; otherwise apply it, record the new high-water mark,
// cache the reply, and dispatch it to the client if one is connected here.
// The caller holds r.mu; slot is the log slot being applied.
func (r *Replica) executeRequestLocked(slot uint64, cmd Command) {
	req, ok := decodeRequest(cmd)
	if !ok {
		return
	}
	r.dropPending(cmd)
	if r.staleLocked(req) {
		return
	}
	result := r.cfg.App.Apply(slot, Command(req.Op).Clone())
	r.m.applied.Inc()
	sess := r.sessions[req.Client]
	if sess == nil {
		sess = &session{}
		r.sessions[req.Client] = sess
	}
	sess.lastSeq = req.Seq
	sess.lastSlot = slot
	sess.lastReply = result
	if cb := r.replyTo[req.Client]; cb != nil {
		// With storage the dispatch waits for the slot's decision record to
		// be durable: a reply is a promise the command survives a crash.
		var tr *obs.Trace
		if sl, ok := r.slots[slot]; ok {
			tr = &sl.trace
		}
		r.dispatchReplyLocked(cb, r.cachedReplyLocked(req.Client, sess), tr)
	}
}

// pruneSessionsLocked drops sessions that executed nothing for at least
// sessionRetentionIntervals checkpoint intervals before the checkpoint slot.
// It runs at every checkpoint emission boundary, before the snapshot is
// encoded, and depends only on replicated state — so every correct replica
// prunes identically and snapshots stay byte-identical. The caller holds
// r.mu.
func (r *Replica) pruneSessionsLocked(ckptSlot uint64) {
	horizon := sessionRetentionIntervals * r.interval
	if ckptSlot < horizon {
		return
	}
	cut := ckptSlot - horizon
	for id, sess := range r.sessions {
		if sess.lastSlot <= cut {
			delete(r.sessions, id)
			delete(r.replyTo, id)
		}
	}
}

// SessionCount returns the number of live client sessions (test/metrics
// hook: it stays O(active clients) regardless of how many commands the log
// has executed).
func (r *Replica) SessionCount() int {
	r.mu.Lock()
	defer r.mu.Unlock()
	return len(r.sessions)
}

// SessionSeq returns a client's executed sequence high-water mark.
func (r *Replica) SessionSeq(c types.ClientID) (uint64, bool) {
	r.mu.Lock()
	defer r.mu.Unlock()
	sess, ok := r.sessions[c]
	if !ok {
		return 0, false
	}
	return sess.lastSeq, true
}

// ---------------------------------------------------------------------------
// Session-table snapshot codec
// ---------------------------------------------------------------------------

// encodeSessions appends the session table in sorted client order, so the
// encoding is deterministic across replicas.
func encodeSessions(w *wire.Writer, sessions map[types.ClientID]*session) {
	ids := make([]string, 0, len(sessions))
	for id := range sessions {
		ids = append(ids, string(id))
	}
	sort.Strings(ids)
	w.Uvarint(uint64(len(ids)))
	for _, id := range ids {
		sess := sessions[types.ClientID(id)]
		w.BytesField([]byte(id))
		w.Uvarint(sess.lastSeq)
		w.Uvarint(sess.lastSlot)
		w.BytesField(sess.lastReply)
	}
}

// decodeSessions parses a session table encoded by encodeSessions.
func decodeSessions(rd *wire.Reader) (map[types.ClientID]*session, error) {
	n := rd.Uvarint()
	if err := rd.Err(); err != nil {
		return nil, err
	}
	if n > uint64(rd.Remaining()) {
		return nil, wire.ErrOverflow
	}
	sessions := make(map[types.ClientID]*session, n)
	for i := uint64(0); i < n; i++ {
		id := rd.BytesField()
		if len(id) > msg.MaxClientID {
			return nil, wire.ErrOverflow
		}
		sess := &session{
			lastSeq:   rd.Uvarint(),
			lastSlot:  rd.Uvarint(),
			lastReply: rd.BytesField(),
		}
		if err := rd.Err(); err != nil {
			return nil, err
		}
		sessions[types.ClientID(id)] = sess
	}
	return sessions, nil
}
