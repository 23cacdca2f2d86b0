package core

import (
	"errors"
	"fmt"

	"repro/internal/msg"
	"repro/internal/quorum"
	"repro/internal/sigcrypto"
	"repro/internal/types"
)

// maxTrackedKeys bounds the number of messages whose accepted signatures an
// instance's verify memo records (see verifyMemo.remember). Correct
// processes sign a handful of messages per view; the cap only limits how
// much junk state f Byzantine senders can force a correct process to hold.
const maxTrackedKeys = 4096

// tallyViews is how many views an instance tallies Acks, AckSigs and
// Commits for at once: its current view, the one before it (late traffic
// of the view it just left) and the two after it (traffic of peers that
// entered a view first). A message of any other view is dropped before it
// costs a signature check; tallies then hold at most tallyViews·n senders'
// records of one Ack, AckSig and Commit each, whatever f senders send.
const tallyViews = 4

// maxPendingMessages bounds the buffer of messages received for views the
// replica has not entered yet (reliable channels may deliver a new leader's
// proposal before the view-synchronization quorum is observed).
const maxPendingMessages = 1024

// ErrInvalidConfig is returned by NewReplica for configurations that violate
// the resilience bounds of the paper.
var ErrInvalidConfig = errors.New("core: invalid configuration")

// adoptedProposal is the non-nil part of the replica's vote record: the last
// proposal accepted, in the form (x, u, σ, τ) of Section 3.2.
type adoptedProposal struct {
	value types.Value
	view  types.View
	cert  *msg.ProgressCert
	tau   sigcrypto.Signature
}

// The kinds of message a view's tallies count, indexing senderVotes.votes.
const (
	tallyAck = iota
	tallyAckSig
	tallyCommit
	tallyKinds
)

// vote is a sender's first message of one kind in one view, as the tallies
// keep it: its value, and whether it passed its check (an Ack has none).
type vote struct {
	x        types.Value
	seen, ok bool
}

// senderVotes is what one sender has sent in one view: its first Ack,
// AckSig and Commit. A correct process sends each at most once per view,
// and a quorum is a count of distinct senders, so a sender's later message
// of a kind in the view can change no count and is dropped unread — before
// any signature check, so that a Byzantine sender's flood costs one check
// per (view, sender) and kind.
type senderVotes struct {
	votes [tallyKinds]vote
	phi   sigcrypto.Signature // the AckSig's signature, once it checked out
}

// viewTally is one view's Ack, AckSig and Commit tallies: one record per
// sender, made on the view's first message (see Replica.tallyFor).
type viewTally struct {
	view       types.View
	senders    []senderVotes // by sender
	commitSent bool          // this replica's Commit of the view is out
}

// take records x as sender from's message of kind k in the view and
// returns its vote, or nil if the sender already sent one of that kind.
func (t *viewTally) take(from types.ProcessID, k int, x types.Value) *vote {
	v := &t.senders[from].votes[k]
	if v.seen {
		return nil
	}
	v.seen, v.x = true, x
	return v
}

// count counts the senders whose message of kind k in the view was for x
// and passed its check.
func (t *viewTally) count(k int, x types.Value) int {
	n := 0
	for i := range t.senders {
		if v := &t.senders[i].votes[k]; v.ok && v.x.Equal(x) {
			n++
		}
	}
	return n
}

// leaderState is the view-change state of the leader of the current view.
type leaderState struct {
	votes         map[types.ProcessID]msg.SignedVote
	certRequested bool
	selected      types.Value
	certVotes     []msg.SignedVote
	certAcks      *sigcrypto.Set
	culprit       types.ProcessID
}

// pendingMsg is a buffered future-view message.
type pendingMsg struct {
	from types.ProcessID
	m    msg.Message
}

// Replica is the deterministic consensus state machine of one process. It
// is not safe for concurrent use; runtimes serialize calls to it.
type Replica struct {
	cfg      types.Config
	th       quorum.Thresholds
	id       types.ProcessID
	signer   sigcrypto.Signer
	verifier verifyMemo
	input    types.Value

	view     types.View
	proposed bool // whether this replica proposed in the current view
	acked    bool // whether an ack was sent in the current view
	signed   bool // whether the AckSig of the current view's ack was sent
	// hold makes onPropose leave the AckSig unsigned until HoldAckSig(false)
	// or a peer's AckSig for the acked (view, value) releases it (see
	// HoldAckSig). The paper's replica signs at once: hold is false unless
	// a runtime sets it.
	hold    bool
	adopted *adoptedProposal
	latest  *msg.CommitCert // latest commit certificate collected

	// restoredAcks is the crash-recovery equivocation guard (see
	// RestoreVoteState): for every view the pre-crash incarnation acked in,
	// the value it acked. In such a view this incarnation only ever re-acks
	// that exact value — re-sending an identical ack is harmless (and good
	// for liveness: the original may have been lost), but acking a
	// different value in the same view is the equivocation that breaks the
	// fast path's intersection argument. Nil unless restored.
	restoredAcks map[types.View]types.Value

	decided  bool
	decision types.Decision

	// tallies holds the Ack, AckSig and Commit tallies of the views in
	// [view−1, view+2], view w at index w mod tallyViews (see tallyFor).
	tallies [tallyViews]viewTally

	leader  *leaderState
	pending map[types.View][]pendingMsg // made by the first buffered message
	nPend   int
}

// NewReplica creates the state machine of process id with the given input
// value. It starts in no view; EnterView(1) starts view 1. Every signature
// the replica checks goes through its own verifyMemo over verifier, so each
// one costs a real verification at most once per instance, and the ones its
// own signer made (see sign) cost none. It allocates the Replica alone: the
// state only some paths touch (a view's tallies, the buffer of future-view
// messages, the memo's table, a view change's leader state) is made on
// first use.
func NewReplica(cfg types.Config, id types.ProcessID, signer sigcrypto.Signer, verifier sigcrypto.Verifier, input types.Value) (*Replica, error) {
	r := new(Replica)
	if err := r.init(cfg, id, signer, verifier, input); err != nil {
		return nil, err
	}
	return r, nil
}

// init makes the zero Replica r the one NewReplica describes.
func (r *Replica) init(cfg types.Config, id types.ProcessID, signer sigcrypto.Signer, verifier sigcrypto.Verifier, input types.Value) error {
	if err := cfg.Validate(); err != nil {
		return fmt.Errorf("%w: %v", ErrInvalidConfig, err)
	}
	if !id.Valid(cfg.N) {
		return fmt.Errorf("%w: process %v out of range for n=%d", ErrInvalidConfig, id, cfg.N)
	}
	*r = Replica{
		cfg:      cfg,
		th:       quorum.New(cfg),
		id:       id,
		signer:   signer,
		verifier: *newVerifyMemo(verifier, cfg.N),
		input:    input.Clone(),
	}
	return nil
}

// ID returns the process identifier.
func (r *Replica) ID() types.ProcessID { return r.id }

// View returns the current view number.
func (r *Replica) View() types.View { return r.view }

// Config returns the resilience configuration.
func (r *Replica) Config() types.Config { return r.cfg }

// Decided returns the decision, if one was reached.
func (r *Replica) Decided() (types.Decision, bool) { return r.decision, r.decided }

// Input returns the process's input value.
func (r *Replica) Input() types.Value { return r.input.Clone() }

// SetInput replaces the process's input value and returns the actions that
// follow. The input is read in two places: leader(1)'s proposal, and a later
// leader's free selection (when no collected vote constrains the choice, the
// leader proposes its own input — Section 3.2). Leader(1) proposes when it
// enters view 1, or, if it had no input then, at the first SetInput that
// gives it one while it is still in view 1 (see proposeInput): the SMR layer
// opens every instance with no input and hands the slot its commands later,
// through this call, whether the instance was opened for them or by a peer's
// traffic. A leader of a later view gets its input here before it enters the
// view (see Process.SetEnterHook), so a free selection proposes real
// commands, not a no-op. Calling it after the instance has adopted or
// selected a value has no effect on safety — those paths never read the
// input again.
func (r *Replica) SetInput(v types.Value) []Action {
	r.input = v.Clone()
	return r.proposeInput()
}

// AwaitsInput reports whether the replica is in view 1 with no input: as
// leader(1), its next SetInput proposes. It allocates nothing, so a runtime
// may ask it on every request.
func (r *Replica) AwaitsInput() bool { return r.view == 1 && r.input == nil }

// CurrentVote materializes the process's vote record vote_q: the adopted
// proposal plus the latest collected commit certificate (Appendix A.2).
func (r *Replica) CurrentVote() msg.VoteRecord {
	if r.adopted == nil {
		// Even with no adopted proposal the vote carries the latest commit
		// certificate: a process may assemble one from ack signatures
		// without ever receiving the proposal, and omitting it could hide a
		// slow-path decision from the selection algorithm.
		vr := msg.NilVote()
		vr.CC = r.latest.Clone()
		return vr
	}
	return msg.VoteRecord{
		Value: r.adopted.value.Clone(),
		View:  r.adopted.view,
		Cert:  r.adopted.cert.Clone(),
		Tau:   r.adopted.tau.Clone(),
		CC:    r.latest.Clone(),
	}
}

// RestoreVoteState seeds a recovering replica with the vote state its
// pre-crash incarnation persisted, and must be called before the replica
// enters view 1. acks maps every view the process acked in to the value it
// acked (the equivocation guard: in those views only the identical value is
// ever acked again). adopted, when non-nil and not the nil vote, re-adopts the
// pre-crash vote record (x, u, σ, τ) so the recovered process's votes in
// future view changes still carry it — the extended paper's assumption
// that processes remember their adopted votes across steps, which only
// holds in practice with stable storage. The record's CC field, if set,
// restores the latest collected commit certificate.
func (r *Replica) RestoreVoteState(acks map[types.View]types.Value, adopted *msg.VoteRecord) {
	if len(acks) > 0 {
		r.restoredAcks = make(map[types.View]types.Value, len(acks))
		for v, x := range acks {
			r.restoredAcks[v] = x.Clone()
		}
	}
	if adopted != nil && !adopted.Nil {
		r.adopted = &adoptedProposal{
			value: adopted.Value.Clone(),
			view:  adopted.View,
			cert:  adopted.Cert.Clone(),
			tau:   adopted.Tau.Clone(),
		}
	}
	if adopted != nil && adopted.CC != nil {
		r.updateLatestCC(adopted.CC)
	}
}

// Init enters view 1: it is EnterView(1), for callers that drive a bare
// Replica without a view synchronizer. A Process enters view 1 through its
// synchronizer and never calls it.
func (r *Replica) Init() []Action { return r.EnterView(1) }

// EnterView advances the replica to view v — driven by the view
// synchronizer, the only way into a view — and takes the view's first
// step: leader(1) proposes its input (Section 3; proposeInput), a later
// view's leader starts the view change, and every other process sends it its
// vote. Views never decrease and each is entered at most once (a v at or
// below the current view is ignored), so a process acks at most one value
// per view.
func (r *Replica) EnterView(v types.View) []Action {
	if v <= r.view {
		return nil
	}
	r.view = v
	r.proposed = false
	r.acked = false
	r.signed = false
	r.leader = nil
	var out []Action

	leader := r.cfg.Leader(v)
	switch {
	case leader == r.id && v == 1:
		out = append(out, r.proposeInput()...)
	case leader == r.id:
		// Run the view change: collect n−f votes, starting with our own.
		r.leader = &leaderState{
			votes:   make(map[types.ProcessID]msg.SignedVote, r.cfg.N),
			culprit: types.NoProcess,
		}
		own := r.signedVote(v)
		r.leader.votes[r.id] = own
		out = append(out, r.tryViewChange()...)
	case v > 1:
		// Help the new leader: send our current vote.
		out = append(out, SendAction{To: leader, Msg: &msg.Vote{View: v, SV: r.signedVote(v)}})
	}

	// Replay messages buffered for this view; drop older buffers.
	for bv, batch := range r.pending {
		if bv > v {
			continue
		}
		delete(r.pending, bv)
		r.nPend -= len(batch)
		if bv < v {
			continue
		}
		for _, p := range batch {
			out = append(out, r.Deliver(p.from, p.m)...)
		}
	}
	return out
}

// proposeInput is leader(1)'s step of view 1: it proposes its input with an
// empty certificate, once. A leader with no input stays silent until
// SetInput gives it one: proposing the empty value would hand followers a
// vote for it, and that vote then beats any real command a view-change
// leader grafts onto a free selection (the orphan-slot hazard, in its view-1
// guise). Silence leaves every view-1 vote Nil, so the next view's selection
// is free.
func (r *Replica) proposeInput() []Action {
	if r.view != 1 || r.cfg.Leader(1) != r.id || r.proposed || r.input == nil {
		return nil
	}
	r.proposed = true
	tau := r.sign(msg.ProposeDigest(r.input, 1))
	return r.broadcast(&msg.Propose{View: 1, X: r.input.Clone(), Cert: nil, Tau: tau})
}

// sign signs digest with the replica's own signer and records the signature
// in the memo as accepted, so that the replica's own τ, AckSig, CertAck and
// vote, when they come back to it (its own copy of a broadcast, or inside a
// certificate), cost no verification. A signer that signs for another id
// records nothing: the replica trusts only signatures in its own name.
func (r *Replica) sign(digest []byte) sigcrypto.Signature {
	sig := r.signer.Sign(digest)
	if sig.Signer == r.id {
		r.verifier.remember(digest, sig)
	}
	return sig
}

// signedVote builds this process's signed vote for new view v.
func (r *Replica) signedVote(v types.View) msg.SignedVote {
	vr := r.CurrentVote()
	phi := r.sign(msg.VoteDigest(vr, v))
	return msg.SignedVote{Voter: r.id, Vote: vr, Phi: phi}
}

// Deliver processes one message from a (channel-authenticated) sender and
// returns the resulting actions.
func (r *Replica) Deliver(from types.ProcessID, m msg.Message) []Action {
	if !from.Valid(r.cfg.N) {
		return nil
	}
	switch t := m.(type) {
	case *msg.Propose:
		return r.onPropose(from, t)
	case *msg.Ack:
		return r.onAck(from, t)
	case *msg.AckSig:
		return r.onAckSig(from, t)
	case *msg.Vote:
		return r.onVote(from, t)
	case *msg.CertRequest:
		return r.onCertRequest(from, t)
	case *msg.CertAck:
		return r.onCertAck(from, t)
	case *msg.Commit:
		return r.onCommit(from, t)
	default:
		// Wish messages belong to the view synchronizer (see Process).
		return nil
	}
}

// buffer stores a future-view message for replay on view entry.
func (r *Replica) buffer(from types.ProcessID, m msg.Message) {
	if r.nPend >= maxPendingMessages {
		return
	}
	v := m.InView()
	if r.pending == nil {
		r.pending = make(map[types.View][]pendingMsg)
	}
	r.pending[v] = append(r.pending[v], pendingMsg{from: from, m: m})
	r.nPend++
}

// broadcast emits a BroadcastAction and processes the replica's own copy,
// so that tallies include the sender itself (the paper's "sends to every
// process" includes the sender).
func (r *Replica) broadcast(m msg.Message) []Action {
	out := []Action{BroadcastAction{Msg: m}}
	out = append(out, r.Deliver(r.id, m)...)
	return out
}

// ---------------------------------------------------------------------------
// Proposal and fast path (Section 3.1, Appendix A.1)
// ---------------------------------------------------------------------------

func (r *Replica) onPropose(from types.ProcessID, m *msg.Propose) []Action {
	switch {
	case m.View > r.view:
		r.buffer(from, m)
		return nil
	case m.View < r.view:
		return nil
	}
	leader := r.cfg.Leader(m.View)
	if from != leader && from != r.id {
		return nil
	}
	if r.acked {
		return nil // at most one ack per view
	}
	if m.Tau.Signer != leader || !r.verifier.Verify(msg.ProposeDigest(m.X, m.View), m.Tau) {
		return nil
	}
	if !m.Cert.VerifyFor(&r.verifier, r.th, m.X, m.View) {
		return nil
	}
	if prev, ok := r.restoredAcks[m.View]; ok && !prev.Equal(m.X) {
		// The pre-crash incarnation acked a different value in this view;
		// acking this one would be equivocation. Stay silent — a view
		// change resolves the slot if it is still undecided.
		return nil
	}

	// Accept: adopt the vote (before sending the ack, per Section 3.2), then
	// acknowledge to every process. The slow-path signature goes in a
	// separate message, so a held one never delays the fast path: at once,
	// as in the paper, or, while the replica holds it, only once the slot
	// needs the slow path (see HoldAckSig). The AckSig also counts as its
	// sender's Ack (see onAckSig), so a runtime that sends both at once may
	// send the AckSig alone.
	r.acked = true
	r.adopted = &adoptedProposal{
		value: m.X.Clone(),
		view:  m.View,
		cert:  m.Cert.Clone(),
		tau:   m.Tau.Clone(),
	}
	var out []Action
	out = append(out, r.broadcast(&msg.Ack{View: m.View, X: m.X})...)
	if r.hold {
		if t := r.tallyAt(m.View); t != nil && t.count(tallyAckSig, m.X) > 0 {
			// A peer's AckSig for this very ack came first: the peer
			// trigger, late (see HoldAckSig).
			r.hold = false
		}
	}
	if !r.hold {
		out = append(out, r.broadcast(r.signAck(m.X))...)
	}
	return out
}

// HoldAckSig sets whether the replica holds back its AckSig. A held AckSig
// is the slow path's first step, deferred: the replica acks a proposal at
// once but signs the AckSig for it only when the slot turns out to need
// the slow path. HoldAckSig(false) is that moment, chosen by the runtime
// (a slot left undecided for too long): it ends the hold for the rest of
// the instance and, if the replica acked in its current view and has not
// sent that view's AckSig yet, signs and broadcasts it. A verified AckSig
// from a peer for the very (view, value) the replica acked, arriving before
// or after its ack, ends the hold the same way, so one replica that starts
// the slow path starts it at every correct one. A held AckSig of an earlier
// view is never sent: view entry drops it with the ack it belonged to.
//
// Safety does not depend on the hold: it changes when a correct process
// sends its AckSig, never whether it may or what it says, and a delayed
// message is an execution the asynchronous model already allows.
func (r *Replica) HoldAckSig(hold bool) []Action {
	r.hold = hold
	if hold || !r.acked || r.signed {
		return nil
	}
	return r.broadcast(r.signAck(r.adopted.value))
}

// signAck signs the AckSig for x, the value the replica acked in its
// current view; the caller sends it, once per view.
func (r *Replica) signAck(x types.Value) *msg.AckSig {
	r.signed = true
	return &msg.AckSig{View: r.view, X: x, Phi: r.sign(msg.AckDigest(x, r.view))}
}

// tallyFor returns view v's tallies, making them if v is in the tallied
// window [view−1, view+2] and has none yet; a view that left the window
// gives its record to the one that entered it. It returns nil for a view
// outside the window: that message counts nowhere.
func (r *Replica) tallyFor(v types.View) *viewTally {
	if v == types.NoView || v+1 < r.view || v > r.view+2 {
		return nil
	}
	t := &r.tallies[v%tallyViews]
	if t.view != v {
		t.view, t.commitSent = v, false
		clear(t.senders)
	}
	if t.senders == nil {
		t.senders = make([]senderVotes, r.cfg.N)
	}
	return t
}

// tallyAt returns view v's tallies if it has any, making none.
func (r *Replica) tallyAt(v types.View) *viewTally {
	if t := &r.tallies[v%tallyViews]; t.view == v && t.senders != nil {
		return t
	}
	return nil
}

func (r *Replica) onAck(from types.ProcessID, m *msg.Ack) []Action {
	if r.decided {
		return nil // nothing an Ack could change
	}
	t := r.tallyFor(m.View)
	if t == nil {
		return nil
	}
	v := t.take(from, tallyAck, m.X)
	if v == nil {
		return nil // a sender's first Ack of a view is the one that counts
	}
	v.ok = true
	if t.count(tallyAck, m.X) >= r.th.FastQuorum() {
		return r.decide(m.X, m.View, types.FastPath)
	}
	return nil
}

// onAckSig counts an AckSig twice over. First as its sender's Ack of the
// view: a correct process signs an AckSig only for the value it adopted and
// acked in that view (Appendix A), so the AckSig says everything its Ack
// says, and a runtime may send it in the Ack's place. It counts under the
// Ack's own first-message rule and before any signature check, as an Ack
// would — an Ack is only channel-authenticated, so a forged signature
// claims no more than the Ack a Byzantine sender could send instead. Then,
// once its signature checks out, as a share of the view's commit
// certificate; the Commit goes out at CommitQuorum even after a fast
// decision, for peers that missed the fast quorum.
func (r *Replica) onAckSig(from types.ProcessID, m *msg.AckSig) []Action {
	t := r.tallyFor(m.View)
	if t == nil {
		return nil
	}
	var out []Action
	if !r.decided {
		if a := t.take(from, tallyAck, m.X); a != nil {
			a.ok = true
			if t.count(tallyAck, m.X) >= r.th.FastQuorum() {
				out = r.decide(m.X, m.View, types.FastPath)
			}
		}
	}
	if m.Phi.Signer != from || t.commitSent {
		// Once the certificate is formed and sent nothing reads the view's
		// AckSigs again (no other value can gather a commit quorum of
		// distinct senders), so a later one is not worth a verification.
		return out
	}
	v := t.take(from, tallyAckSig, m.X)
	if v == nil {
		return out // one check per (view, sender), whatever it found
	}
	if !r.verifier.Verify(msg.AckDigest(m.X, m.View), m.Phi) {
		return out
	}
	v.ok, t.senders[from].phi = true, m.Phi
	if r.hold && r.acked && m.View == r.view && m.X.Equal(r.adopted.value) {
		// A peer started the slow path for what this replica acked: join
		// it. The own AckSig joins the tally through broadcast, and may
		// complete the certificate there.
		out = append(out, r.HoldAckSig(false)...)
	}
	if !t.commitSent && t.count(tallyAckSig, m.X) >= r.th.CommitQuorum() {
		t.commitSent = true
		cc := &msg.CommitCert{Value: m.X.Clone(), View: m.View, Sigs: t.certSigs(m.X)}
		r.updateLatestCC(cc)
		commit := r.broadcast(&msg.Commit{View: m.View, X: m.X, CC: *cc})
		if out == nil {
			return commit
		}
		out = append(out, commit...)
	}
	return out
}

// certSigs returns the valid AckSig signatures for x, in sender order.
func (t *viewTally) certSigs(x types.Value) []sigcrypto.Signature {
	sigs := make([]sigcrypto.Signature, 0, t.count(tallyAckSig, x))
	for i := range t.senders {
		if v := &t.senders[i].votes[tallyAckSig]; v.ok && v.x.Equal(x) {
			sigs = append(sigs, t.senders[i].phi)
		}
	}
	return sigs
}

func (r *Replica) onCommit(from types.ProcessID, m *msg.Commit) []Action {
	if !m.CC.Value.Equal(m.X) || m.CC.View != m.View {
		return nil
	}
	if r.decided && r.latest != nil && r.latest.View >= m.View {
		// Nothing this Commit could change: decide is a no-op once decided,
		// and updateLatestCC keeps latest unless the view is higher.
		return nil
	}
	t := r.tallyFor(m.View)
	if t == nil {
		return nil
	}
	v := t.take(from, tallyCommit, m.X)
	if v == nil {
		return nil // one certificate check per (view, sender)
	}
	if !m.CC.Verify(&r.verifier, r.th) {
		return nil
	}
	v.ok = true
	r.updateLatestCC(&m.CC)
	if t.count(tallyCommit, m.X) >= r.th.CommitQuorum() {
		return r.decide(m.X, m.View, types.SlowPath)
	}
	return nil
}

func (r *Replica) updateLatestCC(cc *msg.CommitCert) {
	if r.latest == nil || cc.View > r.latest.View {
		r.latest = cc.Clone()
	}
}

func (r *Replica) decide(x types.Value, v types.View, path types.DecidePath) []Action {
	if r.decided {
		return nil
	}
	r.decided = true
	r.decision = types.Decision{Value: x.Clone(), View: v, Path: path}
	return []Action{DecideAction{Decision: r.decision}}
}

// ---------------------------------------------------------------------------
// View change (Section 3.2, Appendix A.2)
// ---------------------------------------------------------------------------

func (r *Replica) onVote(from types.ProcessID, m *msg.Vote) []Action {
	switch {
	case m.View > r.view:
		r.buffer(from, m)
		return nil
	case m.View < r.view:
		return nil
	}
	if r.leader == nil || r.cfg.Leader(m.View) != r.id {
		return nil
	}
	if m.SV.Voter != from {
		return nil
	}
	if _, dup := r.leader.votes[from]; dup {
		return nil
	}
	if !m.SV.Valid(&r.verifier, r.th, m.View) {
		return nil
	}
	r.leader.votes[from] = m.SV.Clone()
	return r.tryViewChange()
}

// tryViewChange runs the selection algorithm on the votes collected so far
// and, once it succeeds, starts the certificate round (Section 3.2).
func (r *Replica) tryViewChange() []Action {
	ls := r.leader
	if ls == nil || ls.certRequested {
		return nil
	}
	votes := make([]msg.SignedVote, 0, len(ls.votes))
	for _, sv := range ls.votes {
		votes = append(votes, sv)
	}
	out, err := Select(r.th, &r.verifier, r.view, votes)
	if err != nil {
		return nil // ErrNeedMoreVotes: keep collecting
	}
	if out.Free {
		ls.selected = r.input.Clone()
	} else {
		ls.selected = out.Value.Clone()
	}
	ls.culprit = out.Culprit
	ls.certVotes = sortedVotes(votes)
	ls.certRequested = true
	ls.certAcks = sigcrypto.NewSet(msg.CertAckDigest(ls.selected, r.view))

	// Endorse our own selection, then ask 2f other processes, so that f+1
	// correct endorsements are guaranteed among the 2f+1 contacted. Any 2f
	// will do; ask the lowest-numbered voters, whose votes show them alive
	// in this view. Select took n−f votes, and n−f−1 ≥ 2f as n ≥ 3f+1.
	actions := []Action{}
	own := r.sign(msg.CertAckDigest(ls.selected, r.view))
	ls.certAcks.Add(&r.verifier, own)
	req := &msg.CertRequest{View: r.view, X: ls.selected.Clone(), Votes: ls.certVotes}
	sent := 1 // ourselves
	for _, sv := range ls.certVotes {
		if sent == r.th.CertRequestSet() {
			break
		}
		if sv.Voter == r.id {
			continue
		}
		actions = append(actions, SendAction{To: sv.Voter, Msg: req})
		sent++
	}
	actions = append(actions, r.maybePropose()...)
	return actions
}

func (r *Replica) onCertRequest(from types.ProcessID, m *msg.CertRequest) []Action {
	// Certificate verification is stateless: the votes alone prove that the
	// value is safe in m.View (Section 3.2 — "at least one correct process
	// verified that the leader performed the selection algorithm
	// correctly"), so a process may endorse regardless of its current view.
	if err := VerifyCertRequest(r.th, &r.verifier, m); err != nil {
		return nil
	}
	phi := r.sign(msg.CertAckDigest(m.X, m.View))
	return []Action{SendAction{To: from, Msg: &msg.CertAck{View: m.View, X: m.X, Phi: phi}}}
}

func (r *Replica) onCertAck(from types.ProcessID, m *msg.CertAck) []Action {
	switch {
	case m.View > r.view:
		r.buffer(from, m)
		return nil
	case m.View < r.view:
		return nil
	}
	ls := r.leader
	if ls == nil || !ls.certRequested || r.proposed {
		return nil
	}
	if !m.X.Equal(ls.selected) || m.Phi.Signer != from {
		return nil
	}
	if !ls.certAcks.Add(&r.verifier, m.Phi) {
		return nil
	}
	return r.maybePropose()
}

// maybePropose sends the Propose once f+1 CertAck signatures are collected.
func (r *Replica) maybePropose() []Action {
	ls := r.leader
	if ls == nil || r.proposed || ls.certAcks == nil || ls.certAcks.Len() < r.th.CertQuorum() {
		return nil
	}
	r.proposed = true
	cert := &msg.ProgressCert{
		Value: ls.selected.Clone(),
		View:  r.view,
		Sigs:  ls.certAcks.Signatures(),
	}
	tau := r.sign(msg.ProposeDigest(ls.selected, r.view))
	return r.broadcast(&msg.Propose{View: r.view, X: ls.selected.Clone(), Cert: cert, Tau: tau})
}

// sortedVotes orders votes by voter for deterministic certificates.
func sortedVotes(votes []msg.SignedVote) []msg.SignedVote {
	out := make([]msg.SignedVote, len(votes))
	copy(out, votes)
	for i := 1; i < len(out); i++ {
		for j := i; j > 0 && out[j].Voter < out[j-1].Voter; j-- {
			out[j], out[j-1] = out[j-1], out[j]
		}
	}
	return out
}
