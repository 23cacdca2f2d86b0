package msg

import (
	"fmt"

	"repro/internal/sigcrypto"
	"repro/internal/types"
)

// Kind discriminates message types on the wire.
type Kind uint8

// Message kinds.
const (
	// KindPropose is the leader's proposal (Section 3.1).
	KindPropose Kind = iota + 1
	// KindAck acknowledges a proposal; n−t matching acks decide fast.
	KindAck
	// KindAckSig carries the slow-path ack signature φ_ack (Appendix A.1).
	// It is a separate message so signature generation never delays the
	// fast path, mirroring the paper.
	KindAckSig
	// KindVote carries a process's vote to the leader of its new view.
	KindVote
	// KindCertRequest asks 2f+1 processes to endorse the leader's selected
	// value (Section 3.2, "creating the progress certificate").
	KindCertRequest
	// KindCertAck returns the endorsement signature φ_ca.
	KindCertAck
	// KindCommit carries a commit certificate; CommitQuorum Commit messages
	// decide through the slow path (Appendix A.1).
	KindCommit
	// KindWish is a view-synchronization wish ("I want to enter view v");
	// see internal/viewsync.
	KindWish
	// KindRaw is the generic envelope used by baseline protocols and the
	// lower-bound strawman (see Raw).
	KindRaw
	// KindCheckpoint carries a replica's signed state digest at a checkpoint
	// slot; CertQuorum matching checkpoints make the checkpoint stable (see
	// internal/smr).
	KindCheckpoint
	// KindFetchState asks a peer for a state-transfer snapshot covering the
	// requester's applied frontier.
	KindFetchState
	// KindStateSnapshot carries one piece of the answer to a FetchState: a
	// size-bounded piece of the certified checkpoint snapshot, the last
	// piece also carrying certified decisions for the slots after it (see
	// StateSnapshot).
	KindStateSnapshot
	// KindRequest is an external client's command submission; its canonical
	// encoding doubles as the SMR command format (see Request).
	KindRequest
	// KindReply is a replica's response to an executed client request; f+1
	// matching replies convince the client (see Reply).
	KindReply
	// Kinds 15, 16 and 17 are retired and stay reserved: no kind reuses
	// their wire numbers, and a frame carrying one decodes as an unknown
	// kind.
	_
	_
	_
)

// String implements fmt.Stringer.
func (k Kind) String() string {
	switch k {
	case KindPropose:
		return "propose"
	case KindAck:
		return "ack"
	case KindAckSig:
		return "acksig"
	case KindVote:
		return "vote"
	case KindCertRequest:
		return "certreq"
	case KindCertAck:
		return "certack"
	case KindCommit:
		return "commit"
	case KindWish:
		return "wish"
	case KindRaw:
		return "raw"
	case KindCheckpoint:
		return "checkpoint"
	case KindFetchState:
		return "fetchstate"
	case KindStateSnapshot:
		return "statesnapshot"
	case KindRequest:
		return "request"
	case KindReply:
		return "reply"
	default:
		return fmt.Sprintf("kind(%d)", uint8(k))
	}
}

// Message is implemented by every protocol message.
type Message interface {
	// Kind returns the wire discriminator.
	Kind() Kind
	// InView returns the view the message belongs to.
	InView() types.View
}

// Propose is the message propose(x̂, v, σ̂, τ̂) of Section 3.1: the leader of
// view v proposes value X with progress certificate Cert (nil in view 1) and
// its own signature Tau over (propose, X, v).
type Propose struct {
	View types.View
	X    types.Value
	Cert *ProgressCert
	Tau  sigcrypto.Signature
}

// Kind implements Message.
func (m *Propose) Kind() Kind { return KindPropose }

// InView implements Message.
func (m *Propose) InView() types.View { return m.View }

// Ack is the message ack(x̂, v): sent to every process after accepting a
// proposal; a process decides X once it receives FastQuorum acks for the
// same (X, v).
type Ack struct {
	View types.View
	X    types.Value
}

// Kind implements Message.
func (m *Ack) Kind() Kind { return KindAck }

// InView implements Message.
func (m *Ack) InView() types.View { return m.View }

// AckSig is the message sig(φ_ack) of Appendix A.1, carrying the signature
// that contributes to commit certificates.
type AckSig struct {
	View types.View
	X    types.Value
	Phi  sigcrypto.Signature
}

// Kind implements Message.
func (m *AckSig) Kind() Kind { return KindAckSig }

// InView implements Message.
func (m *AckSig) InView() types.View { return m.View }

// Vote is the message vote(vote_q, φ_vote) of Section 3.2, sent to the
// leader of view View when a process enters that view.
type Vote struct {
	View types.View
	SV   SignedVote
}

// Kind implements Message.
func (m *Vote) Kind() Kind { return KindVote }

// InView implements Message.
func (m *Vote) InView() types.View { return m.View }

// CertRequest is the message CertReq(x̂, votes) of Section 3.2: the new
// leader's selected value together with the votes that justify it. The
// receiver re-runs the selection algorithm on Votes and, if X is consistent
// with the outcome, answers with a CertAck.
type CertRequest struct {
	View  types.View
	X     types.Value
	Votes []SignedVote
}

// Kind implements Message.
func (m *CertRequest) Kind() Kind { return KindCertRequest }

// InView implements Message.
func (m *CertRequest) InView() types.View { return m.View }

// CertAck is the endorsement message of Section 3.2, carrying
// φ_ca = sign((CertAck, X, View)). CertQuorum of them form a progress
// certificate.
type CertAck struct {
	View types.View
	X    types.Value
	Phi  sigcrypto.Signature
}

// Kind implements Message.
func (m *CertAck) Kind() Kind { return KindCertAck }

// InView implements Message.
func (m *CertAck) InView() types.View { return m.View }

// Commit is the message Commit(x, v, cc) of Appendix A.1: the sender has
// assembled a commit certificate; CommitQuorum valid Commit messages for the
// same (X, View) decide X through the slow path.
type Commit struct {
	View types.View
	X    types.Value
	CC   CommitCert
}

// Kind implements Message.
func (m *Commit) Kind() Kind { return KindCommit }

// InView implements Message.
func (m *Commit) InView() types.View { return m.View }

// Wish is the view-synchronization message: the sender wishes to enter View.
// Wishes rely on channel authentication only (Section 2.1) and are counted
// per sender by the synchronizer.
type Wish struct {
	View types.View
}

// Kind implements Message.
func (m *Wish) Kind() Kind { return KindWish }

// InView implements Message.
func (m *Wish) InView() types.View { return m.View }

// Compile-time interface checks.
var (
	_ Message = (*Propose)(nil)
	_ Message = (*Ack)(nil)
	_ Message = (*AckSig)(nil)
	_ Message = (*Vote)(nil)
	_ Message = (*CertRequest)(nil)
	_ Message = (*CertAck)(nil)
	_ Message = (*Commit)(nil)
	_ Message = (*Wish)(nil)
)
