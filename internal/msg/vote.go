package msg

import (
	"repro/internal/quorum"
	"repro/internal/sigcrypto"
	"repro/internal/types"
	"repro/internal/wire"
)

// VoteRecord is the variable vote_q of Section 3.2: a process's current
// estimate of the value to be decided, in the form (x, u, σ, τ) where x is a
// value, u is the view in which the process adopted it, σ is the progress
// certificate for x in u, and τ is leader(u)'s signature over
// (propose, x, u). The special value nil (Nil == true) means the process has
// not adopted any proposal yet.
//
// Following Appendix A.2, the record additionally carries the latest commit
// certificate the process has collected (CC, possibly nil). The certificate
// is orthogonal to the adopted part: a process may assemble a commit
// certificate from ack signatures without ever receiving the corresponding
// proposal, so even a nil vote can carry one — and must, or the selection
// algorithm could miss a slow-path decision.
type VoteRecord struct {
	// Nil marks the "no proposal adopted yet" state of the adopted part.
	// When Nil is true the Value, View, Cert, and Tau fields must be zero.
	Nil bool
	// Value is the adopted value x.
	Value types.Value
	// View is the view u in which the proposal was adopted.
	View types.View
	// Cert is the progress certificate σ for (Value, View); nil when
	// View == 1 (any value is safe in view 1).
	Cert *ProgressCert
	// Tau is leader(View)'s signature over ProposeDigest(Value, View).
	Tau sigcrypto.Signature
	// CC is the latest commit certificate collected by the voter, if any.
	CC *CommitCert
}

// NilVote returns the initial vote record.
func NilVote() VoteRecord { return VoteRecord{Nil: true} }

// Valid implements the paper's vote validity check: the adopted part is
// valid if it is nil, or if both σ and τ are valid with respect to x and u;
// the attached commit certificate, if any, must verify on its own.
func (vr VoteRecord) Valid(ver sigcrypto.Verifier, th quorum.Thresholds) bool {
	if vr.CC != nil && !vr.CC.Verify(ver, th) {
		return false
	}
	if vr.Nil {
		return len(vr.Value) == 0 && vr.View == types.NoView && vr.Cert == nil && len(vr.Tau.Bytes) == 0
	}
	if vr.View < 1 {
		return false
	}
	leader := th.Config().Leader(vr.View)
	if vr.Tau.Signer != leader {
		return false
	}
	if !ver.Verify(ProposeDigest(vr.Value, vr.View), vr.Tau) {
		return false
	}
	return vr.Cert.VerifyFor(ver, th, vr.Value, vr.View)
}

// Clone returns an independent deep copy.
func (vr VoteRecord) Clone() VoteRecord {
	return VoteRecord{
		Nil:   vr.Nil,
		Value: vr.Value.Clone(),
		View:  vr.View,
		Cert:  vr.Cert.Clone(),
		Tau:   vr.Tau.Clone(),
		CC:    vr.CC.Clone(),
	}
}

// MaxView returns the highest view contained in the record: the adopted view
// and the attached certificate's view both count (Appendix A.2). It returns
// types.NoView for a bare nil vote.
func (vr VoteRecord) MaxView() types.View {
	w := types.NoView
	if !vr.Nil && vr.View > w {
		w = vr.View
	}
	if vr.CC != nil && vr.CC.View > w {
		w = vr.CC.View
	}
	return w
}

func (vr VoteRecord) encode(w *wire.Writer) {
	w.Bool(vr.Nil)
	if !vr.Nil {
		w.BytesField(vr.Value)
		w.Uvarint(uint64(vr.View))
		encodeProgressCertPtr(w, vr.Cert)
		w.Int32(int32(vr.Tau.Signer))
		w.BytesField(vr.Tau.Bytes)
	}
	encodeCommitCertPtr(w, vr.CC)
}

func decodeVoteRecord(r *wire.Reader) VoteRecord {
	var vr VoteRecord
	vr.Nil = r.Bool()
	if r.Err() != nil {
		return vr
	}
	if !vr.Nil {
		vr.Value = r.BytesField()
		vr.View = types.View(r.Uvarint())
		vr.Cert = decodeProgressCertPtr(r)
		vr.Tau.Signer = types.ProcessID(r.Int32())
		vr.Tau.Bytes = r.BytesField()
	}
	vr.CC = decodeCommitCertPtr(r)
	return vr
}

// SignedVote pairs a vote record with its voter identity and the voter's
// signature φ_vote over (vote, vote_q, v); the view v it is signed for comes
// from the enclosing message. Signed votes travel in Vote messages
// (voter → new leader) and CertRequest messages (leader → verifiers).
type SignedVote struct {
	Voter types.ProcessID
	Vote  VoteRecord
	Phi   sigcrypto.Signature
}

// Valid reports whether the signed vote is valid with respect to new view v:
// the signature must be by Voter over VoteDigest(Vote, v) and the vote
// record itself must be valid. Both the adopted view and the certificate
// view must be smaller than v: a correct process votes in view v only with
// state produced in earlier views.
func (sv SignedVote) Valid(ver sigcrypto.Verifier, th quorum.Thresholds, v types.View) bool {
	if !sv.Voter.Valid(th.Config().N) || sv.Phi.Signer != sv.Voter {
		return false
	}
	if !sv.Vote.Nil && sv.Vote.View >= v {
		return false
	}
	if sv.Vote.CC != nil && sv.Vote.CC.View >= v {
		return false
	}
	if !ver.Verify(VoteDigest(sv.Vote, v), sv.Phi) {
		return false
	}
	return sv.Vote.Valid(ver, th)
}

// Clone returns an independent deep copy.
func (sv SignedVote) Clone() SignedVote {
	return SignedVote{Voter: sv.Voter, Vote: sv.Vote.Clone(), Phi: sv.Phi.Clone()}
}

func (sv SignedVote) encode(w *wire.Writer) {
	w.Int32(int32(sv.Voter))
	sv.Vote.encode(w)
	w.Int32(int32(sv.Phi.Signer))
	w.BytesField(sv.Phi.Bytes)
}

func decodeSignedVote(r *wire.Reader) SignedVote {
	var sv SignedVote
	sv.Voter = types.ProcessID(r.Int32())
	sv.Vote = decodeVoteRecord(r)
	sv.Phi.Signer = types.ProcessID(r.Int32())
	sv.Phi.Bytes = r.BytesField()
	return sv
}

// EquivocationProof is the undeniable evidence γ = (m1, m2) of Section 3.2:
// two propose signatures by the same leader for different values in the same
// view. It proves that leader(View) is Byzantine, entitling the new leader
// to exclude that process's vote during selection.
type EquivocationProof struct {
	View   types.View
	Value1 types.Value
	Tau1   sigcrypto.Signature
	Value2 types.Value
	Tau2   sigcrypto.Signature
}

// Culprit returns the provably Byzantine process, leader(View).
func (p EquivocationProof) Culprit(cfg types.Config) types.ProcessID {
	return cfg.Leader(p.View)
}

// Verify reports whether the proof is genuine: the two values differ and
// both signatures are valid propose signatures by leader(View).
func (p EquivocationProof) Verify(ver sigcrypto.Verifier, cfg types.Config) bool {
	if p.View < 1 || p.Value1.Equal(p.Value2) {
		return false
	}
	leader := cfg.Leader(p.View)
	if p.Tau1.Signer != leader || p.Tau2.Signer != leader {
		return false
	}
	return ver.Verify(ProposeDigest(p.Value1, p.View), p.Tau1) &&
		ver.Verify(ProposeDigest(p.Value2, p.View), p.Tau2)
}
