package core

import (
	"errors"

	"repro/internal/msg"
	"repro/internal/quorum"
	"repro/internal/sigcrypto"
	"repro/internal/types"
)

// ErrNeedMoreVotes is returned by Select when the vote set is insufficient:
// fewer than n−f distinct valid votes, or — after an equivocation is
// detected — fewer than n−f votes from processes other than the equivocator
// (the "wait for exactly one more vote" case of Section 3.2). The paper's
// restart rule ("if w is no longer the highest view number, restart") is
// realized by callers re-invoking Select whenever a new vote arrives; Select
// always computes from scratch.
var ErrNeedMoreVotes = errors.New("core: selection needs more votes")

// Outcome is the result of the selection algorithm.
type Outcome struct {
	// Free reports that any value is safe in the new view; the leader
	// proposes its own input (Section 3.2 case 2, Appendix A.2 case 3).
	Free bool
	// Value is the unique safe value when Free is false.
	Value types.Value
	// Culprit is the provably Byzantine equivocator excluded during
	// selection, or types.NoProcess if no equivocation was detected.
	Culprit types.ProcessID
	// MaxView is the highest view number contained in a valid vote (w in
	// the paper), or types.NoView if all votes were nil.
	MaxView types.View
}

// Select runs the selection algorithm of Section 3.2 extended with the
// commit-certificate case of Appendix A.2, as a pure function of the vote
// set. Both the new leader (to choose a value) and the CertRequest receivers
// (to verify the leader's choice) call it, which is what makes the progress
// certificate sound: a CertAck signature attests that this exact computation
// authorizes the value.
//
// votes may contain at most one counted entry per voter; duplicate and
// invalid entries are ignored. v is the new view the selection is for.
//
// The algorithm, following the paper:
//
//  1. With fewer than n−f distinct valid votes, wait (ErrNeedMoreVotes).
//  2. If every valid vote is nil, any value is safe (Lemma 3.1).
//  3. Let w be the highest view contained in a valid vote — both adopted
//     tuples (x, u, σ, τ) with u = w and attached commit certificates with
//     view w count as "contained" (Appendix A.2 attaches certificates to
//     votes).
//  4. If exactly one value appears at view w, it is safe (Lemma 3.3).
//  5. Otherwise leader(w) provably equivocated. Let votes′ be the valid
//     votes from processes other than leader(w); with fewer than n−f of
//     them, wait. Then:
//     (a) a commit certificate for x in view w within votes′ selects x
//     (Appendix A.2 case 1);
//     (b) f+t adopted votes for x in view w within votes′ select x
//     (case 2; 2f in the vanilla protocol where t = f);
//     (c) otherwise any value is safe (case 3, Lemma 3.5).
func Select(th quorum.Thresholds, ver sigcrypto.Verifier, v types.View, votes []msg.SignedVote) (Outcome, error) {
	// Filter to distinct valid votes.
	valid := make([]msg.SignedVote, 0, len(votes))
	seen := make(map[types.ProcessID]struct{}, len(votes))
	for _, sv := range votes {
		if _, dup := seen[sv.Voter]; dup {
			continue
		}
		if !sv.Valid(ver, th, v) {
			continue
		}
		seen[sv.Voter] = struct{}{}
		valid = append(valid, sv)
	}
	if len(valid) < th.VoteQuorum() {
		return Outcome{}, ErrNeedMoreVotes
	}

	w := maxVoteView(valid)
	if w == types.NoView {
		return Outcome{Free: true, Culprit: types.NoProcess}, nil
	}

	vals := valuesAtView(valid, w)
	if len(vals.order) == 1 {
		return Outcome{Value: vals.order[0], Culprit: types.NoProcess, MaxView: w}, nil
	}

	// Equivocation: two or more values at the highest view w. The evidence
	// is contained in the votes themselves (two propose signatures, or a
	// propose signature plus a commit certificate, both attributable to
	// leader(w)), so CertRequest receivers re-derive it without extra proof.
	culprit := th.Config().Leader(w)
	prime := make([]msg.SignedVote, 0, len(valid))
	for _, sv := range valid {
		if sv.Voter != culprit {
			prime = append(prime, sv)
		}
	}
	if len(prime) < th.VoteQuorum() {
		return Outcome{}, ErrNeedMoreVotes
	}

	valsPrime := valuesAtView(prime, w)
	if cc := valsPrime.commitCert; cc != nil {
		return Outcome{Value: cc.Value, Culprit: culprit, MaxView: w}, nil
	}
	need := th.SelectionQuorum()
	for _, x := range valsPrime.order {
		if valsPrime.adoptedCount[string(x)] >= need {
			return Outcome{Value: x, Culprit: culprit, MaxView: w}, nil
		}
	}
	return Outcome{Free: true, Culprit: culprit, MaxView: w}, nil
}

// VerifyCertRequest checks a CertRequest from the leader of view v: the
// votes must justify proposing value x. It returns nil if a correct process
// may sign the CertAck.
func VerifyCertRequest(th quorum.Thresholds, ver sigcrypto.Verifier, req *msg.CertRequest) error {
	out, err := Select(th, ver, req.View, req.Votes)
	if err != nil {
		return err
	}
	if out.Free {
		return nil // any value is safe; the leader's choice stands
	}
	if !out.Value.Equal(req.X) {
		return errSelectionMismatch
	}
	return nil
}

var errSelectionMismatch = errors.New("core: proposed value contradicts selection outcome")

// maxVoteView returns the highest view contained in any valid vote,
// considering both the adopted tuple's view and the attached commit
// certificate's view, or types.NoView when all votes are nil.
func maxVoteView(votes []msg.SignedVote) types.View {
	w := types.NoView
	for _, sv := range votes {
		if mv := sv.Vote.MaxView(); mv > w {
			w = mv
		}
	}
	return w
}

// viewValues aggregates, for one view w, the distinct values contained in
// votes at w, how many distinct voters adopted each, and a commit
// certificate for view w if any vote carries one.
type viewValues struct {
	order        []types.Value  // distinct values in first-seen order
	adoptedCount map[string]int // value -> number of voters with adopted view == w
	commitCert   *msg.CommitCert
}

func valuesAtView(votes []msg.SignedVote, w types.View) viewValues {
	vv := viewValues{adoptedCount: make(map[string]int)}
	add := func(x types.Value) {
		key := string(x)
		if _, ok := vv.adoptedCount[key]; !ok {
			vv.adoptedCount[key] = 0
			vv.order = append(vv.order, x)
		}
	}
	for _, sv := range votes {
		if !sv.Vote.Nil && sv.Vote.View == w {
			add(sv.Vote.Value)
			vv.adoptedCount[string(sv.Vote.Value)]++
		}
		if cc := sv.Vote.CC; cc != nil && cc.View == w {
			add(cc.Value)
			if vv.commitCert == nil {
				vv.commitCert = cc
			}
		}
	}
	return vv
}
