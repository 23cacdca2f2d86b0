package core

import (
	"fmt"
	"testing"

	"repro/internal/msg"
	"repro/internal/sigcrypto"
	"repro/internal/types"
)

// innerCounter counts the verifications that reach the scheme below a memo.
type innerCounter struct {
	sigcrypto.Verifier
	calls int
}

func (v *innerCounter) Verify(m []byte, sig sigcrypto.Signature) bool {
	v.calls++
	return v.Verifier.Verify(m, sig)
}

func newCountedMemo(n int, seed int64) (*verifyMemo, *innerCounter, sigcrypto.Scheme) {
	scheme := sigcrypto.NewHMAC(n, seed)
	inner := &innerCounter{Verifier: scheme.Verifier()}
	return newVerifyMemo(inner, n), inner, scheme
}

// TestVerifyMemoAnswersExactRepeats: a repeated (message, signer, bytes)
// triple costs no verification, and a memoized signer and message with any
// other bytes is checked again and rejected.
func TestVerifyMemoAnswersExactRepeats(t *testing.T) {
	m, inner, scheme := newCountedMemo(4, 1)
	d := msg.AckDigest(types.Value("x"), 1)
	sig := scheme.Signer(2).Sign(d)
	for i := 0; i < 3; i++ {
		if !m.Verify(d, sig) {
			t.Fatalf("call %d: valid signature rejected", i)
		}
	}
	if inner.calls != 1 {
		t.Fatalf("%d verifications for one signature checked three times, want 1", inner.calls)
	}

	forged := sig.Clone()
	forged.Bytes[0] ^= 1
	truncated := sigcrypto.Signature{Signer: 2, Bytes: sig.Bytes[:len(sig.Bytes)-1]}
	for _, bad := range []sigcrypto.Signature{forged, truncated, {Signer: 2}} {
		before := inner.calls
		if m.Verify(d, bad) {
			t.Fatalf("memoized signer and message with bytes %x accepted", bad.Bytes)
		}
		if inner.calls != before+1 {
			t.Fatalf("bytes %x answered from the memo", bad.Bytes)
		}
	}
	// The same bytes under another signer, or over another message, are
	// other triples.
	if m.Verify(d, sigcrypto.Signature{Signer: 3, Bytes: sig.Bytes}) {
		t.Fatal("signer 2's signature accepted for signer 3")
	}
	if m.Verify(d, sigcrypto.Signature{Signer: 3}) {
		t.Fatal("an empty signature accepted for a signer the memo has not recorded")
	}
	if m.Verify(msg.AckDigest(types.Value("y"), 1), sig) {
		t.Fatal("signature accepted over another message")
	}
	if !m.Verify(d, sig) {
		t.Fatal("memoized signature rejected after the failures")
	}
}

// TestVerifyMemoNeverCachesFailure: a signature that failed is checked again
// every time it comes back, and leaves nothing in the memo.
func TestVerifyMemoNeverCachesFailure(t *testing.T) {
	m, inner, scheme := newCountedMemo(4, 2)
	d := msg.AckDigest(types.Value("x"), 1)
	forged := scheme.Signer(0).Sign(d)
	forged.Signer = 1
	for i := 1; i <= 3; i++ {
		if m.Verify(d, forged) {
			t.Fatal("forged signature accepted")
		}
		if inner.calls != i {
			t.Fatalf("attempt %d: %d verifications, want %d", i, inner.calls, i)
		}
	}
	if len(m.ok) != 0 {
		t.Fatalf("failed verifications left %d messages in the memo", len(m.ok))
	}
	// An out-of-range signer is never recorded either.
	if m.Verify(d, sigcrypto.Signature{Signer: 9, Bytes: forged.Bytes}) || len(m.ok) != 0 {
		t.Fatal("out-of-range signer accepted or recorded")
	}
}

// TestVerifyMemoBounded: one valid signer flooding the memo with distinct
// digests fills it to maxTrackedKeys messages and no further, and past the
// cap every answer is still the inner verifier's.
func TestVerifyMemoBounded(t *testing.T) {
	m, inner, scheme := newCountedMemo(4, 3)
	signer := scheme.Signer(1)
	digest := func(i int) []byte { return msg.AckDigest(types.Value(fmt.Sprintf("v%d", i)), 1) }
	const extra = 16
	for i := 0; i < maxTrackedKeys+extra; i++ {
		if !m.Verify(digest(i), signer.Sign(digest(i))) {
			t.Fatalf("digest %d: valid signature rejected", i)
		}
	}
	if len(m.ok) != maxTrackedKeys {
		t.Fatalf("memo holds %d messages, cap %d", len(m.ok), maxTrackedKeys)
	}
	before := inner.calls
	past := digest(maxTrackedKeys + 1)
	if !m.Verify(past, signer.Sign(past)) || inner.calls != before+1 {
		t.Fatal("a valid signature past the cap was not verified")
	}
	bad := signer.Sign(past)
	bad.Bytes[0] ^= 1
	if m.Verify(past, bad) {
		t.Fatal("forged signature accepted past the cap")
	}
	before = inner.calls
	if !m.Verify(digest(0), signer.Sign(digest(0))) || inner.calls != before {
		t.Fatal("a signature memoized before the cap was verified again")
	}
	if len(m.ok) != maxTrackedKeys {
		t.Fatalf("memo grew to %d messages past the cap", len(m.ok))
	}
}

// TestCommitWithOneForgedSigAmongMemoized: a Commit's certificate carries
// the AckSig signatures the replica has memoized, but one entry claims a
// memoized signer with bytes that are not its own. The certificate then
// holds one valid signature too few, so no number of such Commits decides,
// and the forged entry is checked again on the first Commit of every
// sender. The genuine certificate decides afterwards with no verification
// at all, from the senders that sent no forged one and the replica's own
// Commit, which the fifth AckSig lets it send.
func TestCommitWithOneForgedSigAmongMemoized(t *testing.T) {
	cfg := types.Generalized(2, 1) // n = 7, CommitQuorum 5
	scheme := sigcrypto.NewHMAC(cfg.N, 4)
	inner := &innerCounter{Verifier: scheme.Verifier()}
	r, err := NewReplica(cfg, 0, scheme.Signer(0), inner, nil)
	if err != nil {
		t.Fatal(err)
	}
	r.EnterView(1)
	x := types.Value("x")
	d := msg.AckDigest(x, 1)
	var sigs []sigcrypto.Signature
	for p := types.ProcessID(1); p <= 5; p++ {
		sigs = append(sigs, scheme.Signer(p).Sign(d))
	}
	// Four AckSigs reach the replica: one short of a commit quorum.
	for _, sig := range sigs[:4] {
		r.Deliver(sig.Signer, &msg.AckSig{View: 1, X: x, Phi: sig})
	}
	if inner.calls != 4 {
		t.Fatalf("%d verifications for four AckSigs", inner.calls)
	}

	forged := msg.CommitCert{Value: x, View: 1, Sigs: make([]sigcrypto.Signature, len(sigs))}
	for i, sig := range sigs {
		forged.Sigs[i] = sig.Clone()
	}
	forged.Sigs[2] = scheme.Signer(6).Sign(d)
	forged.Sigs[2].Signer = 3 // memoized, with bytes that are not its own
	forgers := []types.ProcessID{5, 6}
	for _, p := range forgers {
		if len(r.Deliver(p, &msg.Commit{View: 1, X: x, CC: forged})) != 0 {
			t.Fatal("a certificate with a forged signature was acted on")
		}
	}
	// Each sender's Commit re-checks the forged entry; signer 5's is checked
	// once.
	if want := 4 + len(forgers) + 1; inner.calls != want {
		t.Fatalf("%d verifications after the forged Commits, want %d", inner.calls, want)
	}

	genuine := msg.CommitCert{Value: x, View: 1, Sigs: sigs}
	before := inner.calls
	decided := false
	r.Deliver(5, &msg.AckSig{View: 1, X: x, Phi: sigs[4]}) // the replica's own Commit
	for p := types.ProcessID(1); p <= 4; p++ {
		for _, a := range r.Deliver(p, &msg.Commit{View: 1, X: x, CC: genuine}) {
			_, ok := a.(DecideAction)
			decided = decided || ok
		}
	}
	if !decided {
		t.Fatal("genuine certificate did not decide")
	}
	if got := inner.calls - before; got != 0 {
		t.Fatalf("five Commits of a memoized certificate cost %d verifications, want 0", got)
	}
}
