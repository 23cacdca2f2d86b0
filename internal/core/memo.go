package core

import (
	"bytes"

	"repro/internal/sigcrypto"
)

// verifyMemo is the instance's verifier: it remembers every signature its
// inner verifier accepted, keyed on the exact (message, signer, signature
// bytes) triple, and answers a repeat of that triple without checking it
// again. A slot's AckSigs are each verified once, and the commit
// certificates in its n Commits (and in Votes and Proposes) then cost
// comparisons, not signature checks.
//
// Verify is a pure function of the key registry and its inputs, so caching
// its positive answers changes no outcome: a different message, signer or
// byte string, and a signature that failed before, all reach the inner
// verifier. The one entry made without a check is the replica's own: what
// its signer makes in its own name (remember, called by Replica.sign), which
// its own copy of a broadcast and the certificates carrying it then meet as
// memo hits. A peer's signature in that name with other bytes is still
// checked. The memo lives and dies with one Replica, which runs in one
// signing domain (the SMR layer salts each slot's verifier below it), so a
// signature from one instance never satisfies another.
type verifyMemo struct {
	inner sigcrypto.Verifier
	n     int
	ok    map[string][][]byte // message → accepted signature bytes, by signer
}

func newVerifyMemo(inner sigcrypto.Verifier, n int) *verifyMemo {
	return &verifyMemo{inner: inner, n: n, ok: make(map[string][][]byte)}
}

func (m *verifyMemo) Verify(msg []byte, sig sigcrypto.Signature) bool {
	row := m.ok[string(msg)]
	// A nil entry is an unrecorded signer; bytes.Equal alone would match
	// it to an empty signature.
	if sig.Signer.Valid(m.n) && row != nil && row[sig.Signer] != nil && bytes.Equal(row[sig.Signer], sig.Bytes) {
		return true
	}
	if !m.inner.Verify(msg, sig) {
		return false
	}
	m.remember(msg, sig)
	return true
}

// remember records sig over msg as accepted without checking it. Verify
// calls it once the inner verifier has accepted sig; the Replica calls it for
// the signatures its own signer makes, which need no check to be trusted. Like
// Verify's, the record stops growing at maxTrackedKeys messages.
func (m *verifyMemo) remember(msg []byte, sig sigcrypto.Signature) {
	if !sig.Signer.Valid(m.n) {
		return
	}
	row := m.ok[string(msg)]
	if row == nil {
		if len(m.ok) >= maxTrackedKeys {
			return // full: keep verifying, stop recording
		}
		row = make([][]byte, m.n)
		m.ok[string(msg)] = row
	}
	row[sig.Signer] = append(make([]byte, 0, len(sig.Bytes)), sig.Bytes...)
}
