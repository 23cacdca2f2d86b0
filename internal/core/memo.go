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
// verifier. The memo lives and dies with one Replica, which runs in one
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
	known := sig.Signer.Valid(m.n)
	// A nil entry is an unrecorded signer; bytes.Equal alone would match
	// it to an empty signature.
	if known && row != nil && row[sig.Signer] != nil && bytes.Equal(row[sig.Signer], sig.Bytes) {
		return true
	}
	if !m.inner.Verify(msg, sig) {
		return false
	}
	if !known {
		return true
	}
	if row == nil {
		if len(m.ok) >= maxTrackedKeys {
			return true // full: keep verifying, stop recording
		}
		row = make([][]byte, m.n)
		m.ok[string(msg)] = row
	}
	row[sig.Signer] = append(make([]byte, 0, len(sig.Bytes)), sig.Bytes...)
	return true
}
