package core

import (
	"bytes"

	"repro/internal/sigcrypto"
	"repro/internal/types"
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
	// first is the first signature accepted, kept apart from the table: a
	// fault-free slot accepts one (the leader's τ), so it builds no table.
	first memoEntry
	ok    map[string][][]byte // every later one: message → accepted signature bytes, by signer; made by the first
}

// memoEntry is one accepted (message, signer, signature bytes) triple, the
// message and the bytes copied into one buffer. The zero value is empty.
type memoEntry struct {
	buf    []byte // message ‖ signature bytes
	msgLen int
	signer types.ProcessID
}

func (e *memoEntry) holds(msg []byte, sig sigcrypto.Signature) bool {
	return e.buf != nil && e.signer == sig.Signer && e.msgLen == len(msg) &&
		bytes.Equal(e.buf[:e.msgLen], msg) && bytes.Equal(e.buf[e.msgLen:], sig.Bytes)
}

func newVerifyMemo(inner sigcrypto.Verifier, n int) *verifyMemo {
	return &verifyMemo{inner: inner, n: n}
}

func (m *verifyMemo) Verify(msg []byte, sig sigcrypto.Signature) bool {
	if sig.Signer.Valid(m.n) && (m.first.holds(msg, sig) || m.inTable(msg, sig)) {
		return true
	}
	if !m.inner.Verify(msg, sig) {
		return false
	}
	m.remember(msg, sig)
	return true
}

// inTable reports whether the table records sig over msg. A nil entry is an
// unrecorded signer; bytes.Equal alone would match it to an empty
// signature. The caller has checked that the signer is in range.
func (m *verifyMemo) inTable(msg []byte, sig sigcrypto.Signature) bool {
	row := m.ok[string(msg)]
	return row != nil && row[sig.Signer] != nil && bytes.Equal(row[sig.Signer], sig.Bytes)
}

// remember records sig over msg as accepted without checking it. Verify
// calls it once the inner verifier has accepted sig; the Replica calls it for
// the signatures its own signer makes, which need no check to be trusted. The
// first record is kept apart; the table stops growing at maxTrackedKeys
// messages.
func (m *verifyMemo) remember(msg []byte, sig sigcrypto.Signature) {
	if !sig.Signer.Valid(m.n) {
		return
	}
	if m.first.buf == nil {
		buf := make([]byte, 0, len(msg)+len(sig.Bytes))
		m.first = memoEntry{buf: append(append(buf, msg...), sig.Bytes...), msgLen: len(msg), signer: sig.Signer}
		return
	}
	if m.first.holds(msg, sig) {
		return
	}
	row := m.ok[string(msg)]
	if row == nil {
		if len(m.ok) >= maxTrackedKeys {
			return // full: keep verifying, stop recording
		}
		if m.ok == nil {
			m.ok = make(map[string][][]byte)
		}
		row = make([][]byte, m.n)
		m.ok[string(msg)] = row
	}
	row[sig.Signer] = append(make([]byte, 0, len(sig.Bytes)), sig.Bytes...)
}
