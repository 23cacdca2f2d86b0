// Package msg defines every message exchanged by the protocol of
// "Revisiting Optimal Resilience of Fast Byzantine Consensus" (PODC 2021):
// propose/ack for the fast path (Section 3.1), ack signatures and Commit for
// the slow path (Appendix A.1), vote/CertReq/CertAck for the view change
// (Section 3.2), plus the certificates those messages carry and the
// deterministic byte digests each signature covers.
//
// Buffer ownership: Decode copies every byte field out of its input, so the
// decoded message is independent of the buffer; it serves the WAL, snapshots,
// state transfer and every caller that may reuse its bytes. DecodeOwned
// returns the same message with its byte fields aliasing the input, for a
// receiver that owns a frame and never writes to it again (the SMR layer's
// consensus frames and the client channel's frames). Whoever holds a message
// decoded either way treats its byte fields as read-only.
package msg

import (
	"repro/internal/types"
	"repro/internal/wire"
)

// Signing domains. Every signature in the protocol covers a domain tag
// followed by a canonical encoding of the signed fields, so that a signature
// produced for one purpose can never be replayed for another.
const (
	domainPropose byte = 1 // τ  = sign_p((propose, x, v))
	domainAck     byte = 2 // φ_ack = sign_q((ack, x, v))
	domainCertAck byte = 3 // φ_ca = sign_q((CertAck, x, v))
	domainVote    byte = 4 // φ_vote = sign_q((vote, vote_q, v))
	// domainCheckpoint covers SMR checkpoints: sign_q((ckpt, slot, stateHash)).
	domainCheckpoint byte = 5
)

func digest(domain byte, v types.View, x types.Value, extra []byte) []byte {
	w := wire.NewWriter(16 + len(x) + len(extra))
	w.Uint8(domain)
	w.Uvarint(uint64(v))
	w.BytesField(x)
	if extra != nil {
		w.BytesField(extra)
	}
	return w.Bytes()
}

// ProposeDigest is the byte string signed by the leader of view v when
// proposing value x: τ = sign((propose, x, v)).
func ProposeDigest(x types.Value, v types.View) []byte {
	return digest(domainPropose, v, x, nil)
}

// AckDigest is the byte string covered by slow-path ack signatures:
// φ_ack = sign((ack, x, v)). CommitQuorum such signatures form a commit
// certificate.
func AckDigest(x types.Value, v types.View) []byte {
	return digest(domainAck, v, x, nil)
}

// CertAckDigest is the byte string covered by CertAck signatures:
// φ_ca = sign((CertAck, x, v)). CertQuorum (f+1) such signatures form a
// progress certificate.
func CertAckDigest(x types.Value, v types.View) []byte {
	return digest(domainCertAck, v, x, nil)
}

// CheckpointDigest is the byte string covered by checkpoint signatures:
// sign((ckpt, slot, stateHash)). CertQuorum (f+1) such signatures from
// distinct replicas form a CheckpointCert.
func CheckpointDigest(cp types.Checkpoint) []byte {
	w := wire.NewWriter(16 + len(cp.StateHash))
	w.Uint8(domainCheckpoint)
	w.Uvarint(cp.Slot)
	w.BytesField(cp.StateHash)
	return w.Bytes()
}

// VoteDigest is the byte string covered by a vote signature:
// φ_vote = sign((vote, vote_q, v)), where v is the view the vote is cast
// for and vote_q is the voter's current vote record.
func VoteDigest(vote VoteRecord, v types.View) []byte {
	w := wire.NewWriter(64)
	w.Uint8(domainVote)
	w.Uvarint(uint64(v))
	vote.encode(w)
	return w.Bytes()
}
