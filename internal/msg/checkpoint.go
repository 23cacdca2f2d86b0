package msg

import (
	"repro/internal/quorum"
	"repro/internal/sigcrypto"
	"repro/internal/types"
	"repro/internal/wire"
)

// This file defines the log-maintenance messages of the SMR layer
// (internal/smr): periodic signed checkpoints, the certificates a quorum of
// them forms, and the state-transfer request/response pair that lets a
// lagging replica fast-forward past garbage-collected slots. They follow the
// checkpointing scheme that practical BFT replication protocols layer over
// consensus; the consensus messages themselves are untouched.

// Checkpoint announces that the sender applied every slot up to and
// including CP.Slot and that its state digest is CP.StateHash. Phi is the
// sender's signature over CheckpointDigest(CP), so matching checkpoints from
// distinct replicas can be assembled into a CheckpointCert.
type Checkpoint struct {
	CP  types.Checkpoint
	Phi sigcrypto.Signature
}

// Kind implements Message.
func (m *Checkpoint) Kind() Kind { return KindCheckpoint }

// InView implements Message. Checkpoints are per-log, not per-view.
func (m *Checkpoint) InView() types.View { return types.NoView }

// FetchState asks the receiver for a StateSnapshot covering every slot from
// From (the requester's lowest unapplied slot) onward.
type FetchState struct {
	From uint64
}

// Kind implements Message.
func (m *FetchState) Kind() Kind { return KindFetchState }

// InView implements Message.
func (m *FetchState) InView() types.View { return types.NoView }

// MaxTailDecisions bounds the tail of one StateSnapshot, both at the
// protocol level (responders never send more) and at the codec level (the
// decoder rejects larger counts before allocating).
const MaxTailDecisions = 1024

// TailDecision is one decided slot after a checkpoint: the value the
// responder decided for Slot. It carries no proof; a state-transfer
// receiver decides the slot once f+1 distinct responders report the same
// value, so at least one correct process vouches for it.
type TailDecision struct {
	Slot  uint64
	Value types.Value
}

// StateSnapshot is one frame of a state-transfer response. A response
// streams the responder's stable checkpoint snapshot as pieces of Total
// bytes in offset order, every piece carrying the certificate that binds
// the whole snapshot's digest to Cert.CP; the receiver reassembles them
// and accepts the snapshot only if its SHA-256 digest matches the
// certificate. The last piece also carries the responder's decisions for
// the slots after the checkpoint. A responder with no shippable snapshot
// sends one frame with Total == 0 and only the tail.
type StateSnapshot struct {
	Cert   CheckpointCert
	Total  uint64
	Offset uint64
	Data   []byte
	Tail   []TailDecision
}

// Kind implements Message.
func (m *StateSnapshot) Kind() Kind { return KindStateSnapshot }

// InView implements Message.
func (m *StateSnapshot) InView() types.View { return types.NoView }

// Compile-time interface checks.
var (
	_ Message = (*Checkpoint)(nil)
	_ Message = (*FetchState)(nil)
	_ Message = (*StateSnapshot)(nil)
)

// CheckpointCert certifies a checkpoint: CertQuorum (f+1) signatures from
// distinct replicas over CheckpointDigest(CP). At least one signer is
// correct, and correct replicas only sign the digest of the state they
// themselves computed by applying the decided log, so the certificate proves
// that CP.StateHash is the digest of the unique correct state at CP.Slot.
type CheckpointCert struct {
	CP   types.Checkpoint
	Sigs []sigcrypto.Signature
}

// Verify reports whether the certificate carries CertQuorum valid signatures
// from distinct signers over CheckpointDigest(c.CP).
func (c *CheckpointCert) Verify(ver sigcrypto.Verifier, th quorum.Thresholds) bool {
	if c == nil {
		return false
	}
	d := CheckpointDigest(c.CP)
	return sigcrypto.VerifyDistinct(ver, d, c.Sigs, th.CertQuorum())
}

// Clone returns an independent deep copy (nil-safe).
func (c *CheckpointCert) Clone() *CheckpointCert {
	if c == nil {
		return nil
	}
	out := &CheckpointCert{
		CP:   c.CP.Clone(),
		Sigs: make([]sigcrypto.Signature, len(c.Sigs)),
	}
	for i, s := range c.Sigs {
		out.Sigs[i] = s.Clone()
	}
	return out
}

func (c *CheckpointCert) encode(w *wire.Writer) {
	w.Uvarint(c.CP.Slot)
	w.BytesField(c.CP.StateHash)
	encodeSigs(w, c.Sigs)
}

func decodeCheckpointCert(r *wire.Reader) CheckpointCert {
	var c CheckpointCert
	c.CP.Slot = r.Uvarint()
	c.CP.StateHash = r.BytesField()
	c.Sigs = decodeSigs(r)
	return c
}
