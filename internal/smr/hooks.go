package smr

import (
	"repro/internal/msg"
	"repro/internal/sigcrypto"
	"repro/internal/types"
)

// Adversary hooks: the envelope and signing-domain primitives of the SMR
// layer, exported for the Byzantine harness (internal/byz). An adversarial
// replica driver is only a meaningful test if its forgeries are exactly as
// strong as a compromised-but-key-holding replica's — correctly enveloped,
// correctly domain-salted, signed with a real cluster key — so the harness
// builds its messages with the same primitives the honest replica uses
// rather than a drifting reimplementation. Nothing here weakens the
// protocol: every helper only combines the adversary's own signer with
// public encoding rules.

// CtrlSlotID is the reserved envelope slot number of the request relay: a
// follower sends each fresh client request it receives to the view-1 leader
// under it (the exported name of ctrlSlot).
const CtrlSlotID = ctrlSlot

// SyncSlotID is the reserved envelope slot number carrying log-maintenance
// messages — Checkpoint, FetchState, StateSnapshot (the exported name of
// syncSlot).
const SyncSlotID = syncSlot

// GroupCluster returns the cluster configuration group g's consensus
// instances run under: the same processes, quorums and thresholds, with view
// v led by process (v+g) mod n. Who leads is the one thing a group changes
// about the protocol; NewReplica derives its configuration here, and so does
// anything that must agree with a group's replicas on the leader map.
func GroupCluster(c types.Config, g uint64) types.Config {
	return c.WithLeaderShift(g)
}

// SlotSigner binds a signer to the signing domain of slot s of group g: the
// signer an honest replica of that group uses inside slot s's consensus
// instance.
func SlotSigner(inner sigcrypto.Signer, g, s uint64) sigcrypto.Signer {
	return domainSigner{inner: inner, salt: slotDomain(g, s)}
}

// SlotVerifier is the verifying counterpart of SlotSigner: it checks
// signatures in the domain of slot s of group g under inner, the cluster's
// own verifier.
func SlotVerifier(inner sigcrypto.Verifier, g, s uint64) sigcrypto.Verifier {
	return domainVerifier{inner: inner, salt: slotDomain(g, s)}
}

// LogSigner binds a signer to group g's log-wide signing domain — the
// domain of checkpoint signatures.
func LogSigner(inner sigcrypto.Signer, g uint64) sigcrypto.Signer {
	return domainSigner{inner: inner, salt: logDomain(g)}
}

// Envelope frames m for slot s of group g, exactly as replicas address
// per-slot consensus traffic (and, with the reserved slot numbers, sync and
// control traffic).
func Envelope(g, s uint64, m msg.Message) []byte {
	return envelope(g, s, m)
}

// OpenEnvelope splits a frame into its group, its slot number, and the
// decoded message. Every slot's payload decodes through msg.Decode; a
// ctrl-slot payload is an encoded request, so it comes back as
// *msg.Request.
func OpenEnvelope(frame []byte) (g, s uint64, m msg.Message, ok bool) {
	g, s, inner, ok := openHeader(frame)
	if !ok {
		return 0, 0, nil, false
	}
	m, err := msg.Decode(inner)
	if err != nil {
		return 0, 0, nil, false
	}
	return g, s, m, true
}

// SnapshotOf encodes a composite snapshot of slot s — the layout replicas
// certify at checkpoints — with app as the application state and an empty
// client session table: a well-formed snapshot whose contents the caller
// chooses, so only a certificate's digest can tell it from the certified
// state.
func SnapshotOf(s uint64, app []byte) []byte {
	return encodeSnapshot(s, nil, app)
}
