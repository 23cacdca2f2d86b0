package transport

import (
	"bufio"
	"encoding/binary"
	"errors"
	"fmt"
	"io"

	"repro/internal/msg"
	"repro/internal/sigcrypto"
	"repro/internal/types"
	"repro/internal/wire"
)

// This file defines the client-facing wire protocol, kept deliberately
// separate from the replica-to-replica framing: clients are not cluster
// members, hold no cluster keys, and must be bounded far more aggressively
// (a replica trusts its n−1 peers to be mostly correct; it trusts none of
// its clients). A client-channel frame is a 4-byte big-endian length prefix
// followed by the canonical msg encoding of exactly one Request or Reply —
// the same codecs that carry requests through consensus batches, so a
// request's bytes on the client wire, in a proposal batch, and in a
// checkpointed session table are identical.
//
// Connections open with a two-frame hello: the client sends a fresh nonce,
// and the replica answers with its identity signed over that nonce under a
// dedicated domain byte. The signature authenticates the replica to the
// client — which is the direction that matters: the client's f+1
// matching-reply rule counts distinct replicas, so an impersonated replica
// could fake a quorum, whereas a "forged" client can at worst submit
// operations under an identity it chose, exactly like any Byzantine client.
//
// Scope: the proof covers connection setup — a stale address book, a reused
// port, or an impersonator that does not control the path cannot pass it.
// Frames after the handshake are bound to the connection by TCP alone, not
// individually signed, so an adversary that actively rewrites traffic *on*
// the path (a full MITM relaying the genuine handshake) is outside this
// layer's threat model; closing that requires a channel MAC keyed by the
// handshake or per-reply signatures, tracked as a hardening step alongside
// client credentials.

// MaxClientFrame bounds one client-channel frame payload. It is far below
// the replica-to-replica MaxFrame: client requests are single operations,
// not batches or snapshots, and the bound is what keeps a hostile client
// from forcing a large allocation with a four-byte header.
const MaxClientFrame = 1 << 20

// maxHelloNonce bounds the client's handshake nonce.
const maxHelloNonce = 64

// domainClientHello tags the client-channel handshake signature so it can
// never be confused with a protocol or replica-handshake signature.
const domainClientHello byte = 31

// Client-channel errors.
var (
	// ErrFrameTooLarge is returned for frames above the channel's limit
	// (MaxClientFrame on the client channel, MaxFrame between replicas).
	ErrFrameTooLarge = errors.New("transport: frame exceeds limit")
	// ErrBadClientFrame is returned for structurally malformed frames,
	// hellos, and payloads.
	ErrBadClientFrame = errors.New("transport: malformed client frame")
	// ErrNotClientMessage is returned when a well-formed message is not a
	// client-channel kind (Request or Reply).
	ErrNotClientMessage = errors.New("transport: not a client-channel message")
	// ErrBadServerHello is returned when a replica's identity proof does not
	// verify.
	ErrBadServerHello = errors.New("transport: server hello verification failed")
)

// EncodeClientFrame renders one client-channel message as a complete frame
// (length prefix plus canonical payload). Only Request and Reply may travel
// the client channel.
func EncodeClientFrame(m msg.Message) ([]byte, error) {
	switch m.(type) {
	case *msg.Request, *msg.Reply:
	default:
		return nil, ErrNotClientMessage
	}
	payload := msg.Encode(m)
	if len(payload) > MaxClientFrame {
		return nil, ErrFrameTooLarge
	}
	frame := make([]byte, 4+len(payload))
	binary.BigEndian.PutUint32(frame[:4], uint32(len(payload)))
	copy(frame[4:], payload)
	return frame, nil
}

// DecodeClientFrame parses one complete client-channel frame. Decoding is
// strict — length prefix exactly matching the payload, canonical msg
// encoding, Request/Reply kinds only — so there is exactly one byte string
// per message, on the client wire as everywhere else. Like
// DecodeClientMessage's, the message's byte fields alias frame.
func DecodeClientFrame(frame []byte) (msg.Message, error) {
	if len(frame) < 4 {
		return nil, ErrBadClientFrame
	}
	n := binary.BigEndian.Uint32(frame[:4])
	if n > MaxClientFrame {
		return nil, ErrFrameTooLarge
	}
	if uint64(len(frame)-4) != uint64(n) {
		return nil, ErrBadClientFrame
	}
	return DecodeClientMessage(frame[4:])
}

// DecodeClientMessage parses one client-channel payload (a frame with the
// length prefix already stripped by the stream reader). The payload is the
// caller's, read for this one message and never written again, so the
// message's byte fields alias it (msg.DecodeOwned).
func DecodeClientMessage(payload []byte) (msg.Message, error) {
	m, err := msg.DecodeOwned(payload)
	if err != nil {
		return nil, err
	}
	switch m.(type) {
	case *msg.Request, *msg.Reply:
		return m, nil
	default:
		return nil, ErrNotClientMessage
	}
}

// WriteClientFrame emits one length-prefixed payload, enforcing
// MaxClientFrame.
func WriteClientFrame(w io.Writer, payload []byte) error {
	if len(payload) > MaxClientFrame {
		return ErrFrameTooLarge
	}
	return writeFrame(w, payload)
}

// ReadClientFrame reads one length-prefixed payload, enforcing
// MaxClientFrame before allocating anything — an oversized header is
// rejected on its four bytes alone. r must be the connection's one reader,
// held for its whole life (see readFrame).
func ReadClientFrame(r *bufio.Reader) ([]byte, error) {
	return readFrame(r, MaxClientFrame)
}

// clientHelloDigest is the byte string a replica signs to prove its identity
// on a client-facing connection; the client-chosen nonce binds the proof to
// this connection, so a recorded hello cannot be replayed by an impersonator.
func clientHelloDigest(replica types.ProcessID, nonce []byte) []byte {
	w := wire.NewWriter(16 + len(nonce))
	w.Uint8(domainClientHello)
	w.Int32(int32(replica))
	w.BytesField(nonce)
	return w.Bytes()
}

// EncodeClientHello renders the client's opening frame payload: its
// connection nonce.
func EncodeClientHello(nonce []byte) ([]byte, error) {
	if len(nonce) == 0 || len(nonce) > maxHelloNonce {
		return nil, ErrBadClientFrame
	}
	w := wire.NewWriter(2 + len(nonce))
	w.Uint8(domainClientHello)
	w.BytesField(nonce)
	return w.Bytes(), nil
}

// DecodeClientHello parses a client hello payload back into its nonce.
func DecodeClientHello(payload []byte) ([]byte, error) {
	r := wire.NewReader(payload)
	if r.Uint8() != domainClientHello {
		return nil, ErrBadClientFrame
	}
	nonce := r.BytesField()
	if r.Finish() != nil || len(nonce) == 0 || len(nonce) > maxHelloNonce {
		return nil, ErrBadClientFrame
	}
	return nonce, nil
}

// EncodeServerHello renders the replica's identity proof: its process ID and
// a signature over the client's nonce under the hello domain.
func EncodeServerHello(signer sigcrypto.Signer, nonce []byte) []byte {
	sig := signer.Sign(clientHelloDigest(signer.ID(), nonce))
	w := wire.NewWriter(16 + len(sig.Bytes))
	w.Uint8(domainClientHello)
	w.Int32(int32(sig.Signer))
	w.BytesField(sig.Bytes)
	return w.Bytes()
}

// VerifyServerHello checks that payload proves the replica `expect` signed
// this connection's nonce.
func VerifyServerHello(v sigcrypto.Verifier, expect types.ProcessID, nonce, payload []byte) error {
	r := wire.NewReader(payload)
	if r.Uint8() != domainClientHello {
		return ErrBadClientFrame
	}
	id := types.ProcessID(r.Int32())
	sigBytes := r.BytesField()
	if r.Finish() != nil {
		return ErrBadClientFrame
	}
	if id != expect {
		return fmt.Errorf("%w: replica %s answered for %s", ErrBadServerHello, id, expect)
	}
	sig := sigcrypto.Signature{Signer: id, Bytes: sigBytes}
	if !v.Verify(clientHelloDigest(id, nonce), sig) {
		return ErrBadServerHello
	}
	return nil
}
