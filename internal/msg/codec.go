package msg

import (
	"fmt"

	"repro/internal/sigcrypto"
	"repro/internal/types"
	"repro/internal/wire"
)

// Encode serializes a message into its canonical wire form: one kind byte
// followed by the message fields.
func Encode(m Message) []byte {
	w := wire.NewWriter(128)
	if !EncodeTo(w, m) {
		// Unreachable for messages defined in this package; a zero-length
		// buffer fails decoding loudly on the other side.
		return nil
	}
	return w.Bytes()
}

// EncodeTo appends the canonical wire form of m to w, so a caller that
// frames messages (the SMR layer's (group, slot) header) writes header and
// message into one buffer. It reports false for a message type this package
// does not define, having appended only the kind byte — a frame that fails
// decoding on the other side.
func EncodeTo(w *wire.Writer, m Message) bool {
	w.Uint8(uint8(m.Kind()))
	switch t := m.(type) {
	case *Propose:
		w.Uvarint(uint64(t.View))
		w.BytesField(t.X)
		encodeProgressCertPtr(w, t.Cert)
		encodeSig(w, t.Tau)
	case *Ack:
		w.Uvarint(uint64(t.View))
		w.BytesField(t.X)
	case *AckSig:
		w.Uvarint(uint64(t.View))
		w.BytesField(t.X)
		encodeSig(w, t.Phi)
	case *Vote:
		w.Uvarint(uint64(t.View))
		t.SV.encode(w)
	case *CertRequest:
		w.Uvarint(uint64(t.View))
		w.BytesField(t.X)
		w.Uvarint(uint64(len(t.Votes)))
		for _, sv := range t.Votes {
			sv.encode(w)
		}
	case *CertAck:
		w.Uvarint(uint64(t.View))
		w.BytesField(t.X)
		encodeSig(w, t.Phi)
	case *Commit:
		w.Uvarint(uint64(t.View))
		w.BytesField(t.X)
		t.CC.encode(w)
	case *Wish:
		w.Uvarint(uint64(t.View))
	case *Raw:
		w.Uvarint(uint64(t.View))
		w.Uint8(t.Proto)
		w.Uint8(t.Sub)
		w.BytesField(t.X)
		w.BytesField(t.Payload)
	case *Checkpoint:
		w.Uvarint(t.CP.Slot)
		w.BytesField(t.CP.StateHash)
		encodeSig(w, t.Phi)
	case *FetchState:
		w.Uvarint(t.From)
	case *StateSnapshot:
		t.Cert.encode(w)
		w.Uvarint(t.Total)
		w.Uvarint(t.Offset)
		w.BytesField(t.Data)
		w.Uvarint(uint64(len(t.Tail)))
		for _, td := range t.Tail {
			w.Uvarint(td.Slot)
			w.BytesField(td.Value)
		}
	case *Request:
		w.BytesField([]byte(t.Client))
		w.Uvarint(t.Seq)
		w.BytesField(t.Op)
		w.Uvarint(t.Group)
	case *Reply:
		w.BytesField([]byte(t.Client))
		w.Uvarint(t.Seq)
		w.Uvarint(t.Slot)
		w.Int32(int32(t.Replica))
		w.BytesField(t.Result)
		w.Uvarint(t.Group)
	default:
		return false
	}
	return true
}

// Decode parses a message from its canonical wire form. Decoding is strict:
// trailing bytes, truncated fields, and over-limit lengths are errors, so a
// Byzantine sender cannot craft two byte strings decoding to one message.
// The message's byte fields are copies: buf stays the caller's.
func Decode(buf []byte) (Message, error) {
	return decode(wire.NewReader(buf))
}

// DecodeOwned is Decode for a caller that owns buf and never writes to it
// again, as a receiver owns a frame its transport allocated for it: the
// message's byte fields are sub-slices of buf, not copies (see the wire
// package doc). It accepts and rejects exactly what Decode does, with the
// same errors, and returns an equal message.
func DecodeOwned(buf []byte) (Message, error) {
	return decode(wire.NewOwnedReader(buf))
}

// decode parses one whole message from r (see Decode).
func decode(r *wire.Reader) (Message, error) {
	if r.Remaining() > wire.MaxBytes {
		return nil, wire.ErrOverflow
	}
	kind := Kind(r.Uint8())
	var m Message
	switch kind {
	case KindPropose:
		t := &Propose{}
		t.View = types.View(r.Uvarint())
		t.X = r.BytesField()
		t.Cert = decodeProgressCertPtr(r)
		t.Tau = decodeSig(r)
		m = t
	case KindAck:
		t := &Ack{}
		t.View = types.View(r.Uvarint())
		t.X = r.BytesField()
		m = t
	case KindAckSig:
		t := &AckSig{}
		t.View = types.View(r.Uvarint())
		t.X = r.BytesField()
		t.Phi = decodeSig(r)
		m = t
	case KindVote:
		t := &Vote{}
		t.View = types.View(r.Uvarint())
		t.SV = decodeSignedVote(r)
		m = t
	case KindCertRequest:
		t := &CertRequest{}
		t.View = types.View(r.Uvarint())
		t.X = r.BytesField()
		n := r.SliceLen()
		t.Votes = make([]SignedVote, 0, n)
		for i := 0; i < n; i++ {
			t.Votes = append(t.Votes, decodeSignedVote(r))
		}
		m = t
	case KindCertAck:
		t := &CertAck{}
		t.View = types.View(r.Uvarint())
		t.X = r.BytesField()
		t.Phi = decodeSig(r)
		m = t
	case KindCommit:
		t := &Commit{}
		t.View = types.View(r.Uvarint())
		t.X = r.BytesField()
		t.CC = decodeCommitCert(r)
		m = t
	case KindWish:
		t := &Wish{}
		t.View = types.View(r.Uvarint())
		m = t
	case KindRaw:
		t := &Raw{}
		t.View = types.View(r.Uvarint())
		t.Proto = r.Uint8()
		t.Sub = r.Uint8()
		t.X = r.BytesField()
		t.Payload = r.BytesField()
		m = t
	case KindCheckpoint:
		t := &Checkpoint{}
		t.CP.Slot = r.Uvarint()
		t.CP.StateHash = r.BytesField()
		t.Phi = decodeSig(r)
		m = t
	case KindFetchState:
		t := &FetchState{}
		t.From = r.Uvarint()
		m = t
	case KindStateSnapshot:
		t := &StateSnapshot{}
		t.Cert = decodeCheckpointCert(r)
		t.Total = r.Uvarint()
		t.Offset = r.Uvarint()
		t.Data = r.BytesField()
		n := r.SliceLen()
		if n > MaxTailDecisions {
			return nil, wire.ErrOverflow
		}
		t.Tail = make([]TailDecision, 0, n)
		for i := 0; i < n && r.Err() == nil; i++ {
			var td TailDecision
			td.Slot = r.Uvarint()
			td.Value = r.BytesField()
			t.Tail = append(t.Tail, td)
		}
		m = t
	case KindRequest:
		t := &Request{}
		t.Client = decodeClientID(r)
		t.Seq = r.Uvarint()
		t.Op = r.BytesField()
		t.Group = r.Uvarint()
		m = t
	case KindReply:
		t := &Reply{}
		t.Client = decodeClientID(r)
		t.Seq = r.Uvarint()
		t.Slot = r.Uvarint()
		t.Replica = types.ProcessID(r.Int32())
		t.Result = r.BytesField()
		t.Group = r.Uvarint()
		m = t
	default:
		return nil, fmt.Errorf("msg: unknown kind %d", uint8(kind))
	}
	if err := r.Finish(); err != nil {
		return nil, fmt.Errorf("decode %s: %w", kind, err)
	}
	return m, nil
}

// decodeClientID reads a client identifier, enforcing MaxClientID (the
// session table is keyed by these; see Request).
func decodeClientID(r *wire.Reader) types.ClientID {
	b := r.BytesField()
	if len(b) > MaxClientID {
		r.Fail(wire.ErrOverflow)
		return ""
	}
	return types.ClientID(b)
}

func encodeSig(w *wire.Writer, s sigcrypto.Signature) {
	w.Int32(int32(s.Signer))
	w.BytesField(s.Bytes)
}

func decodeSig(r *wire.Reader) sigcrypto.Signature {
	var s sigcrypto.Signature
	s.Signer = types.ProcessID(r.Int32())
	s.Bytes = r.BytesField()
	return s
}
