// Package storage is the durable-state subsystem of a replica: one
// append-only, CRC-framed, fsync'd write-ahead log per store, headed after
// each stable checkpoint by a snapshot record.
//
// The WAL records exactly the state a replica must remember across a crash
// to stay safe and rejoin without help:
//
//   - vote records — the adopted proposal behind every ack the replica
//     sends, persisted *before* the ack leaves the process, so a recovered
//     replica never acks a conflicting value in a view it already voted in
//     (the extended paper assumes replicas remember their adopted votes
//     across steps; that assumption only holds with stable storage);
//   - decision records — every decided slot's value, persisted before the
//     decision's effects (client replies, commit callbacks) become visible;
//   - the snapshot record — the stable checkpoint: its slot, its checkpoint
//     certificate and the composite snapshot bytes.
//
// Client session high-water marks ride inside the checkpoint snapshot and
// are re-derived by replaying decision records after it, so they need no
// records of their own.
//
// Durability is paced by group commit — records queued while the previous
// fsync was in flight are written and synced together, one fsync amortized
// over all of them — and
// every externally visible effect (an outgoing message, a client reply) is
// released only after the records it depends on are durable.
//
// Every record is appended once, when the replica learns it. At each stable
// checkpoint the store writes a new WAL — the snapshot record first, then
// every frame of the old WAL whose slot is above the checkpoint — to a
// temporary name, fsyncs it, renames it over the old WAL and fsyncs the
// directory: one atomic install, so a crash leaves either the old WAL or
// the new one whole. Recovery is one scan of the WAL: the snapshot record
// sets the horizon below which records are obsolete, and the scan stops
// cleanly at the first torn or corrupt frame.
package storage

import (
	"encoding/binary"
	"errors"
	"fmt"
	"hash/crc32"
	"math"

	"repro/internal/msg"
	"repro/internal/types"
	"repro/internal/wire"
)

// RecordKind discriminates WAL record payloads.
type RecordKind uint8

const (
	// RecordVote is an adopted-vote record: the slot plus the proposal the
	// replica adopted when it acked (encoded as a msg.Propose — value, view,
	// progress certificate, leader signature). Written before the ack is
	// sent; replayed to stop a recovered replica from equivocating against
	// its own pre-crash acks.
	RecordVote RecordKind = iota + 1
	// RecordDecision is a decided slot: slot, view, decide path, value.
	// Written before the decision's effects become externally visible.
	RecordDecision
	// RecordCert is reserved: it held a decided slot's commit certificate,
	// which replicas no longer keep. A WAL written before may still carry
	// such records; they decode as a slot and opaque bytes, recovery skips
	// them, and a checkpoint drops them from the new WAL.
	RecordCert
	// RecordSnapshot is a stable checkpoint: the slot, its checkpoint
	// certificate (carried as a msg.StateSnapshot with no data) and the
	// composite snapshot bytes, which run to the end of the payload. The
	// store writes it only as the first record of a WAL.
	RecordSnapshot
)

func (k RecordKind) String() string {
	switch k {
	case RecordVote:
		return "vote"
	case RecordDecision:
		return "decision"
	case RecordCert:
		return "cert"
	case RecordSnapshot:
		return "snapshot"
	default:
		return fmt.Sprintf("kind(%d)", uint8(k))
	}
}

// Record is one decoded WAL record.
type Record struct {
	Kind RecordKind
	Slot uint64
	// Vote is the adopted proposal of a RecordVote.
	Vote *msg.Propose
	// Decision is the decided value of a RecordDecision.
	Decision types.Decision
	// SnapshotCert and Snapshot are the checkpoint certificate and the
	// snapshot bytes of a RecordSnapshot.
	SnapshotCert *msg.CheckpointCert
	Snapshot     []byte
}

// Decoding errors.
var (
	// ErrBadRecord reports a structurally invalid record payload.
	ErrBadRecord = errors.New("storage: malformed WAL record")
	// errFrameTooLong reports a record payload longer than a frame's
	// length field can carry.
	errFrameTooLong = errors.New("storage: record too long for a WAL frame")
	// errTornFrame reports an incomplete or corrupt frame at the WAL tail;
	// scanning stops there (everything before it is intact).
	errTornFrame = errors.New("storage: torn WAL frame")
)

// walFrameHeader is the per-record frame overhead: a 4-byte little-endian
// payload length followed by a 4-byte CRC-32C of the payload.
const walFrameHeader = 8

var crcTable = crc32.MakeTable(crc32.Castagnoli)

// maxFramePayload is the longest payload a frame's 4-byte length carries.
// A variable only so tests can reach the limit without allocating 4 GiB.
var maxFramePayload uint64 = math.MaxUint32

// appendFrame appends one CRC frame carrying payload to dst. A payload the
// length field cannot represent is refused, never wrapped into a frame
// recovery would misread.
func appendFrame(dst, payload []byte) ([]byte, error) {
	if uint64(len(payload)) > maxFramePayload {
		return dst, fmt.Errorf("%w: %d bytes", errFrameTooLong, len(payload))
	}
	var hdr [walFrameHeader]byte
	binary.LittleEndian.PutUint32(hdr[0:4], uint32(len(payload)))
	binary.LittleEndian.PutUint32(hdr[4:8], crc32.Checksum(payload, crcTable))
	dst = append(dst, hdr[:]...)
	return append(dst, payload...), nil
}

// nextFrame extracts the first frame of buf, returning the payload and the
// remainder. A short, empty, or CRC-mismatched frame returns
// errTornFrame: the caller treats everything from that offset on as a torn
// tail.
func nextFrame(buf []byte) (payload, rest []byte, err error) {
	if len(buf) < walFrameHeader {
		return nil, nil, errTornFrame
	}
	n := binary.LittleEndian.Uint32(buf[0:4])
	if n == 0 || uint64(len(buf)-walFrameHeader) < uint64(n) {
		return nil, nil, errTornFrame
	}
	payload = buf[walFrameHeader : walFrameHeader+int(n)]
	if crc32.Checksum(payload, crcTable) != binary.LittleEndian.Uint32(buf[4:8]) {
		return nil, nil, errTornFrame
	}
	return payload, buf[walFrameHeader+int(n):], nil
}

// EncodeVote renders a vote record payload: the slot and the adopted
// proposal in its canonical message encoding.
func EncodeVote(slot uint64, adopted *msg.Propose) []byte {
	inner := msg.Encode(adopted)
	w := wire.NewWriter(len(inner) + 16)
	w.Uint8(uint8(RecordVote))
	w.Uvarint(slot)
	w.BytesField(inner)
	return w.Bytes()
}

// EncodeDecision renders a decision record payload.
func EncodeDecision(slot uint64, d types.Decision) []byte {
	w := wire.NewWriter(len(d.Value) + 24)
	w.Uint8(uint8(RecordDecision))
	w.Uvarint(slot)
	w.Uvarint(uint64(d.View))
	w.Uint8(uint8(d.Path))
	w.BytesField(d.Value)
	return w.Bytes()
}

// EncodeSnapshot renders a snapshot record payload: the checkpoint slot,
// the certificate in msg's canonical encoding, and the snapshot bytes as
// the rest of the payload — uncapped, so any snapshot state transfer
// accepts is also one the WAL can hold.
func EncodeSnapshot(cert *msg.CheckpointCert, snap []byte) []byte {
	inner := msg.Encode(&msg.StateSnapshot{Cert: *cert})
	w := wire.NewWriter(len(inner) + len(snap) + 16)
	w.Uint8(uint8(RecordSnapshot))
	w.Uvarint(cert.CP.Slot)
	w.BytesField(inner)
	return append(w.Bytes(), snap...)
}

// DecodeRecord parses one WAL record payload. Decoding is strict: trailing
// bytes, truncated fields, and non-canonical inner messages are errors, so
// a record either replays exactly or is rejected whole.
func DecodeRecord(payload []byte) (Record, error) {
	rd := wire.NewReader(payload)
	kind := RecordKind(rd.Uint8())
	rec := Record{Kind: kind}
	switch kind {
	case RecordVote:
		rec.Slot = rd.Uvarint()
		inner := rd.BytesField()
		if err := rd.Finish(); err != nil {
			return Record{}, fmt.Errorf("%w: %v", ErrBadRecord, err)
		}
		m, err := msg.Decode(inner)
		if err != nil {
			return Record{}, fmt.Errorf("%w: vote: %v", ErrBadRecord, err)
		}
		p, ok := m.(*msg.Propose)
		if !ok || p.View < 1 {
			return Record{}, fmt.Errorf("%w: vote record carries %T", ErrBadRecord, m)
		}
		rec.Vote = p
	case RecordDecision:
		rec.Slot = rd.Uvarint()
		rec.Decision.View = types.View(rd.Uvarint())
		rec.Decision.Path = types.DecidePath(rd.Uint8())
		rec.Decision.Value = rd.BytesField()
		if err := rd.Finish(); err != nil {
			return Record{}, fmt.Errorf("%w: %v", ErrBadRecord, err)
		}
		if rec.Decision.Path < types.FastPath || rec.Decision.Path > types.TransferPath {
			return Record{}, fmt.Errorf("%w: decide path %d", ErrBadRecord, rec.Decision.Path)
		}
	case RecordCert:
		// Reserved: read past the slot and the certificate bytes, so that
		// the scan goes on to the records after it.
		rec.Slot = rd.Uvarint()
		rd.BytesField()
		if err := rd.Finish(); err != nil {
			return Record{}, fmt.Errorf("%w: %v", ErrBadRecord, err)
		}
	case RecordSnapshot:
		rec.Slot = rd.Uvarint()
		inner := rd.BytesField()
		if err := rd.Err(); err != nil {
			return Record{}, fmt.Errorf("%w: %v", ErrBadRecord, err)
		}
		m, err := msg.Decode(inner)
		if err != nil {
			return Record{}, fmt.Errorf("%w: snapshot: %v", ErrBadRecord, err)
		}
		ss, ok := m.(*msg.StateSnapshot)
		if !ok || ss.Total != 0 || ss.Offset != 0 || len(ss.Data) != 0 || len(ss.Tail) != 0 ||
			ss.Cert.CP.Slot != rec.Slot {
			return Record{}, fmt.Errorf("%w: snapshot record carries %T", ErrBadRecord, m)
		}
		rec.SnapshotCert = &ss.Cert
		rec.Snapshot = payload[len(payload)-rd.Remaining():]
	default:
		return Record{}, fmt.Errorf("%w: unknown kind %d", ErrBadRecord, uint8(kind))
	}
	return rec, nil
}

// scanWAL walks the framed records of buf, returning the decoded records
// and the byte offset of the end of the last *valid* frame. Scanning stops
// at the first torn frame (truncated, empty, or CRC-mismatched) — the
// crash-recovery contract: a torn tail never hides the intact records
// before it. A frame whose CRC is intact but whose payload fails record
// decoding also stops the scan: after it the stream framing cannot be
// trusted.
func scanWAL(buf []byte) (recs []Record, validOff int64) {
	rest := buf
	for len(rest) > 0 {
		payload, next, err := nextFrame(rest)
		if err != nil {
			break
		}
		rec, err := DecodeRecord(payload)
		if err != nil {
			break
		}
		recs = append(recs, rec)
		rest = next
	}
	return recs, int64(len(buf) - len(rest))
}

// framesAbove appends to dst every frame of frames whose record slot is
// above slot — the records a checkpoint at slot keeps — reading of each
// payload only its kind byte and slot. Snapshot records are dropped (the
// new WAL is headed by its own), and so are reserved certificate records.
// frames is WAL content this store wrote whole, so a frame that does not
// parse is an error, not a torn tail.
func framesAbove(dst, frames []byte, slot uint64) ([]byte, error) {
	for len(frames) > 0 {
		payload, rest, err := nextFrame(frames)
		if err != nil {
			return dst, err
		}
		s, n := binary.Uvarint(payload[1:])
		if n <= 0 {
			return dst, ErrBadRecord
		}
		if k := RecordKind(payload[0]); k != RecordSnapshot && k != RecordCert && s > slot {
			dst = append(dst, frames[:len(frames)-len(rest)]...)
		}
		frames = rest
	}
	return dst, nil
}
