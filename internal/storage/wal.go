// Package storage is the durable-state subsystem of a replica: an
// append-only, CRC-framed, fsync'd write-ahead log plus atomically-renamed
// on-disk snapshot files keyed by stable checkpoint.
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
//   - certificate records — the commit certificates that authenticate
//     decided slots during state transfer.
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
// At each stable checkpoint the snapshot file is written first (write to a
// temporary name, fsync, rename, fsync the directory), then the WAL is
// truncated by rewriting it with only the records above the checkpoint.
// Recovery loads the newest valid snapshot and replays the WAL after it,
// stopping cleanly at the first torn or corrupt record.
package storage

import (
	"encoding/binary"
	"errors"
	"fmt"
	"hash/crc32"

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
	// RecordCert is a decided slot's commit certificate (encoded as a
	// msg.Commit), kept so a recovered replica can serve state transfer.
	RecordCert
)

func (k RecordKind) String() string {
	switch k {
	case RecordVote:
		return "vote"
	case RecordDecision:
		return "decision"
	case RecordCert:
		return "cert"
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
	// Cert is the commit certificate of a RecordCert.
	Cert *msg.CommitCert
}

// Decoding errors.
var (
	// ErrBadRecord reports a structurally invalid record payload.
	ErrBadRecord = errors.New("storage: malformed WAL record")
	// errTornFrame reports an incomplete or corrupt frame at the WAL tail;
	// scanning stops there (everything before it is intact).
	errTornFrame = errors.New("storage: torn WAL frame")
)

// maxRecordBytes bounds one record payload: a decision value is bounded by
// the message codec limit, plus slack for the framing fields.
const maxRecordBytes = wire.MaxBytes + 64

// walFrameHeader is the per-record frame overhead: a 4-byte little-endian
// payload length followed by a 4-byte CRC-32C of the payload.
const walFrameHeader = 8

var crcTable = crc32.MakeTable(crc32.Castagnoli)

// AppendFrame appends one CRC frame carrying payload to dst.
func AppendFrame(dst, payload []byte) []byte {
	var hdr [walFrameHeader]byte
	binary.LittleEndian.PutUint32(hdr[0:4], uint32(len(payload)))
	binary.LittleEndian.PutUint32(hdr[4:8], crc32.Checksum(payload, crcTable))
	dst = append(dst, hdr[:]...)
	return append(dst, payload...)
}

// nextFrame extracts the first frame of buf, returning the payload and the
// remainder. A short, oversized, or CRC-mismatched frame returns
// errTornFrame: the caller treats everything from that offset on as a torn
// tail.
func nextFrame(buf []byte) (payload, rest []byte, err error) {
	if len(buf) < walFrameHeader {
		return nil, nil, errTornFrame
	}
	n := binary.LittleEndian.Uint32(buf[0:4])
	if n == 0 || n > maxRecordBytes {
		return nil, nil, errTornFrame
	}
	if uint32(len(buf)-walFrameHeader) < n {
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

// EncodeCert renders a certificate record payload: the slot and the commit
// certificate carried as a canonical msg.Commit.
func EncodeCert(slot uint64, cc *msg.CommitCert) []byte {
	inner := msg.Encode(&msg.Commit{View: cc.View, X: cc.Value, CC: *cc})
	w := wire.NewWriter(len(inner) + 16)
	w.Uint8(uint8(RecordCert))
	w.Uvarint(slot)
	w.BytesField(inner)
	return w.Bytes()
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
		if rec.Decision.Path != types.FastPath && rec.Decision.Path != types.SlowPath {
			return Record{}, fmt.Errorf("%w: decide path %d", ErrBadRecord, rec.Decision.Path)
		}
	case RecordCert:
		rec.Slot = rd.Uvarint()
		inner := rd.BytesField()
		if err := rd.Finish(); err != nil {
			return Record{}, fmt.Errorf("%w: %v", ErrBadRecord, err)
		}
		m, err := msg.Decode(inner)
		if err != nil {
			return Record{}, fmt.Errorf("%w: cert: %v", ErrBadRecord, err)
		}
		c, ok := m.(*msg.Commit)
		if !ok || !c.CC.Value.Equal(c.X) || c.CC.View != c.View {
			return Record{}, fmt.Errorf("%w: cert record carries %T", ErrBadRecord, m)
		}
		rec.Cert = &c.CC
	default:
		return Record{}, fmt.Errorf("%w: unknown kind %d", ErrBadRecord, uint8(kind))
	}
	return rec, nil
}

// scanWAL walks the framed records of buf, returning the decoded records
// and the byte offset of the end of the last *valid* frame. Scanning stops
// at the first torn frame (truncated, oversized, or CRC-mismatched) — the
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
