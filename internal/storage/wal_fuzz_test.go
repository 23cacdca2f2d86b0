package storage

import (
	"bytes"
	"testing"

	"repro/internal/msg"
	"repro/internal/sigcrypto"
	"repro/internal/types"
	"repro/internal/wire"
)

// FuzzDecodeWALRecord holds the WAL record decoder to the canonical
// encodings: any payload it accepts must re-encode to exactly the input
// bytes (so a record either replays bit-identically after a crash or is
// rejected whole — there is no byte string that decodes to a record other
// than its own canonical form), and no input may panic the decoder or the
// frame scanner.
func FuzzDecodeWALRecord(f *testing.F) {
	f.Add([]byte{})
	f.Add(EncodeVote(3, &msg.Propose{
		View: 2,
		X:    types.Value("seed-value"),
		Tau:  sigcrypto.Signature{Signer: 1, Bytes: []byte("tau")},
	}))
	f.Add(EncodeDecision(7, types.Decision{Value: types.Value("v"), View: 1, Path: types.FastPath}))
	f.Add(certRecord(9, 1, "v"))
	f.Add(framed(EncodeDecision(1, types.Decision{Value: types.Value("x"), View: 1, Path: types.SlowPath})))
	f.Add(EncodeSnapshot(&msg.CheckpointCert{
		CP:   types.Checkpoint{Slot: 5, StateHash: []byte("hash")},
		Sigs: []sigcrypto.Signature{{Signer: 0, Bytes: []byte("c")}},
	}, []byte("snapshot-bytes")))

	f.Fuzz(func(t *testing.T, data []byte) {
		rec, err := DecodeRecord(data)
		if err == nil {
			var re []byte
			switch rec.Kind {
			case RecordVote:
				re = EncodeVote(rec.Slot, rec.Vote)
			case RecordDecision:
				re = EncodeDecision(rec.Slot, rec.Decision)
			case RecordCert:
				// Reserved: the body is opaque, so re-frame the bytes read.
				rd := wire.NewReader(data)
				rd.Uint8()
				rd.Uvarint()
				re = certRecordOf(rec.Slot, rd.BytesField())
			case RecordSnapshot:
				re = EncodeSnapshot(rec.SnapshotCert, rec.Snapshot)
			default:
				t.Fatalf("decoder accepted unknown kind %d", rec.Kind)
			}
			if !bytes.Equal(re, data) {
				t.Fatalf("non-canonical record accepted:\n in %x\nout %x", data, re)
			}
		}
		// The frame scanner must stop cleanly on arbitrary bytes, never
		// claim more valid prefix than the buffer holds, and every record
		// it yields must be one the strict decoder accepts.
		recs, off := scanWAL(data)
		if off < 0 || off > int64(len(data)) {
			t.Fatalf("scanWAL offset %d out of range", off)
		}
		_ = recs
	})
}
