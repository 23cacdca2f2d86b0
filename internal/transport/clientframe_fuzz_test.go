package transport

import (
	"bytes"
	"encoding/binary"
	"testing"

	"repro/internal/msg"
)

// FuzzDecodeClientFrame checks the client-facing framing against arbitrary
// bytes: the decoder must never panic, must reject every frame above
// MaxClientFrame or with a length prefix disagreeing with the payload, and
// must accept exactly the canonical encodings — any frame it accepts must
// re-encode byte-identically (one byte string per message, on the client
// wire as everywhere else) and must be a client-channel kind.
func FuzzDecodeClientFrame(f *testing.F) {
	seedMsgs := []msg.Message{
		&msg.Request{Client: "alice", Seq: 1, Op: []byte("set x 1")},
		&msg.Request{Client: "bob", Seq: 1 << 33, Op: bytes.Repeat([]byte{0xab}, 512)},
		&msg.Reply{Client: "alice", Seq: 7, Slot: 42, Replica: 3, Result: []byte("ok")},
		&msg.Reply{Client: "c", Seq: 1, Slot: 0, Replica: 0, Result: nil},
		&msg.Request{Client: "carol", Seq: 5, Op: []byte("set y 2"), Group: 3},
		&msg.Reply{Client: "carol", Seq: 5, Slot: 11, Replica: 2, Result: []byte("ok"), Group: 3},
	}
	for _, m := range seedMsgs {
		frame, err := EncodeClientFrame(m)
		if err != nil {
			f.Fatal(err)
		}
		f.Add(frame)
		f.Add(frame[:len(frame)-1])           // truncated
		f.Add(append(frame, 0))               // trailing byte
		f.Add(frame[4:])                      // missing prefix
		f.Add(append([]byte{0, 0}, frame...)) // shifted prefix
	}
	f.Add([]byte{0xff, 0xff, 0xff, 0xff})                // oversized length, no body
	f.Add([]byte{0, 16, 0, 0, 1, 2, 3})                  // length above limit
	f.Add(binary.BigEndian.AppendUint32(nil, uint32(0))) // empty payload
	f.Add(binary.BigEndian.AppendUint32(nil, uint32(MaxClientFrame+1)))
	// A non-client message kind in a well-formed frame.
	payload := msg.Encode(&msg.Propose{})
	f.Add(append(binary.BigEndian.AppendUint32(nil, uint32(len(payload))), payload...))

	f.Fuzz(func(t *testing.T, frame []byte) {
		m, err := DecodeClientFrame(frame)
		if err != nil {
			return
		}
		switch m.(type) {
		case *msg.Request, *msg.Reply:
		default:
			t.Fatalf("decoder accepted non-client kind %T", m)
		}
		again, err := EncodeClientFrame(m)
		if err != nil {
			t.Fatalf("accepted frame failed to re-encode: %v", err)
		}
		if !bytes.Equal(again, frame) {
			t.Fatalf("non-canonical frame accepted:\n in: %x\nout: %x", frame, again)
		}
	})
}
