package msg

import (
	"bytes"
	"testing"
)

// The request/reply codecs must be canonical: every byte string that decodes
// successfully must re-encode to exactly itself. Commands are deduplicated
// both by encoded bytes (the pending queue) and by decoded (client, seq)
// (the session table); a non-canonical encoding would let the two disagree,
// and would let a Byzantine sender mint distinct byte strings for one
// logical request.

// FuzzDecodeRequest forces the request kind byte and asserts the
// decode→encode round trip is the identity on accepted inputs.
func FuzzDecodeRequest(f *testing.F) {
	f.Add(Encode(&Request{Client: "alice", Seq: 1, Op: []byte("op")}))
	f.Add(Encode(&Request{Client: "b", Seq: 1 << 40, Op: nil}))
	f.Add(Encode(&Request{Client: "carol", Seq: 3, Op: []byte("op"), Group: 3}))
	f.Add(Encode(&Request{Client: "d", Seq: 1, Op: []byte("op"), Group: 1 << 20}))
	f.Add([]byte{byte(KindRequest)})
	f.Add([]byte{byte(KindRequest), 0, 0, 0})
	f.Fuzz(func(t *testing.T, data []byte) {
		if len(data) == 0 {
			return
		}
		buf := append([]byte(nil), data...)
		buf[0] = byte(KindRequest)
		m, err := Decode(buf)
		if err != nil {
			return
		}
		req, ok := m.(*Request)
		if !ok {
			t.Fatalf("request kind decoded to %T", m)
		}
		if !bytes.Equal(Encode(req), buf) {
			t.Fatalf("non-canonical request encoding accepted: %x", buf)
		}
	})
}

// FuzzDecodeReply is the same property for replies.
func FuzzDecodeReply(f *testing.F) {
	f.Add(Encode(&Reply{Client: "alice", Seq: 9, Slot: 4, Replica: 2, Result: []byte("r")}))
	f.Add(Encode(&Reply{Client: "carol", Seq: 3, Slot: 8, Replica: 1, Result: []byte("r"), Group: 3}))
	f.Add(Encode(&Reply{Client: "d", Seq: 1, Slot: 0, Replica: 0, Result: nil, Group: 1 << 20}))
	f.Add([]byte{byte(KindReply)})
	f.Add([]byte{byte(KindReply), 0, 0, 0, 0, 0})
	f.Fuzz(func(t *testing.T, data []byte) {
		if len(data) == 0 {
			return
		}
		buf := append([]byte(nil), data...)
		buf[0] = byte(KindReply)
		m, err := Decode(buf)
		if err != nil {
			return
		}
		rep, ok := m.(*Reply)
		if !ok {
			t.Fatalf("reply kind decoded to %T", m)
		}
		if !bytes.Equal(Encode(rep), buf) {
			t.Fatalf("non-canonical reply encoding accepted: %x", buf)
		}
	})
}

// FuzzDecodeStateSnapshot is the same property for state-transfer frames,
// which a replica decodes from any peer that answers its fetch.
func FuzzDecodeStateSnapshot(f *testing.F) {
	s := testScheme()
	x := []byte("value")
	f.Add(Encode(&StateSnapshot{
		Cert: *sampleCheckpointCert(s), Total: 9, Offset: 0, Data: []byte("snapshot!"),
		Tail: []TailDecision{{Slot: 17, Value: x}},
	}))
	f.Add(Encode(&StateSnapshot{Cert: *sampleCheckpointCert(s), Total: 1 << 20, Offset: 4096, Data: []byte("piece")}))
	f.Add(Encode(&StateSnapshot{Tail: []TailDecision{{Slot: 3, Value: x}, {Slot: 4, Value: x}}}))
	f.Add([]byte{byte(KindStateSnapshot)})
	f.Add([]byte{byte(KindStateSnapshot), 0, 0, 0, 0, 0, 0, 0})
	f.Fuzz(func(t *testing.T, data []byte) {
		if len(data) == 0 {
			return
		}
		buf := append([]byte(nil), data...)
		buf[0] = byte(KindStateSnapshot)
		m, err := Decode(buf)
		if err != nil {
			return
		}
		ss, ok := m.(*StateSnapshot)
		if !ok {
			t.Fatalf("state-snapshot kind decoded to %T", m)
		}
		if !bytes.Equal(Encode(ss), buf) {
			t.Fatalf("non-canonical state-snapshot encoding accepted: %x", buf)
		}
	})
}
