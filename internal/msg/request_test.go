package msg

import (
	"bytes"
	"strings"
	"testing"

	"repro/internal/types"
)

// TestRequestReplyCodecRoundTrip: requests and replies round-trip and
// re-encode canonically for group 0 exactly as for any other group — the
// group is always on the wire, so no value of it is special.
func TestRequestReplyCodecRoundTrip(t *testing.T) {
	for _, g := range []uint64{0, 1, 127, 128, 1 << 40} {
		req := &Request{Client: "alice", Seq: 42, Op: []byte("set k v"), Group: g}
		enc := Encode(req)
		m, err := Decode(enc)
		if err != nil {
			t.Fatalf("group %d: %v", g, err)
		}
		gotReq, ok := m.(*Request)
		if !ok {
			t.Fatalf("decoded %T, want *Request", m)
		}
		if gotReq.Client != req.Client || gotReq.Seq != req.Seq || !bytes.Equal(gotReq.Op, req.Op) || gotReq.Group != g {
			t.Fatalf("round trip mismatch: %+v vs %+v", gotReq, req)
		}
		if !bytes.Equal(Encode(gotReq), enc) {
			t.Fatalf("group %d: re-encoded request differs from the original encoding", g)
		}

		rep := &Reply{Client: "bob", Seq: 7, Slot: 19, Replica: 3, Result: []byte("ok"), Group: g}
		enc = Encode(rep)
		if m, err = Decode(enc); err != nil {
			t.Fatalf("group %d: %v", g, err)
		}
		gotRep, ok := m.(*Reply)
		if !ok {
			t.Fatalf("decoded %T, want *Reply", m)
		}
		if gotRep.Client != rep.Client || gotRep.Seq != rep.Seq || gotRep.Slot != rep.Slot ||
			gotRep.Replica != rep.Replica || !bytes.Equal(gotRep.Result, rep.Result) || gotRep.Group != g {
			t.Fatalf("round trip mismatch: %+v vs %+v", gotRep, rep)
		}
		if !bytes.Equal(Encode(gotRep), enc) {
			t.Fatalf("group %d: re-encoded reply differs from the original encoding", g)
		}
	}
}

func TestRequestDecodeRejectsMalformedInputs(t *testing.T) {
	valid := Encode(&Request{Client: "c", Seq: 1, Op: []byte("x")})
	cases := map[string][]byte{
		"truncated":        valid[:len(valid)-1], // the group field is not optional
		"trailing byte":    append(append([]byte(nil), valid...), 0),
		"oversized client": Encode(&Request{Client: types.ClientID(strings.Repeat("a", MaxClientID+1)), Seq: 1, Op: []byte("x")}),
		"empty buffer":     {},
		"kind byte only":   {byte(KindRequest)},
		"reply kind short": {byte(KindReply), 1},
	}
	for name, buf := range cases {
		if _, err := Decode(buf); err == nil {
			t.Errorf("%s: decoded without error", name)
		}
	}
}

func TestRequestDecodeRejectsPaddedVarint(t *testing.T) {
	// A padded (non-minimal) sequence-number varint must be rejected: two
	// byte strings must never decode to one request, or dedup by encoded
	// bytes and dedup by (client, seq) would disagree.
	valid := Encode(&Request{Client: "c", Seq: 1, Op: []byte("x")})
	// Layout: kind, clientLen=1, 'c', seq=1, opLen=1, 'x', group=0. Pad seq
	// 1 as 0x81 0x00 (still decodes to 1 under binary.Uvarint), then group 0
	// as 0x80 0x00.
	for name, padded := range map[string][]byte{
		"seq":   {valid[0], 1, 'c', 0x81, 0x00, 1, 'x', 0},
		"group": {valid[0], 1, 'c', 1, 1, 'x', 0x80, 0x00},
	} {
		if _, err := Decode(padded); err == nil {
			t.Fatalf("padded %s varint accepted", name)
		}
	}
}
