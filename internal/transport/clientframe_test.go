package transport

import (
	"bufio"
	"bytes"
	"encoding/binary"
	"errors"
	"testing"

	"repro/internal/msg"
	"repro/internal/sigcrypto"
)

func TestClientFrameRoundTrip(t *testing.T) {
	cases := []msg.Message{
		&msg.Request{Client: "alice", Seq: 1, Op: []byte("op-bytes")},
		&msg.Request{Client: "bob", Seq: 1 << 40, Op: bytes.Repeat([]byte{7}, 1000)},
		&msg.Reply{Client: "alice", Seq: 3, Slot: 9, Replica: 2, Result: []byte("res")},
		&msg.Reply{Client: "c", Seq: 1, Slot: 0, Replica: 0, Result: nil},
	}
	for i, m := range cases {
		frame, err := EncodeClientFrame(m)
		if err != nil {
			t.Fatalf("case %d: encode: %v", i, err)
		}
		got, err := DecodeClientFrame(frame)
		if err != nil {
			t.Fatalf("case %d: decode: %v", i, err)
		}
		again, err := EncodeClientFrame(got)
		if err != nil {
			t.Fatalf("case %d: re-encode: %v", i, err)
		}
		if !bytes.Equal(frame, again) {
			t.Fatalf("case %d: round trip not canonical", i)
		}
	}
}

func TestClientFrameRejectsNonClientKinds(t *testing.T) {
	if _, err := EncodeClientFrame(&msg.Propose{}); !errors.Is(err, ErrNotClientMessage) {
		t.Fatalf("encode of a consensus message: %v, want ErrNotClientMessage", err)
	}
	// A well-formed consensus message smuggled onto the client channel must
	// be rejected at decode, not dispatched.
	payload := msg.Encode(&msg.Propose{})
	frame := make([]byte, 4+len(payload))
	binary.BigEndian.PutUint32(frame[:4], uint32(len(payload)))
	copy(frame[4:], payload)
	if _, err := DecodeClientFrame(frame); !errors.Is(err, ErrNotClientMessage) {
		t.Fatalf("decode of a consensus frame: %v, want ErrNotClientMessage", err)
	}
}

func TestClientFrameRejectsMalformed(t *testing.T) {
	valid, err := EncodeClientFrame(&msg.Request{Client: "a", Seq: 1, Op: []byte("x")})
	if err != nil {
		t.Fatal(err)
	}
	cases := map[string][]byte{
		"empty":          nil,
		"short header":   {0, 0, 1},
		"truncated body": valid[:len(valid)-1],
		"trailing byte":  append(append([]byte(nil), valid...), 0),
		"length mismatch": func() []byte {
			f := append([]byte(nil), valid...)
			binary.BigEndian.PutUint32(f[:4], uint32(len(f)))
			return f
		}(),
		"oversized length": {0xff, 0xff, 0xff, 0xff},
		"garbage payload":  {0, 0, 0, 3, 0xde, 0xad, 0xbe},
	}
	for name, frame := range cases {
		if _, err := DecodeClientFrame(frame); err == nil {
			t.Fatalf("%s: accepted", name)
		}
	}
}

func TestClientHelloRoundTrip(t *testing.T) {
	scheme := sigcrypto.NewHMAC(4, 1)
	nonce := []byte("nonce-0123456789")
	hello, err := EncodeClientHello(nonce)
	if err != nil {
		t.Fatal(err)
	}
	got, err := DecodeClientHello(hello)
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(got, nonce) {
		t.Fatalf("nonce %x, want %x", got, nonce)
	}

	server := EncodeServerHello(scheme.Signer(2), nonce)
	if err := VerifyServerHello(scheme.Verifier(), 2, nonce, server); err != nil {
		t.Fatalf("valid server hello rejected: %v", err)
	}
	// Identity mismatch: replica 2 answering when the client dialed 1.
	if err := VerifyServerHello(scheme.Verifier(), 1, nonce, server); err == nil {
		t.Fatal("server hello for the wrong replica accepted")
	}
	// Nonce mismatch: a replayed hello from another connection.
	if err := VerifyServerHello(scheme.Verifier(), 2, []byte("other-nonce-0000"), server); err == nil {
		t.Fatal("replayed server hello accepted")
	}
	// Oversized and empty nonces never leave the client.
	if _, err := EncodeClientHello(nil); err == nil {
		t.Fatal("empty nonce accepted")
	}
	if _, err := EncodeClientHello(bytes.Repeat([]byte{1}, maxHelloNonce+1)); err == nil {
		t.Fatal("oversized nonce accepted")
	}
}

// TestReadClientFrameTwoFramesOneWrite: two client frames that arrive in one
// write land in the connection reader's buffer together, and the one reader
// returns both.
func TestReadClientFrameTwoFramesOneWrite(t *testing.T) {
	var wire bytes.Buffer
	for _, p := range []string{"first", "second"} {
		if err := WriteClientFrame(&wire, []byte(p)); err != nil {
			t.Fatal(err)
		}
	}
	br := bufio.NewReader(bytes.NewReader(wire.Bytes())) // one Read fills the buffer with both
	for _, want := range []string{"first", "second"} {
		got, err := ReadClientFrame(br)
		if err != nil || string(got) != want {
			t.Fatalf("read %q, %v; want %q", got, err, want)
		}
	}
}
