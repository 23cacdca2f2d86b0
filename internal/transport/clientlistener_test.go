package transport

import (
	"bufio"
	"encoding/binary"
	"errors"
	"fmt"
	"io"
	"net"
	"sync/atomic"
	"testing"
	"time"

	"repro/internal/msg"
	"repro/internal/sigcrypto"
	"repro/internal/types"
)

// echoListener starts a client listener whose handler replies immediately,
// echoing the operation bytes — framing and handshake under test without an
// SMR stack behind it.
func echoListener(t *testing.T, self types.ProcessID, scheme sigcrypto.Scheme, readTimeout time.Duration) *ClientListener {
	t.Helper()
	ln, err := NewClientListener(ClientListenerConfig{
		Self:       self,
		ListenAddr: "127.0.0.1:0",
		Signer:     scheme.Signer(self),
		Handler: func(req *msg.Request, reply func(*msg.Reply)) error {
			if len(req.Op) == 0 {
				return errors.New("empty op")
			}
			reply(&msg.Reply{Client: req.Client, Seq: req.Seq, Replica: self, Result: req.Op})
			return nil
		},
		ReadTimeout: readTimeout,
	})
	if err != nil {
		t.Fatal(err)
	}
	if err := ln.Start(); err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { _ = ln.Close() })
	return ln
}

// testConn is a client connection with its one frame reader.
type testConn struct {
	net.Conn
	br *bufio.Reader
}

func (c *testConn) read() ([]byte, error) { return ReadClientFrame(c.br) }

// handshake dials the listener and completes the hello exchange, verifying
// the replica's identity proof.
func handshake(t *testing.T, addr string, expect types.ProcessID, v sigcrypto.Verifier) *testConn {
	t.Helper()
	conn, err := net.DialTimeout("tcp", addr, 2*time.Second)
	if err != nil {
		t.Fatal(err)
	}
	nonce := []byte("test-nonce-16byt")
	hello, err := EncodeClientHello(nonce)
	if err != nil {
		t.Fatal(err)
	}
	_ = conn.SetDeadline(time.Now().Add(5 * time.Second))
	if err := WriteClientFrame(conn, hello); err != nil {
		t.Fatal(err)
	}
	c := &testConn{Conn: conn, br: bufio.NewReader(conn)}
	payload, err := c.read()
	if err != nil {
		t.Fatal(err)
	}
	if err := VerifyServerHello(v, expect, nonce, payload); err != nil {
		t.Fatal(err)
	}
	_ = conn.SetDeadline(time.Now().Add(10 * time.Second))
	return c
}

// exchange sends one request and reads one reply on an authenticated conn.
func exchange(t *testing.T, conn *testConn, client string, seq uint64, op string) *msg.Reply {
	t.Helper()
	if err := WriteClientFrame(conn, msg.Encode(&msg.Request{
		Client: types.ClientID(client), Seq: seq, Op: []byte(op),
	})); err != nil {
		t.Fatal(err)
	}
	payload, err := conn.read()
	if err != nil {
		t.Fatal(err)
	}
	m, err := DecodeClientMessage(payload)
	if err != nil {
		t.Fatal(err)
	}
	rep, ok := m.(*msg.Reply)
	if !ok {
		t.Fatalf("got %T, want *msg.Reply", m)
	}
	return rep
}

func TestClientListenerServesAuthenticatedRequests(t *testing.T) {
	scheme := sigcrypto.NewHMAC(4, 21)
	ln := echoListener(t, 2, scheme, 0)
	conn := handshake(t, ln.Addr(), 2, scheme.Verifier())
	defer func() { _ = conn.Close() }()

	for i := 1; i <= 3; i++ {
		op := fmt.Sprintf("op-%d", i)
		rep := exchange(t, conn, "alice", uint64(i), op)
		if string(rep.Result) != op || rep.Seq != uint64(i) || rep.Replica != 2 {
			t.Fatalf("reply %+v, want echo of %q seq %d from replica 2", rep, op, i)
		}
	}
}

// TestClientListenerRejectsOversizedFrame: a four-byte header announcing a
// frame above MaxClientFrame must drop the connection on the header alone —
// no allocation, no read of the announced body — and the listener must keep
// serving well-behaved clients.
func TestClientListenerRejectsOversizedFrame(t *testing.T) {
	scheme := sigcrypto.NewHMAC(4, 22)
	ln := echoListener(t, 0, scheme, 0)
	conn := handshake(t, ln.Addr(), 0, scheme.Verifier())
	defer func() { _ = conn.Close() }()

	var hdr [4]byte
	binary.BigEndian.PutUint32(hdr[:], MaxClientFrame+1)
	if _, err := conn.Write(hdr[:]); err != nil {
		t.Fatal(err)
	}
	if _, err := conn.read(); err == nil {
		t.Fatal("connection survived an oversized frame header")
	}
	// The listener is unharmed: a fresh connection is served normally.
	conn2 := handshake(t, ln.Addr(), 0, scheme.Verifier())
	defer func() { _ = conn2.Close() }()
	if rep := exchange(t, conn2, "bob", 1, "after"); string(rep.Result) != "after" {
		t.Fatalf("listener degraded after oversized frame: %+v", rep)
	}
}

// TestClientListenerRejectsMalformedPayload: a frame whose payload is not a
// canonical client message drops the connection without reaching the
// handler.
func TestClientListenerRejectsMalformedPayload(t *testing.T) {
	scheme := sigcrypto.NewHMAC(4, 23)
	var handled atomic.Int64
	ln, err := NewClientListener(ClientListenerConfig{
		Self:       1,
		ListenAddr: "127.0.0.1:0",
		Signer:     scheme.Signer(1),
		Handler: func(req *msg.Request, reply func(*msg.Reply)) error {
			handled.Add(1)
			return nil
		},
	})
	if err != nil {
		t.Fatal(err)
	}
	if err := ln.Start(); err != nil {
		t.Fatal(err)
	}
	defer func() { _ = ln.Close() }()

	for name, payload := range map[string][]byte{
		"garbage":        {0xde, 0xad, 0xbe, 0xef},
		"consensus kind": msg.Encode(&msg.Propose{}),
		"reply from client": msg.Encode(&msg.Reply{
			Client: "mallory", Seq: 1, Replica: 1, Result: []byte("fake"),
		}),
	} {
		conn := handshake(t, ln.Addr(), 1, scheme.Verifier())
		if err := WriteClientFrame(conn, payload); err != nil {
			t.Fatalf("%s: %v", name, err)
		}
		if _, err := conn.read(); err == nil {
			t.Fatalf("%s: connection survived", name)
		}
		_ = conn.Close()
	}
	if n := handled.Load(); n != 0 {
		t.Fatalf("handler saw %d malformed submissions", n)
	}
}

// TestClientListenerShedsSlowClient: a client that connects and then stalls
// — never completing its hello, or never completing a frame — is
// disconnected when the read deadline expires, and at no point does it
// block the accept loop: a well-behaved client connecting later is served
// while the slow one is still stalling.
func TestClientListenerShedsSlowClient(t *testing.T) {
	scheme := sigcrypto.NewHMAC(4, 24)
	ln := echoListener(t, 3, scheme, 300*time.Millisecond)

	// Stall in the middle of the hello: one header byte, then silence.
	slow, err := net.DialTimeout("tcp", ln.Addr(), 2*time.Second)
	if err != nil {
		t.Fatal(err)
	}
	defer func() { _ = slow.Close() }()
	if _, err := slow.Write([]byte{0}); err != nil {
		t.Fatal(err)
	}

	// The accept loop is not hostage: a concurrent client is served fully.
	conn := handshake(t, ln.Addr(), 3, scheme.Verifier())
	defer func() { _ = conn.Close() }()
	if rep := exchange(t, conn, "carol", 1, "live"); string(rep.Result) != "live" {
		t.Fatalf("well-behaved client starved: %+v", rep)
	}

	// The stalled connection is shed by the read deadline, well before a
	// patient attacker would let go.
	_ = slow.SetReadDeadline(time.Now().Add(5 * time.Second))
	if _, err := io.ReadAll(slow); err != nil {
		t.Fatalf("waiting for server-side close: %v", err)
	}
}

// TestClientListenerEnforcesConnectionCap: connections beyond MaxConns are
// closed on accept, so a connection-flooding client pins bounded resources;
// capacity freed by a disconnect is served again.
func TestClientListenerEnforcesConnectionCap(t *testing.T) {
	scheme := sigcrypto.NewHMAC(4, 26)
	ln, err := NewClientListener(ClientListenerConfig{
		Self:       1,
		ListenAddr: "127.0.0.1:0",
		Signer:     scheme.Signer(1),
		Handler: func(req *msg.Request, reply func(*msg.Reply)) error {
			reply(&msg.Reply{Client: req.Client, Seq: req.Seq, Replica: 1, Result: req.Op})
			return nil
		},
		MaxConns: 1,
	})
	if err != nil {
		t.Fatal(err)
	}
	if err := ln.Start(); err != nil {
		t.Fatal(err)
	}
	defer func() { _ = ln.Close() }()

	first := handshake(t, ln.Addr(), 1, scheme.Verifier())
	// The second connection is over the cap: it must be closed without ever
	// completing a handshake.
	over, err := net.DialTimeout("tcp", ln.Addr(), 2*time.Second)
	if err != nil {
		t.Fatal(err)
	}
	defer func() { _ = over.Close() }()
	_ = over.SetReadDeadline(time.Now().Add(5 * time.Second))
	if _, err := io.ReadAll(over); err != nil {
		t.Fatalf("waiting for over-cap close: %v", err)
	}
	// The admitted connection is unaffected, and closing it frees capacity.
	if rep := exchange(t, first, "erin", 1, "within-cap"); string(rep.Result) != "within-cap" {
		t.Fatalf("admitted connection degraded: %+v", rep)
	}
	_ = first.Close()
	deadline := time.Now().Add(5 * time.Second)
	for {
		next, err := net.DialTimeout("tcp", ln.Addr(), 2*time.Second)
		if err != nil {
			t.Fatal(err)
		}
		nonce := []byte("test-nonce-16byt")
		hello, _ := EncodeClientHello(nonce)
		_ = next.SetDeadline(time.Now().Add(time.Second))
		_ = WriteClientFrame(next, hello)
		if payload, err := ReadClientFrame(bufio.NewReader(next)); err == nil {
			if err := VerifyServerHello(scheme.Verifier(), 1, nonce, payload); err != nil {
				t.Fatal(err)
			}
			_ = next.Close()
			return // capacity was reclaimed
		}
		_ = next.Close()
		if time.Now().After(deadline) {
			t.Fatal("capacity never freed after the admitted connection closed")
		}
		time.Sleep(10 * time.Millisecond)
	}
}

// TestClientListenerDropsLateRepliesAfterDisconnect: replies that execute
// after the requesting connection died must be dropped silently, not crash
// or block the replica.
func TestClientListenerDropsLateRepliesAfterDisconnect(t *testing.T) {
	scheme := sigcrypto.NewHMAC(4, 25)
	release := make(chan struct{})
	var late atomic.Value // func(*msg.Reply)
	ln, err := NewClientListener(ClientListenerConfig{
		Self:       0,
		ListenAddr: "127.0.0.1:0",
		Signer:     scheme.Signer(0),
		Handler: func(req *msg.Request, reply func(*msg.Reply)) error {
			late.Store(reply)
			close(release)
			return nil
		},
	})
	if err != nil {
		t.Fatal(err)
	}
	if err := ln.Start(); err != nil {
		t.Fatal(err)
	}
	defer func() { _ = ln.Close() }()

	conn := handshake(t, ln.Addr(), 0, scheme.Verifier())
	if err := WriteClientFrame(conn, msg.Encode(&msg.Request{
		Client: "dave", Seq: 1, Op: []byte("x"),
	})); err != nil {
		t.Fatal(err)
	}
	<-release
	_ = conn.Close()
	time.Sleep(50 * time.Millisecond) // let the server observe the close
	// The "execution" completes long after the connection died.
	reply := late.Load().(func(*msg.Reply))
	reply(&msg.Reply{Client: "dave", Seq: 1, Replica: 0, Result: []byte("late")})
}
