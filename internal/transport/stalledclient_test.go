package transport_test

import (
	"bufio"
	"net"
	"runtime"
	"strings"
	"sync/atomic"
	"testing"
	"time"

	"repro/internal/msg"
	"repro/internal/sigcrypto"
	"repro/internal/smr"
	"repro/internal/transport"
	"repro/internal/types"
)

// dialClient connects to a client listener and completes the handshake.
// clientConn is a client connection with its one frame reader.
type clientConn struct {
	net.Conn
	br *bufio.Reader
}

func dialClient(t *testing.T, addr string, expect types.ProcessID, v sigcrypto.Verifier) *clientConn {
	t.Helper()
	conn, err := net.DialTimeout("tcp", addr, 2*time.Second)
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { _ = conn.Close() })
	nonce := []byte("stalled-nonce-16")
	hello, err := transport.EncodeClientHello(nonce)
	if err != nil {
		t.Fatal(err)
	}
	_ = conn.SetDeadline(time.Now().Add(30 * time.Second))
	if err := transport.WriteClientFrame(conn, hello); err != nil {
		t.Fatal(err)
	}
	c := &clientConn{Conn: conn, br: bufio.NewReader(conn)}
	payload, err := transport.ReadClientFrame(c.br)
	if err != nil {
		t.Fatal(err)
	}
	if err := transport.VerifyServerHello(v, expect, nonce, payload); err != nil {
		t.Fatal(err)
	}
	return c
}

// roundTrip sends one KV set and reads its reply.
func roundTrip(t *testing.T, conn *clientConn, client types.ClientID, seq uint64, value string) *msg.Reply {
	t.Helper()
	op := smr.EncodeKV(smr.KVCommand{Op: smr.OpSet, Key: string(client), Value: value})
	if err := transport.WriteClientFrame(conn, msg.Encode(&msg.Request{Client: client, Seq: seq, Op: op})); err != nil {
		t.Fatal(err)
	}
	payload, err := transport.ReadClientFrame(conn.br)
	if err != nil {
		t.Fatalf("%s/%d: no reply: %v", client, seq, err)
	}
	m, err := transport.DecodeClientMessage(payload)
	if err != nil {
		t.Fatal(err)
	}
	rep, ok := m.(*msg.Reply)
	if !ok || rep.Seq != seq {
		t.Fatalf("%s/%d: got %+v", client, seq, m)
	}
	return rep
}

// TestStalledClientPinsBoundedResources: a client that completes the
// handshake, stops reading and keeps retransmitting its last executed request
// is owed a cached reply for every retransmission. The replica must not park
// anything on that client's socket: the goroutine count stays within a
// constant of what it was, the connection is dropped once its reply queue is
// full, and a healthy connection to the same listener is answered throughout.
func TestStalledClientPinsBoundedResources(t *testing.T) {
	cfg := types.Generalized(1, 1)
	scheme := sigcrypto.NewHMAC(cfg.N, 27)
	mem := transport.NewMemNetwork(cfg.N, 0)
	t.Cleanup(func() { _ = mem.Close() })
	reps := make([]*smr.Replica, cfg.N)
	for i := range reps {
		id := types.ProcessID(i)
		r, err := smr.NewReplica(smr.Config{
			Cluster: cfg, Self: id, Signer: scheme.Signer(id), Verifier: scheme.Verifier(),
			Transport: mem.Transport(id), App: smr.NewKVStore(),
		})
		if err != nil {
			t.Fatal(err)
		}
		reps[i] = r
		t.Cleanup(func() { _ = r.Close() })
	}
	for _, r := range reps {
		if err := r.Start(); err != nil {
			t.Fatal(err)
		}
	}
	var peak atomic.Int64 // most goroutines seen right after a request was handled
	ln, err := transport.NewClientListener(transport.ClientListenerConfig{
		Self: 0, ListenAddr: "127.0.0.1:0", Signer: scheme.Signer(0),
		Handler: func(req *msg.Request, reply func(*msg.Reply)) error {
			err := reps[0].HandleRequest(req, reply)
			if n := int64(runtime.NumGoroutine()); n > peak.Load() {
				peak.Store(n) // one connection floods; a lost update from the other is harmless
			}
			return err
		},
		WriteTimeout: time.Minute, // the drop must come from the queue bound, not from waiting this out
	})
	if err != nil {
		t.Fatal(err)
	}
	if err := ln.Start(); err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { _ = ln.Close() })

	healthy := dialClient(t, ln.Addr(), 0, scheme.Verifier())
	stalled := dialClient(t, ln.Addr(), 0, scheme.Verifier())
	roundTrip(t, healthy, "healthy", 1, "v1")
	// The stalled client's one executed request has a 32 KiB result, so a few
	// hundred cached replies fill the socket buffers and the reply queue.
	roundTrip(t, stalled, "stalled", 1, strings.Repeat("x", 32<<10))
	baseline := runtime.NumGoroutine()
	peak.Store(0)

	// From here on the stalled client never reads again.
	retransmit := msg.Encode(&msg.Request{Client: "stalled", Seq: 1, Op: []byte("again")})
	dropped := false
	for i, deadline := 0, time.Now().Add(20*time.Second); !dropped && time.Now().Before(deadline); i++ {
		dropped = transport.WriteClientFrame(stalled, retransmit) != nil
		switch {
		case i == 1000:
			roundTrip(t, healthy, "healthy", 2, "v2") // mid-flood
		case i > 3000:
			time.Sleep(5 * time.Millisecond) // enough sent; wait for the listener to work through it
		}
	}
	if !dropped {
		t.Error("the stalled connection was never dropped")
	}
	if got := peak.Load(); got > int64(baseline)+8 {
		t.Errorf("%d goroutines while the stalled client was flooding, %d before it", got, baseline)
	}
	roundTrip(t, healthy, "healthy", 3, "v3")
}
