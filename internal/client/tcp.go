package client

import (
	"bufio"
	"crypto/rand"
	"errors"
	"fmt"
	"net"
	"sync"
	"time"

	"repro/internal/msg"
	"repro/internal/sigcrypto"
	"repro/internal/transport"
	"repro/internal/types"
)

// TCPConfig parameterizes a networked client transport.
type TCPConfig struct {
	// N is the number of replicas.
	N int
	// Addrs lists each replica's client-facing listener address, indexed by
	// process ID (the client's address book).
	Addrs []string
	// Verifier checks the replicas' handshake identity proofs; it is what
	// makes the `from` of a delivered reply trustworthy, which the f+1
	// matching-reply rule depends on.
	Verifier sigcrypto.Verifier
	// DialTimeout bounds one connection attempt (default 1s).
	DialTimeout time.Duration
	// HandshakeTimeout bounds the signed hello exchange after dialing
	// (default 2s). It is what converts a replica that accepts connections
	// but never speaks into fail-fast silence instead of a hung Send.
	HandshakeTimeout time.Duration
	// WriteTimeout bounds one request write (default 2s).
	WriteTimeout time.Duration
}

// TCP implements Transport over per-replica TCP connections to the
// replicas' client-facing listeners. Connections are dialed lazily on first
// send, authenticated by the nonce-signing handshake (the replica proves its
// identity under its cluster key, so replies read from connection i really
// are from replica i), and redialed transparently after any failure: a send
// that cannot complete reports an error, which the client treats as silence
// and recovers by retransmission.
type TCP struct {
	cfg TCPConfig

	mu     sync.Mutex
	h      func(from types.ProcessID, rep *msg.Reply)
	conns  map[types.ProcessID]*tcpClientConn
	closed bool
	wg     sync.WaitGroup
}

var _ Transport = (*TCP)(nil)

// tcpClientConn is one authenticated connection to one replica.
type tcpClientConn struct {
	conn net.Conn
	br   *bufio.Reader // the connection's one reader, handshake included
	mu   sync.Mutex    // serializes writes
}

// NewTCP builds a networked client transport over the given address book.
func NewTCP(cfg TCPConfig) (*TCP, error) {
	if cfg.N <= 0 || len(cfg.Addrs) != cfg.N {
		return nil, fmt.Errorf("client: %d replica addresses for n=%d", len(cfg.Addrs), cfg.N)
	}
	if cfg.Verifier == nil {
		return nil, errors.New("client: tcp transport requires a verifier")
	}
	if cfg.DialTimeout <= 0 {
		cfg.DialTimeout = time.Second
	}
	if cfg.HandshakeTimeout <= 0 {
		cfg.HandshakeTimeout = 2 * time.Second
	}
	if cfg.WriteTimeout <= 0 {
		cfg.WriteTimeout = 2 * time.Second
	}
	return &TCP{cfg: cfg, conns: make(map[types.ProcessID]*tcpClientConn)}, nil
}

// SetHandler implements Transport.
func (t *TCP) SetHandler(h func(from types.ProcessID, rep *msg.Reply)) {
	t.mu.Lock()
	defer t.mu.Unlock()
	t.h = h
}

// Send implements Transport: it delivers one request frame to replica `to`,
// dialing and handshaking first if no live connection exists. Failures tear
// the connection down and surface as an error — silence, to the retrying
// client above.
func (t *TCP) Send(to types.ProcessID, req *msg.Request) error {
	if !to.Valid(t.cfg.N) {
		return transport.ErrUnknownPeer
	}
	c, err := t.conn(to)
	if err != nil {
		return err
	}
	frame, err := transport.EncodeClientFrame(req)
	if err != nil {
		return err
	}
	c.mu.Lock()
	_ = c.conn.SetWriteDeadline(time.Now().Add(t.cfg.WriteTimeout))
	_, werr := c.conn.Write(frame)
	c.mu.Unlock()
	if werr != nil {
		t.drop(to, c)
		return werr
	}
	return nil
}

// conn returns the live connection to replica `to`, dialing one if needed.
func (t *TCP) conn(to types.ProcessID) (*tcpClientConn, error) {
	t.mu.Lock()
	if t.closed {
		t.mu.Unlock()
		return nil, transport.ErrClosed
	}
	if c := t.conns[to]; c != nil {
		t.mu.Unlock()
		return c, nil
	}
	t.mu.Unlock()

	c, err := t.dial(to)
	if err != nil {
		return nil, err
	}
	t.mu.Lock()
	if t.closed {
		t.mu.Unlock()
		_ = c.conn.Close()
		return nil, transport.ErrClosed
	}
	if existing := t.conns[to]; existing != nil {
		// Lost a dial race; keep the established connection.
		t.mu.Unlock()
		_ = c.conn.Close()
		return existing, nil
	}
	t.conns[to] = c
	t.wg.Add(1)
	go t.readLoop(to, c)
	t.mu.Unlock()
	return c, nil
}

// dial connects to replica `to` and runs the authenticating handshake: send
// a fresh nonce, demand the replica's signature over it. A connection whose
// peer cannot prove it holds replica to's key never enters the table.
func (t *TCP) dial(to types.ProcessID) (*tcpClientConn, error) {
	conn, err := net.DialTimeout("tcp", t.cfg.Addrs[to], t.cfg.DialTimeout)
	if err != nil {
		return nil, err
	}
	nonce := make([]byte, 32)
	if _, err := rand.Read(nonce); err != nil {
		_ = conn.Close()
		return nil, err
	}
	hello, err := transport.EncodeClientHello(nonce)
	if err != nil {
		_ = conn.Close()
		return nil, err
	}
	_ = conn.SetDeadline(time.Now().Add(t.cfg.HandshakeTimeout))
	if err := transport.WriteClientFrame(conn, hello); err != nil {
		_ = conn.Close()
		return nil, err
	}
	br := bufio.NewReader(conn)
	payload, err := transport.ReadClientFrame(br)
	if err != nil {
		_ = conn.Close()
		return nil, err
	}
	if err := transport.VerifyServerHello(t.cfg.Verifier, to, nonce, payload); err != nil {
		_ = conn.Close()
		return nil, err
	}
	_ = conn.SetDeadline(time.Time{}) // replies may take arbitrarily long
	return &tcpClientConn{conn: conn, br: br}, nil
}

// readLoop decodes reply frames from one authenticated connection. The
// handshake pinned the peer's identity, so every reply is attributed to
// `from` — which the client cross-checks against the reply's own Replica
// field. Any framing violation drops the connection; a later Send redials.
func (t *TCP) readLoop(from types.ProcessID, c *tcpClientConn) {
	defer t.wg.Done()
	defer t.drop(from, c)
	for {
		payload, err := transport.ReadClientFrame(c.br)
		if err != nil {
			return
		}
		m, err := transport.DecodeClientMessage(payload)
		if err != nil {
			return
		}
		rep, ok := m.(*msg.Reply)
		if !ok {
			return // replicas may only send replies on this channel
		}
		t.mu.Lock()
		h, closed := t.h, t.closed
		t.mu.Unlock()
		if closed {
			return
		}
		if h != nil {
			h(from, rep)
		}
	}
}

// drop removes a dead connection from the table (unless a fresh one already
// replaced it) and closes it.
func (t *TCP) drop(id types.ProcessID, c *tcpClientConn) {
	t.mu.Lock()
	if t.conns[id] == c {
		delete(t.conns, id)
	}
	t.mu.Unlock()
	_ = c.conn.Close()
}

// Close implements Transport.
func (t *TCP) Close() error {
	t.mu.Lock()
	if t.closed {
		t.mu.Unlock()
		return nil
	}
	t.closed = true
	for _, c := range t.conns {
		_ = c.conn.Close()
	}
	t.mu.Unlock()
	t.wg.Wait()
	return nil
}
