package transport

import (
	"bufio"
	"errors"
	"fmt"
	"net"
	"sync"
	"sync/atomic"
	"time"

	"repro/internal/msg"
	"repro/internal/sigcrypto"
	"repro/internal/types"
)

// ClientHandler ingests one decoded client request. reply may be called from
// any goroutine at any later time (requests execute after consensus) and never
// blocks; replies to connections that have since died are dropped. A
// returned error marks the request as invalid at the session layer (empty
// operation, oversized client ID, zero sequence number) and drops the
// connection that sent it.
type ClientHandler func(req *msg.Request, reply func(*msg.Reply)) error

// ClientListenerConfig parameterizes a replica's client-facing endpoint.
type ClientListenerConfig struct {
	// Self is the replica this listener serves for; its identity is what the
	// handshake proves to dialing clients.
	Self types.ProcessID
	// ListenAddr is the client-facing listen address (e.g. "127.0.0.1:0").
	// It is distinct from the replica-to-replica listen address.
	ListenAddr string
	// Signer signs the handshake identity proofs (the replica's cluster key).
	Signer sigcrypto.Signer
	// Handler receives every decoded request.
	Handler ClientHandler
	// ReadTimeout is the per-connection read deadline, re-armed before the
	// handshake and before every request frame (default 2 minutes); between
	// frames a reply written on the connection re-arms it too. A client
	// that stops sending mid-frame — or never completes its hello — is
	// disconnected when it expires, so a slow or hostile client occupies a
	// goroutine for a bounded time and never the accept loop.
	ReadTimeout time.Duration
	// WriteTimeout bounds one reply write (default 10 seconds); a client
	// that stops reading is disconnected when it expires or clientReplyQueue
	// replies are waiting, and recovers its replies by retransmission.
	WriteTimeout time.Duration
	// MaxConns caps concurrent client connections (default 1024).
	// Connections above the cap are closed on accept, so the worst a
	// connection-flooding client can pin is two goroutines (reader, writer)
	// per connection, MaxConns×MaxClientFrame of read buffer for one
	// ReadTimeout and MaxConns×clientReplyQueue queued replies — never
	// unbounded memory. Honest clients redial.
	MaxConns int
}

// ClientListener is a replica's client-facing TCP endpoint, separate from
// replica-to-replica traffic: it accepts connections from external clients,
// proves the replica's identity in a signed handshake, decodes
// length-prefixed canonical Request frames into the handler, and pushes
// Reply frames back when requests execute.
//
// The accept loop never reads from a connection — each connection gets its
// own goroutine whose reads are bounded by ReadTimeout and whose frames are
// bounded by MaxClientFrame, and the connection population is bounded by
// MaxConns — so no client, however slow or hostile, can hold the accept
// loop hostage or force unbounded allocation.
type ClientListener struct {
	cfg ClientListenerConfig
	ln  net.Listener

	mu      sync.Mutex
	started bool
	closed  bool
	conns   map[net.Conn]struct{}
	wg      sync.WaitGroup
}

// NewClientListener binds the client-facing listener immediately (so Addr is
// known before Start).
func NewClientListener(cfg ClientListenerConfig) (*ClientListener, error) {
	if cfg.Signer == nil {
		return nil, errors.New("transport: client listener requires a signer")
	}
	if cfg.Handler == nil {
		return nil, errors.New("transport: client listener requires a handler")
	}
	if cfg.ReadTimeout <= 0 {
		cfg.ReadTimeout = 2 * time.Minute
	}
	if cfg.WriteTimeout <= 0 {
		cfg.WriteTimeout = 10 * time.Second
	}
	if cfg.MaxConns <= 0 {
		cfg.MaxConns = 1024
	}
	ln, err := net.Listen("tcp", cfg.ListenAddr)
	if err != nil {
		return nil, fmt.Errorf("client listen %s: %w", cfg.ListenAddr, err)
	}
	return &ClientListener{cfg: cfg, ln: ln, conns: make(map[net.Conn]struct{})}, nil
}

// Addr returns the bound client-facing address (useful with ":0" configs).
func (l *ClientListener) Addr() string { return l.ln.Addr().String() }

// Start launches the accept loop.
func (l *ClientListener) Start() error {
	l.mu.Lock()
	defer l.mu.Unlock()
	if l.closed {
		return ErrClosed
	}
	if l.started {
		return nil
	}
	l.started = true
	l.wg.Add(1)
	go l.acceptLoop()
	return nil
}

// Close stops the listener and severs every client connection.
func (l *ClientListener) Close() error {
	l.mu.Lock()
	if l.closed {
		l.mu.Unlock()
		return nil
	}
	l.closed = true
	for conn := range l.conns {
		_ = conn.Close()
	}
	l.mu.Unlock()
	_ = l.ln.Close()
	l.wg.Wait()
	return nil
}

// acceptLoop admits connections and hands each to its own goroutine; it
// performs no reads itself.
func (l *ClientListener) acceptLoop() {
	defer l.wg.Done()
	for {
		conn, err := l.ln.Accept()
		if err != nil {
			return // listener closed
		}
		l.wg.Add(1)
		go l.serveConn(conn)
	}
}

// serveConn runs the handshake and then the request loop for one client
// connection. Any protocol violation — malformed hello, oversized frame,
// non-canonical payload, a message kind clients may not send, an invalid
// request — drops the connection: the client protocol recovers lost replies
// by retransmission, so dropping is always safe, and it is the cheapest
// possible response to a hostile peer.
func (l *ClientListener) serveConn(conn net.Conn) {
	defer l.wg.Done()
	l.mu.Lock()
	if l.closed || len(l.conns) >= l.cfg.MaxConns {
		l.mu.Unlock()
		_ = conn.Close()
		return
	}
	l.conns[conn] = struct{}{}
	l.mu.Unlock()
	w := &clientConnWriter{conn: conn, timeout: l.cfg.WriteTimeout,
		queue: make(chan []byte, clientReplyQueue), done: make(chan struct{})}
	defer func() {
		close(w.done)
		_ = conn.Close()
		l.mu.Lock()
		delete(l.conns, conn)
		l.mu.Unlock()
	}()

	// Handshake: the client opens with a nonce; we answer with our identity
	// signed over it. The hello read runs under the same deadline as every
	// other read — a client that connects and stalls is shed, not parked.
	br := bufio.NewReader(conn)
	_ = conn.SetReadDeadline(time.Now().Add(l.cfg.ReadTimeout))
	payload, err := ReadClientFrame(br)
	if err != nil {
		return
	}
	nonce, err := DecodeClientHello(payload)
	if err != nil {
		return
	}
	if err := w.write(EncodeServerHello(l.cfg.Signer, nonce)); err != nil {
		return
	}
	l.wg.Add(1)
	go w.run(&l.wg)

	for {
		_ = conn.SetReadDeadline(time.Now().Add(l.cfg.ReadTimeout))
		if !w.awaitFrame(br, l.cfg.ReadTimeout) {
			return
		}
		payload, err := ReadClientFrame(br)
		if err != nil {
			return
		}
		m, err := DecodeClientMessage(payload)
		if err != nil {
			return
		}
		req, ok := m.(*msg.Request)
		if !ok {
			return // clients may only send requests
		}
		if err := l.cfg.Handler(req, w.reply); err != nil {
			return
		}
	}
}

// clientReplyQueue is how many replies may wait for one connection's writer.
// A session keeps one request in flight, so a client that reads its socket is
// owed at most one per session sharing the connection — tens; a connection
// this far behind has stopped reading.
const clientReplyQueue = 256

// clientConnWriter owns the write side of one client connection. Replies
// arrive as replica callbacks, which must not block, possibly after the
// connection died: reply only queues the frame for the connection's one
// writer goroutine, which alone waits on the socket. A full queue (or a failed
// write) closes the connection, which ends its reader, and a dead connection
// drops the reply — either way the client retransmits and is answered from
// the reply cache.
type clientConnWriter struct {
	conn      net.Conn
	timeout   time.Duration
	queue     chan []byte   // encoded replies, oldest first; never closed
	done      chan struct{} // closed by the reader (serveConn) on its way out
	lastReply atomic.Int64  // when run last wrote a reply, in Unix nanoseconds
}

// awaitFrame waits under the armed read deadline for the first byte of the
// next request frame. A reply written on the connection counts as activity:
// a session whose requests go to another replica reads its replies here and
// sends nothing, and shedding its connection would silence this replica to
// it. A reply extends only this wait, never a frame that has started.
func (w *clientConnWriter) awaitFrame(br *bufio.Reader, idle time.Duration) bool {
	for {
		_, err := br.Peek(1)
		if err == nil {
			return true
		}
		var ne net.Error
		last := time.Unix(0, w.lastReply.Load())
		if !errors.As(err, &ne) || !ne.Timeout() || time.Since(last) >= idle {
			return false
		}
		_ = w.conn.SetReadDeadline(last.Add(idle))
	}
}

// write sends one frame under the write deadline.
func (w *clientConnWriter) write(payload []byte) error {
	_ = w.conn.SetWriteDeadline(time.Now().Add(w.timeout))
	return WriteClientFrame(w.conn, payload)
}

// run is the writer goroutine: it drains the queue until the reader is done.
func (w *clientConnWriter) run(wg *sync.WaitGroup) {
	defer wg.Done()
	for {
		select {
		case <-w.done:
			return
		case payload := <-w.queue:
			if w.write(payload) != nil {
				_ = w.conn.Close()
				return
			}
			w.lastReply.Store(time.Now().UnixNano())
		}
	}
}

// reply queues one reply; it never blocks.
func (w *clientConnWriter) reply(rep *msg.Reply) {
	if rep == nil {
		return
	}
	select {
	case <-w.done:
	case w.queue <- msg.Encode(rep):
	default:
		_ = w.conn.Close() // the client has stopped reading
	}
}
