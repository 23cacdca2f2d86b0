package transport

import (
	"bufio"
	"encoding/binary"
	"errors"
	"fmt"
	"io"
	"net"
	"strconv"
	"sync"
	"syscall"
	"time"

	"repro/internal/obs"
	"repro/internal/sigcrypto"
	"repro/internal/types"
	"repro/internal/wire"
)

// domainHello tags the handshake signature so it can never be confused with
// a protocol signature.
const domainHello byte = 30

// helloDigest is the byte string a dialer signs to authenticate a
// connection from `from` to `to`.
func helloDigest(from, to types.ProcessID) []byte {
	w := wire.NewWriter(16)
	w.Uint8(domainHello)
	w.Int32(int32(from))
	w.Int32(int32(to))
	return w.Bytes()
}

// TCPConfig parameterizes a TCP endpoint.
type TCPConfig struct {
	// Self is this endpoint's process identifier.
	Self types.ProcessID
	// N is the total number of processes.
	N int
	// ListenAddr is this endpoint's listen address (e.g. "127.0.0.1:0").
	ListenAddr string
	// Peers lists the listen addresses of every process, indexed by ID.
	// It may be left nil at construction and provided via SetPeers before
	// Start (useful when addresses are allocated dynamically).
	Peers []string
	// Signer signs the outgoing handshakes.
	Signer sigcrypto.Signer
	// Verifier checks incoming handshakes.
	Verifier sigcrypto.Verifier
	// DialRetry is the reconnect backoff (default 100ms).
	DialRetry time.Duration
	// Metrics optionally registers this endpoint's frame/byte counters
	// (physical peer-channel traffic, after any group multiplexing). A nil
	// registry still counts — the counters just are not exported anywhere.
	Metrics *obs.Registry
	// MetricsLabels label the endpoint's series (typically the replica id).
	MetricsLabels obs.Labels
}

// TCPTransport implements Transport over TCP with a signed handshake and
// 4-byte length-prefixed frames. Each ordered pair of processes uses one
// connection, established by the sender; payload delivery order follows TCP
// order per sender.
type TCPTransport struct {
	cfg      TCPConfig
	listener net.Listener

	mu        sync.Mutex
	handler   Handler
	started   bool
	closed    bool
	peers     []*tcpPeer
	peerAddrs []string
	conns     map[net.Conn]struct{}
	wg        sync.WaitGroup

	mFramesIn, mBytesIn   *obs.Counter
	mFramesOut, mBytesOut *obs.Counter
}

var _ Transport = (*TCPTransport)(nil)

// NewTCP creates a TCP endpoint and binds its listener immediately (so that
// callers can start endpoints in any order).
func NewTCP(cfg TCPConfig) (*TCPTransport, error) {
	if !cfg.Self.Valid(cfg.N) {
		return nil, ErrUnknownPeer
	}
	if cfg.DialRetry <= 0 {
		cfg.DialRetry = 100 * time.Millisecond
	}
	ln, err := net.Listen("tcp", cfg.ListenAddr)
	if err != nil {
		return nil, fmt.Errorf("tcp listen %s: %w", cfg.ListenAddr, err)
	}
	t := &TCPTransport{cfg: cfg, listener: ln, conns: make(map[net.Conn]struct{})}
	t.mFramesIn = cfg.Metrics.Counter("fastbft_net_frames_in_total", "peer-channel frames received", cfg.MetricsLabels)
	t.mBytesIn = cfg.Metrics.Counter("fastbft_net_bytes_in_total", "peer-channel payload bytes received", cfg.MetricsLabels)
	t.mFramesOut = cfg.Metrics.Counter("fastbft_net_frames_out_total", "peer-channel frames enqueued for send", cfg.MetricsLabels)
	t.mBytesOut = cfg.Metrics.Counter("fastbft_net_bytes_out_total", "peer-channel payload bytes enqueued for send", cfg.MetricsLabels)
	if cfg.Peers != nil {
		t.peerAddrs = make([]string, len(cfg.Peers))
		copy(t.peerAddrs, cfg.Peers)
	}
	t.peers = make([]*tcpPeer, cfg.N)
	for i := range t.peers {
		if types.ProcessID(i) == cfg.Self {
			continue
		}
		t.peers[i] = newTCPPeer(t, types.ProcessID(i))
	}
	return t, nil
}

// SetPeers installs the peer address table; it must be called before Start
// when the table was not supplied at construction.
func (t *TCPTransport) SetPeers(addrs []string) error {
	if len(addrs) != t.cfg.N {
		return fmt.Errorf("tcp: %d peer addresses for n=%d", len(addrs), t.cfg.N)
	}
	t.mu.Lock()
	defer t.mu.Unlock()
	if t.started {
		return errors.New("tcp: SetPeers after Start")
	}
	t.peerAddrs = make([]string, len(addrs))
	copy(t.peerAddrs, addrs)
	return nil
}

// peerAddr returns the address of peer id.
func (t *TCPTransport) peerAddr(id types.ProcessID) string {
	t.mu.Lock()
	defer t.mu.Unlock()
	if int(id) >= len(t.peerAddrs) {
		return ""
	}
	return t.peerAddrs[id]
}

// Addr returns the bound listen address (useful with ":0" configs).
func (t *TCPTransport) Addr() string { return t.listener.Addr().String() }

// Self implements Transport.
func (t *TCPTransport) Self() types.ProcessID { return t.cfg.Self }

// SetHandler implements Transport.
func (t *TCPTransport) SetHandler(h Handler) {
	t.mu.Lock()
	defer t.mu.Unlock()
	t.handler = h
}

// Start implements Transport: it launches the accept loop and the per-peer
// drain goroutines.
func (t *TCPTransport) Start() error {
	t.mu.Lock()
	defer t.mu.Unlock()
	if t.closed {
		return ErrClosed
	}
	if t.started {
		return nil
	}
	if t.handler == nil {
		return fmt.Errorf("tcp %s: %w", t.cfg.Self, errNoHandler)
	}
	if len(t.peerAddrs) != t.cfg.N {
		return fmt.Errorf("tcp %s: peer addresses not set", t.cfg.Self)
	}
	t.started = true
	t.wg.Add(1)
	go t.acceptLoop()
	for _, p := range t.peers {
		if p == nil {
			continue
		}
		t.wg.Add(1)
		go p.run()
	}
	return nil
}

// Send implements Transport.
func (t *TCPTransport) Send(to types.ProcessID, payload []byte) error {
	if !to.Valid(t.cfg.N) || to == t.cfg.Self {
		return ErrUnknownPeer
	}
	frame, err := t.frame(payload)
	if err != nil {
		return err
	}
	t.peers[to].enqueue(frame)
	t.mFramesOut.Inc()
	t.mBytesOut.Add(uint64(len(payload)))
	return nil
}

// Broadcast implements Transport. The frame is built once, and every peer's
// outbox takes the same bytes.
func (t *TCPTransport) Broadcast(payload []byte) error {
	frame, err := t.frame(payload)
	if err != nil {
		return err
	}
	for _, p := range t.peers {
		if p != nil {
			p.enqueue(frame)
		}
	}
	t.mFramesOut.Add(uint64(t.cfg.N - 1))
	t.mBytesOut.Add(uint64((t.cfg.N - 1) * len(payload)))
	return nil
}

// frame returns payload behind its length prefix, in a new slice that
// nothing modifies afterwards, so several outboxes may hold it at once.
func (t *TCPTransport) frame(payload []byte) ([]byte, error) {
	if len(payload) > MaxFrame {
		return nil, fmt.Errorf("tcp: payload %d bytes exceeds limit", len(payload))
	}
	if t.isClosed() {
		return nil, ErrClosed
	}
	frame := make([]byte, frameHeader+len(payload))
	binary.BigEndian.PutUint32(frame, uint32(len(payload)))
	copy(frame[frameHeader:], payload)
	return frame, nil
}

// Close implements Transport.
func (t *TCPTransport) Close() error {
	t.mu.Lock()
	if t.closed {
		t.mu.Unlock()
		return nil
	}
	t.closed = true
	for conn := range t.conns {
		_ = conn.Close()
	}
	t.mu.Unlock()
	_ = t.listener.Close()
	for _, p := range t.peers {
		if p != nil {
			p.close()
		}
	}
	t.wg.Wait()
	return nil
}

func (t *TCPTransport) isClosed() bool {
	t.mu.Lock()
	defer t.mu.Unlock()
	return t.closed
}

// acceptLoop authenticates inbound connections and spawns their readers.
func (t *TCPTransport) acceptLoop() {
	defer t.wg.Done()
	for {
		conn, err := t.listener.Accept()
		if err != nil {
			return // listener closed
		}
		t.wg.Add(1)
		go t.serveConn(conn)
	}
}

// serveConn performs the handshake and dispatches frames to the handler.
func (t *TCPTransport) serveConn(conn net.Conn) {
	defer t.wg.Done()
	t.mu.Lock()
	if t.closed {
		t.mu.Unlock()
		_ = conn.Close()
		return
	}
	t.conns[conn] = struct{}{}
	t.mu.Unlock()
	defer func() {
		_ = conn.Close()
		t.mu.Lock()
		delete(t.conns, conn)
		t.mu.Unlock()
	}()

	// One buffered reader per connection: a burst of small frames costs one
	// read call, not two per frame.
	br := bufio.NewReaderSize(conn, peerReadBuffer)
	hello, err := readFrame(br, MaxFrame)
	if err != nil {
		return
	}
	r := wire.NewReader(hello)
	from := types.ProcessID(r.Int32())
	var sig sigcrypto.Signature
	sig.Signer = types.ProcessID(r.Int32())
	sig.Bytes = r.BytesField()
	if r.Finish() != nil || !from.Valid(t.cfg.N) || sig.Signer != from {
		return
	}
	if !t.cfg.Verifier.Verify(helloDigest(from, t.cfg.Self), sig) {
		return
	}
	for {
		payload, err := readFrame(br, MaxFrame)
		if err != nil {
			return
		}
		t.mFramesIn.Inc()
		t.mBytesIn.Add(uint64(len(payload)))
		t.mu.Lock()
		h := t.handler
		closed := t.closed
		t.mu.Unlock()
		if closed {
			return
		}
		h(from, payload)
	}
}

// maxPeerOutbox bounds the payload bytes queued for one peer, which for a
// peer that is down would otherwise grow for as long as the process lives.
// Past it the oldest frames are dropped and counted; a peer that returns
// catches up as after any message loss, by state transfer. The bound is twice
// the largest burst the stack sends one peer on purpose: a chunked 64 MiB
// snapshot and its tail.
const maxPeerOutbox = 128 << 20

// peerReadBuffer is the size of each inbound peer connection's read buffer.
const peerReadBuffer = 32 << 10

// frameHeader is the length of a frame's big-endian payload length prefix.
const frameHeader = 4

// tcpPeer owns the outbound connection to one peer and a FIFO outbox of at
// most maxPeerOutbox payload bytes. While the link is idle (nothing queued,
// no write in progress, the connection up) a frame leaves on the sender's
// goroutine, in one non-blocking write attempt (peerConn.tryWrite). What the
// socket does not take is queued: a partly written frame first, with the
// count of its bytes already sent, and later frames behind it. A goroutine
// drains the queue with blocking writes and (re)dials as needed, so a peer
// that stops reading never blocks Send. The outbox holds whole frames,
// length prefix included; a frame cut by a broken connection is written
// again whole on the next one.
type tcpPeer struct {
	t        *TCPTransport
	id       types.ProcessID
	mDropped *obs.Counter
	mInline  *obs.Counter // frames written whole by the sender's attempt
	mDrain   *obs.Counter // frames the drain goroutine finished
	mu       sync.Mutex   // guards the fields below
	cond     *sync.Cond
	box      [][]byte  // frames, oldest first
	bytes    int       // payload bytes over box, prefixes not counted
	sent     int       // bytes of box[0] already on the wire
	conn     *peerConn // the drain goroutine's connection; nil while down
	busy     bool      // the drain goroutine holds a frame outside box
	stop     bool
}

func newTCPPeer(t *TCPTransport, id types.ProcessID) *tcpPeer {
	labels := t.cfg.MetricsLabels.With("peer", strconv.Itoa(int(id)))
	const writesHelp = "peer-channel frames written, by the path that finished them: inline on the sender's goroutine, or by the drain goroutine"
	p := &tcpPeer{t: t, id: id,
		mDropped: t.cfg.Metrics.Counter("fastbft_transport_outbox_dropped_total",
			"peer-channel frames dropped, oldest first, because the peer's outbox was full", labels),
		mInline: t.cfg.Metrics.Counter("fastbft_transport_writes_total", writesHelp, labels.With("path", "inline")),
		mDrain:  t.cfg.Metrics.Counter("fastbft_transport_writes_total", writesHelp, labels.With("path", "drain")),
	}
	p.cond = sync.NewCond(&p.mu)
	return p
}

// enqueue sends frame, which it does not modify: on an idle link it writes
// what the socket takes at once, and it queues the rest.
func (p *tcpPeer) enqueue(frame []byte) {
	p.mu.Lock()
	defer p.mu.Unlock()
	if p.stop {
		return
	}
	if len(p.box) == 0 && !p.busy && p.conn != nil {
		n, err := p.conn.tryWrite(frame)
		if err == nil && n == len(frame) {
			p.mInline.Inc()
			return
		}
		// A broken connection wrote nothing: the drain goroutine meets the
		// same error, redials and writes the frame whole.
		p.sent = n
	}
	p.box = append(p.box, frame)
	p.bytes += len(frame) - frameHeader
	for p.bytes > maxPeerOutbox { // never a partly written frame or the one just queued: two MaxFrames are far below the bound
		p.dropOldest()
	}
	p.cond.Signal()
}

// dropOldest drops the oldest queued frame with no byte on the wire: a
// partly written one must finish, or the peer's stream would lose its
// framing. The caller holds p.mu.
func (p *tcpPeer) dropOldest() {
	i := 0
	if p.sent > 0 {
		i = 1
	}
	p.bytes -= len(p.box[i]) - frameHeader
	p.box[i] = p.box[0] // the partly written frame moves up, if there is one
	p.box[0] = nil
	p.box = p.box[1:]
	p.mDropped.Inc()
}

// pop removes the oldest queued frame and returns it with the count of its
// bytes already written; the caller holds p.mu.
func (p *tcpPeer) pop() ([]byte, int) {
	frame, off := p.box[0], p.sent
	p.box[0] = nil
	p.box = p.box[1:]
	p.bytes -= len(frame) - frameHeader
	p.sent = 0
	return frame, off
}

// close stops the peer. Closing the connection ends a write blocked on a
// peer that stopped reading.
func (p *tcpPeer) close() {
	p.mu.Lock()
	defer p.mu.Unlock()
	p.stop = true
	if p.conn != nil {
		_ = p.conn.Close()
	}
	p.cond.Broadcast()
}

// run drains the outbox over a (re)dialed connection.
func (p *tcpPeer) run() {
	defer p.t.wg.Done()
	var conn *peerConn
	defer func() {
		if conn != nil {
			_ = conn.Close()
		}
	}()
	p.mu.Lock()
	for {
		p.busy = false
		for len(p.box) == 0 && !p.stop {
			p.cond.Wait()
		}
		if p.stop {
			p.mu.Unlock()
			return
		}
		// The frame leaves the outbox before it is written, so a drop by
		// enqueue meanwhile can only take frames behind it, and busy keeps
		// enqueue from writing ahead of it.
		frame, off := p.pop()
		p.busy = true
		p.mu.Unlock()

		for {
			if conn == nil {
				if conn = p.dial(); conn == nil {
					return // transport closed while dialing
				}
				p.mu.Lock()
				p.conn = conn
				stop := p.stop
				p.mu.Unlock()
				if stop {
					return // close ran before the connection was visible to it
				}
			}
			if _, err := conn.Write(frame[off:]); err == nil {
				break
			}
			_ = conn.Close()
			p.mu.Lock()
			p.conn = nil
			p.mu.Unlock()
			conn, off = nil, 0 // reconnect and write the whole frame again
		}
		p.mDrain.Inc()
		p.mu.Lock()
	}
}

// dial connects and handshakes, retrying until success or shutdown.
func (p *tcpPeer) dial() *peerConn {
	for {
		if p.t.isClosed() { // Close stops the peers only after closing the transport
			return nil
		}
		conn, err := net.DialTimeout("tcp", p.t.peerAddr(p.id), time.Second)
		if err != nil {
			time.Sleep(p.t.cfg.DialRetry)
			continue
		}
		sig := p.t.cfg.Signer.Sign(helloDigest(p.t.cfg.Self, p.id))
		w := wire.NewWriter(96)
		w.Int32(int32(p.t.cfg.Self))
		w.Int32(int32(sig.Signer))
		w.BytesField(sig.Bytes)
		if err := writeFrame(conn, w.Bytes()); err != nil {
			_ = conn.Close()
			time.Sleep(p.t.cfg.DialRetry)
			continue
		}
		return newPeerConn(conn)
	}
}

// peerConn is an outbound peer connection with its non-blocking write
// attempt. The attempt's callback is bound once per connection, so an
// attempt allocates nothing.
type peerConn struct {
	net.Conn
	raw     syscall.RawConn // nil if the connection exposes none
	attempt func(fd uintptr) bool
	buf     []byte // the attempt's input,
	n       int    // its byte count
	err     error  // and its error
}

func newPeerConn(conn net.Conn) *peerConn {
	c := &peerConn{Conn: conn}
	if sc, ok := conn.(syscall.Conn); ok {
		if raw, err := sc.SyscallConn(); err == nil {
			c.raw = raw
		}
	}
	c.attempt = func(fd uintptr) bool {
		c.n, c.err = writeNonblock(fd, c.buf)
		return true // never wait for the socket: the drain goroutine does
	}
	return c
}

// tryWrite writes as much of b as the socket takes without blocking and
// returns the count. An error means the connection is broken. Calls must
// not overlap each other or a Write.
func (c *peerConn) tryWrite(b []byte) (int, error) {
	if c.raw == nil {
		return 0, nil
	}
	c.buf = b
	err := c.raw.Write(c.attempt)
	c.buf = nil
	if err != nil {
		return 0, err
	}
	return c.n, c.err
}

// maxPooledFrame is the largest frame buffer writeFrame keeps for reuse.
const maxPooledFrame = 64 << 10

// framePool holds writeFrame's frame buffers (as *[]byte, so that a Put
// allocates nothing).
var framePool = sync.Pool{New: func() any { b := make([]byte, 0, 512); return &b }}

// writeFrame emits one 4-byte length-prefixed frame in a single Write,
// assembled in a pooled buffer. It serves the peer handshake and the client
// channel; the per-channel payload limits are enforced by the callers (dial
// and WriteClientFrame). Peer traffic proper is framed once, by TCPTransport.frame.
func writeFrame(w io.Writer, payload []byte) error {
	bp := framePool.Get().(*[]byte)
	frame := binary.BigEndian.AppendUint32((*bp)[:0], uint32(len(payload)))
	frame = append(frame, payload...)
	_, err := w.Write(frame)
	if cap(frame) <= maxPooledFrame {
		*bp = frame
		framePool.Put(bp)
	}
	return err
}

// readFrame reads one length-prefixed frame of either channel, enforcing
// limit on the header alone — before any allocation. The length prefix is
// read in place from the connection's buffer, which must be the one reader
// of the connection for its whole life: a frame's bytes can arrive in the
// same read as the previous frame's, and a reader made per frame would drop
// them.
func readFrame(r *bufio.Reader, limit uint32) ([]byte, error) {
	hdr, err := r.Peek(frameHeader)
	if err != nil {
		return nil, err
	}
	n := binary.BigEndian.Uint32(hdr)
	_, _ = r.Discard(frameHeader) // the bytes Peek returned
	if n > limit {
		return nil, ErrFrameTooLarge
	}
	payload := make([]byte, n)
	if _, err := io.ReadFull(r, payload); err != nil {
		return nil, err
	}
	return payload, nil
}
