package transport

import (
	"bufio"
	"bytes"
	"encoding/binary"
	"fmt"
	"io"
	"net"
	"sync"
	"testing"
	"time"

	"repro/internal/obs"
	"repro/internal/sigcrypto"
	"repro/internal/types"
)

// rawPeer is the far end of a peer channel, driven by hand: it accepts the
// sender's connection, skips its hello, and reads frames only when told.
type rawPeer struct {
	ln   net.Listener
	conn net.Conn
	br   *bufio.Reader
}

func listenRawPeer(t *testing.T) *rawPeer {
	t.Helper()
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	rp := &rawPeer{ln: ln}
	t.Cleanup(func() {
		_ = rp.ln.Close()
		if rp.conn != nil {
			_ = rp.conn.Close()
		}
	})
	return rp
}

// accept takes the sender's next connection and reads its hello. The
// connection's receive buffer is kept small, so a peer that does not read
// holds little in its kernel.
func (rp *rawPeer) accept(t *testing.T) {
	t.Helper()
	_ = rp.ln.(*net.TCPListener).SetDeadline(time.Now().Add(10 * time.Second))
	conn, err := rp.ln.Accept()
	if err != nil {
		t.Fatal(err)
	}
	_ = conn.(*net.TCPConn).SetReadBuffer(64 << 10)
	rp.conn, rp.br = conn, bufio.NewReaderSize(conn, peerReadBuffer)
	rp.next(t) // the hello
}

// next reads one frame.
func (rp *rawPeer) next(t *testing.T) []byte {
	t.Helper()
	_ = rp.conn.SetReadDeadline(time.Now().Add(10 * time.Second))
	payload, err := readFrame(rp.br, MaxFrame)
	if err != nil {
		t.Fatal(err)
	}
	return payload
}

// newSender starts process 0 of a two-process transport whose peer 1 is
// at addr.
func newSender(t *testing.T, addr string, reg *obs.Registry) *TCPTransport {
	t.Helper()
	scheme := sigcrypto.NewHMAC(2, 97)
	tr, err := NewTCP(TCPConfig{
		Self: 0, N: 2, ListenAddr: "127.0.0.1:0",
		Signer: scheme.Signer(0), Verifier: scheme.Verifier(),
		DialRetry: 10 * time.Millisecond, Metrics: reg,
	})
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { _ = tr.Close() })
	if err := tr.SetPeers([]string{tr.Addr(), addr}); err != nil {
		t.Fatal(err)
	}
	tr.SetHandler(func(types.ProcessID, []byte) {})
	if err := tr.Start(); err != nil {
		t.Fatal(err)
	}
	return tr
}

// seqPayload is payload i of the given size: its index, then bytes that
// depend on both the index and the position.
func seqPayload(i, size int) []byte {
	b := make([]byte, size)
	binary.BigEndian.PutUint64(b, uint64(i))
	for j := 8; j < size; j++ {
		b[j] = byte(i + j)
	}
	return b
}

// expect reads one frame and fails unless it is seqPayload(i, size).
func (rp *rawPeer) expect(t *testing.T, i, size int) {
	t.Helper()
	got := rp.next(t)
	if !bytes.Equal(got, seqPayload(i, size)) {
		var idx uint64
		if len(got) >= 8 {
			idx = binary.BigEndian.Uint64(got)
		}
		t.Fatalf("frame %d: got %d bytes with index %d, want %d bytes, whole", i, len(got), idx, size)
	}
}

// waitIdle waits until the sender's link to peer 1 is idle: connected,
// nothing queued and no write in progress.
func waitIdle(t *testing.T, tr *TCPTransport) {
	t.Helper()
	p := tr.peers[1]
	for deadline := time.Now().Add(10 * time.Second); time.Now().Before(deadline); time.Sleep(time.Millisecond) {
		p.mu.Lock()
		idle := p.conn != nil && !p.busy && len(p.box) == 0
		p.mu.Unlock()
		if idle {
			return
		}
	}
	t.Fatal("the link to peer 1 never went idle")
}

// capSendBuffer keeps the sender's socket buffer to peer 1 small, so that a
// large frame cannot fit in the kernel whatever the host's TCP tuning.
func capSendBuffer(t *testing.T, tr *TCPTransport) {
	t.Helper()
	p := tr.peers[1]
	p.mu.Lock()
	defer p.mu.Unlock()
	if err := p.conn.Conn.(*net.TCPConn).SetWriteBuffer(64 << 10); err != nil {
		t.Fatal(err)
	}
}

// TestTCPSendNeverBlocksOnStalledPeer: a peer that accepts but stops
// reading never blocks Send, however much is queued for it. Once it reads
// again, every frame arrives whole and in order.
func TestTCPSendNeverBlocksOnStalledPeer(t *testing.T) {
	rp := listenRawPeer(t)
	tr := newSender(t, rp.ln.Addr().String(), nil)

	const frames, size = 48, 1 << 20 // 48 MiB: far more than two socket buffers
	for i := 0; i < frames; i++ {
		start := time.Now()
		if err := tr.Send(1, seqPayload(i, size)); err != nil {
			t.Fatal(err)
		}
		if d := time.Since(start); d > time.Second {
			t.Fatalf("Send of frame %d took %v with a peer that does not read", i, d)
		}
	}
	p := tr.peers[1]
	p.mu.Lock()
	queued := p.bytes
	p.mu.Unlock()
	if queued == 0 {
		t.Fatalf("nothing queued after %d MiB to a peer that does not read", frames*size>>20)
	}
	t.Logf("%d of %d MiB still queued when the last Send returned", queued>>20, frames*size>>20)

	rp.accept(t)
	for i := 0; i < frames; i++ {
		rp.expect(t, i, size)
	}
}

// TestTCPLargeFrameTailLeavesFirst: a frame larger than the socket's
// buffers, sent on an idle link, is partly written at once; the frames sent
// after it wait for its tail, and nothing interleaves with it.
func TestTCPLargeFrameTailLeavesFirst(t *testing.T) {
	rp := listenRawPeer(t)
	tr := newSender(t, rp.ln.Addr().String(), nil)
	if err := tr.Send(1, seqPayload(0, 64)); err != nil {
		t.Fatal(err)
	}
	rp.accept(t)
	rp.expect(t, 0, 64)
	waitIdle(t, tr)
	capSendBuffer(t, tr)

	const small = 100
	if err := tr.Send(1, seqPayload(1, MaxFrame)); err != nil {
		t.Fatal(err)
	}
	for i := 2; i < 2+small; i++ {
		if err := tr.Send(1, seqPayload(i, 200)); err != nil {
			t.Fatal(err)
		}
	}
	rp.expect(t, 1, MaxFrame)
	for i := 2; i < 2+small; i++ {
		rp.expect(t, i, 200)
	}
}

// TestTCPFrameCutByReconnectArrivesWhole: the peer's connection breaks in
// the middle of a frame and its listener restarts; the cut frame is written
// again whole on the new connection, ahead of the frames queued behind it.
func TestTCPFrameCutByReconnectArrivesWhole(t *testing.T) {
	rp := listenRawPeer(t)
	addr := rp.ln.Addr().String()
	tr := newSender(t, addr, nil)
	if err := tr.Send(1, seqPayload(0, 64)); err != nil {
		t.Fatal(err)
	}
	rp.accept(t)
	rp.expect(t, 0, 64)
	waitIdle(t, tr)
	capSendBuffer(t, tr)

	const small = 10
	if err := tr.Send(1, seqPayload(1, MaxFrame)); err != nil {
		t.Fatal(err)
	}
	for i := 2; i < 2+small; i++ {
		if err := tr.Send(1, seqPayload(i, 200)); err != nil {
			t.Fatal(err)
		}
	}
	// Read the large frame's prefix and its first KiB, then break the
	// connection and restart the listener at the same address.
	_ = rp.conn.SetReadDeadline(time.Now().Add(10 * time.Second))
	head := make([]byte, frameHeader+1024)
	if _, err := io.ReadFull(rp.br, head); err != nil {
		t.Fatal(err)
	}
	if n := binary.BigEndian.Uint32(head); n != MaxFrame {
		t.Fatalf("the large frame's prefix reads %d, want %d", n, MaxFrame)
	}
	_ = rp.conn.Close()
	_ = rp.ln.Close()
	ln, err := net.Listen("tcp", addr)
	if err != nil {
		t.Fatal(err)
	}
	rp.ln, rp.conn = ln, nil

	rp.accept(t)
	rp.expect(t, 1, MaxFrame)
	for i := 2; i < 2+small; i++ {
		rp.expect(t, i, 200)
	}
}

// TestTCPDropOldestKeepsPartlyWrittenFrame: when the outbox is over its
// bound, drop-oldest skips a frame that is partly on the wire — dropping
// it would cut the peer's stream mid-frame — and drops the frames behind
// it, oldest first. A queued frame with nothing on the wire is dropped as
// the oldest.
func TestTCPDropOldestKeepsPartlyWrittenFrame(t *testing.T) {
	for _, partly := range []bool{true, false} {
		scheme := sigcrypto.NewHMAC(2, 96)
		tr, err := NewTCP(TCPConfig{
			Self: 0, N: 2, ListenAddr: "127.0.0.1:0",
			Signer: scheme.Signer(0), Verifier: scheme.Verifier(),
		})
		if err != nil {
			t.Fatal(err)
		}
		// Not started: nothing drains the outbox, and with no connection
		// every frame is queued.
		p := tr.peers[1]
		first, _ := tr.frame(seqPayload(0, 1<<10))
		p.enqueue(first)
		if partly {
			p.mu.Lock()
			p.sent = 100 // as if an inline attempt wrote 100 bytes
			p.mu.Unlock()
		}
		big, _ := tr.frame(make([]byte, 4<<20))
		const sent = maxPeerOutbox/(4<<20) + 3
		for i := 0; i < sent; i++ {
			p.enqueue(big)
		}
		p.mu.Lock()
		head, sentBytes, queued, n := p.box[0], p.sent, p.bytes, len(p.box)
		p.mu.Unlock()
		if queued > maxPeerOutbox {
			t.Fatalf("partly=%v: %d bytes queued, bound %d", partly, queued, maxPeerOutbox)
		}
		keptFirst := &head[0] == &first[0]
		if keptFirst != partly {
			t.Fatalf("partly=%v: oldest frame kept = %v", partly, keptFirst)
		}
		if partly && (sentBytes != 100 || n != 1+maxPeerOutbox/(4<<20)-1) {
			t.Fatalf("partly written head: %d bytes marked sent, %d frames queued", sentBytes, n)
		}
		if !partly && (sentBytes != 0 || n != maxPeerOutbox/(4<<20)) {
			t.Fatalf("unwritten head: %d bytes marked sent, %d frames queued", sentBytes, n)
		}
		_ = tr.Close()
	}
}

// TestTCPCloseWithStalledPeer: Close returns while the drain goroutine is
// blocked writing to a peer that stopped reading.
func TestTCPCloseWithStalledPeer(t *testing.T) {
	rp := listenRawPeer(t)
	tr := newSender(t, rp.ln.Addr().String(), nil)
	for i := 0; i < 16; i++ {
		if err := tr.Send(1, seqPayload(i, 1<<20)); err != nil {
			t.Fatal(err)
		}
	}
	rp.accept(t) // the drain's connection is up; its write cannot finish
	closed := make(chan struct{})
	go func() {
		_ = tr.Close()
		close(closed)
	}()
	select {
	case <-closed:
	case <-time.After(10 * time.Second):
		t.Fatal("Close still blocked 10 s after it was called, with a peer that does not read")
	}
}

// TestTCPConcurrentSendersKeepOrder: several goroutines send and broadcast
// at once, so the inline attempt and the drain goroutine share each link
// under contention; every frame arrives once, and each sender's frames
// arrive at every peer in the order it sent them.
func TestTCPConcurrentSendersKeepOrder(t *testing.T) {
	trs, cols, cleanup := buildTCPGroup(t, 3)
	defer cleanup()
	const senders, frames = 4, 300
	var wg sync.WaitGroup
	for s := 0; s < senders; s++ {
		wg.Add(1)
		go func(s int) {
			defer wg.Done()
			for i := 0; i < frames; i++ {
				payload := fmt.Sprintf("%d/%05d", s, i)
				var err error
				if i%3 == 0 {
					err = trs[0].Broadcast([]byte(payload))
				} else {
					err = trs[0].Send(types.ProcessID(1+i%2), []byte(payload))
				}
				if err != nil {
					t.Error(err)
					return
				}
			}
		}(s)
	}
	wg.Wait()
	// Frame i goes to both peers when i%3 == 0, otherwise to peer 1+i%2.
	want := [3]int{}
	for i := 0; i < frames; i++ {
		if i%3 == 0 {
			want[1]++
			want[2]++
		} else {
			want[1+i%2]++
		}
	}
	for peer := 1; peer <= 2; peer++ {
		waitCount(t, cols[peer], senders*want[peer])
		last := make([]int, senders)
		for s := range last {
			last[s] = -1
		}
		for _, m := range cols[peer].snapshot() {
			var s, i int
			if _, err := fmt.Sscanf(m, "%d/%d", &s, &i); err != nil {
				t.Fatalf("peer %d: frame %q: %v", peer, m, err)
			}
			if i <= last[s] {
				t.Fatalf("peer %d: sender %d's frame %d arrived after its frame %d", peer, s, i, last[s])
			}
			last[s] = i
		}
		if got := cols[peer].count(); got != senders*want[peer] {
			t.Fatalf("peer %d got %d frames, want %d", peer, got, senders*want[peer])
		}
	}
}
