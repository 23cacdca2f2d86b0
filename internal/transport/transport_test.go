package transport

import (
	"bufio"
	"bytes"
	"encoding/binary"
	"errors"
	"fmt"
	"net"
	"sync"
	"testing"
	"time"

	"repro/internal/obs"
	"repro/internal/sigcrypto"
	"repro/internal/types"
)

// collector accumulates deliveries for assertions.
type collector struct {
	mu    sync.Mutex
	msgs  []string
	froms []types.ProcessID
}

func (c *collector) handler() Handler {
	return func(from types.ProcessID, payload []byte) {
		c.mu.Lock()
		defer c.mu.Unlock()
		c.msgs = append(c.msgs, string(payload))
		c.froms = append(c.froms, from)
	}
}

func (c *collector) count() int {
	c.mu.Lock()
	defer c.mu.Unlock()
	return len(c.msgs)
}

func (c *collector) snapshot() []string {
	c.mu.Lock()
	defer c.mu.Unlock()
	out := make([]string, len(c.msgs))
	copy(out, c.msgs)
	return out
}

func waitCount(t *testing.T, c *collector, want int) {
	t.Helper()
	deadline := time.Now().Add(10 * time.Second)
	for time.Now().Before(deadline) {
		if c.count() >= want {
			return
		}
		time.Sleep(2 * time.Millisecond)
	}
	t.Fatalf("timeout: got %d deliveries, want %d", c.count(), want)
}

func TestMemNetworkDelivery(t *testing.T) {
	net := NewMemNetwork(3, 0)
	defer func() { _ = net.Close() }()
	var cols [3]collector
	for i := 0; i < 3; i++ {
		tr := net.Transport(types.ProcessID(i))
		tr.SetHandler(cols[i].handler())
		if err := tr.Start(); err != nil {
			t.Fatal(err)
		}
	}
	if err := net.Transport(0).Send(1, []byte("hello")); err != nil {
		t.Fatal(err)
	}
	if err := net.Transport(0).Broadcast([]byte("all")); err != nil {
		t.Fatal(err)
	}
	waitCount(t, &cols[1], 2)
	waitCount(t, &cols[2], 1)
	if cols[0].count() != 0 {
		t.Fatal("broadcast must not loop back to the sender")
	}
}

func TestMemNetworkFIFOPerSender(t *testing.T) {
	net := NewMemNetwork(2, 0)
	defer func() { _ = net.Close() }()
	var col collector
	dst := net.Transport(1)
	dst.SetHandler(col.handler())
	if err := dst.Start(); err != nil {
		t.Fatal(err)
	}
	src := net.Transport(0)
	src.SetHandler(func(types.ProcessID, []byte) {})
	if err := src.Start(); err != nil {
		t.Fatal(err)
	}
	const total = 200
	for i := 0; i < total; i++ {
		if err := src.Send(1, []byte(fmt.Sprintf("%04d", i))); err != nil {
			t.Fatal(err)
		}
	}
	waitCount(t, &col, total)
	for i, m := range col.snapshot() {
		if m != fmt.Sprintf("%04d", i) {
			t.Fatalf("out of order at %d: %s", i, m)
		}
	}
}

// buildTCPGroup starts n authenticated TCP endpoints on loopback.
func buildTCPGroup(t *testing.T, n int) ([]*TCPTransport, []*collector, func()) {
	t.Helper()
	scheme := sigcrypto.NewHMAC(n, 99)
	trs := make([]*TCPTransport, n)
	cols := make([]*collector, n)
	addrs := make([]string, n)
	for i := 0; i < n; i++ {
		pid := types.ProcessID(i)
		tr, err := NewTCP(TCPConfig{
			Self: pid, N: n, ListenAddr: "127.0.0.1:0",
			Signer: scheme.Signer(pid), Verifier: scheme.Verifier(),
			DialRetry: 10 * time.Millisecond,
		})
		if err != nil {
			t.Fatal(err)
		}
		trs[i] = tr
		addrs[i] = tr.Addr()
		cols[i] = &collector{}
	}
	for i, tr := range trs {
		if err := tr.SetPeers(addrs); err != nil {
			t.Fatal(err)
		}
		tr.SetHandler(cols[i].handler())
		if err := tr.Start(); err != nil {
			t.Fatal(err)
		}
	}
	cleanup := func() {
		for _, tr := range trs {
			_ = tr.Close()
		}
	}
	return trs, cols, cleanup
}

func TestTCPDeliveryAndBroadcast(t *testing.T) {
	trs, cols, cleanup := buildTCPGroup(t, 4)
	defer cleanup()
	if err := trs[0].Send(2, []byte("direct")); err != nil {
		t.Fatal(err)
	}
	if err := trs[1].Broadcast([]byte("fanout")); err != nil {
		t.Fatal(err)
	}
	waitCount(t, cols[2], 2)
	waitCount(t, cols[0], 1)
	waitCount(t, cols[3], 1)
	if cols[1].count() != 0 {
		t.Fatal("broadcast must not loop back")
	}
}

func TestTCPFIFOPerSender(t *testing.T) {
	trs, cols, cleanup := buildTCPGroup(t, 2)
	defer cleanup()
	const total = 500
	for i := 0; i < total; i++ {
		if err := trs[0].Send(1, []byte(fmt.Sprintf("%05d", i))); err != nil {
			t.Fatal(err)
		}
	}
	waitCount(t, cols[1], total)
	for i, m := range cols[1].snapshot() {
		if m != fmt.Sprintf("%05d", i) {
			t.Fatalf("out of order at %d: %s", i, m)
		}
	}
}

func TestTCPRejectsOversizedPayload(t *testing.T) {
	trs, _, cleanup := buildTCPGroup(t, 2)
	defer cleanup()
	if err := trs[0].Send(1, make([]byte, MaxFrame+1)); err == nil {
		t.Fatal("expected error for oversized payload")
	}
}

func TestTCPSendAfterCloseFails(t *testing.T) {
	trs, _, cleanup := buildTCPGroup(t, 2)
	cleanup()
	if err := trs[0].Send(1, []byte("late")); err == nil {
		t.Fatal("expected error after close")
	}
}

// TestTCPOutboxIsBounded: frames for a peer whose address never accepts are
// queued only up to maxPeerOutbox bytes; past it the oldest are dropped and
// counted, the newest kept.
func TestTCPOutboxIsBounded(t *testing.T) {
	// An address nobody listens on: bound once, then released.
	hole, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	dead := hole.Addr().String()
	_ = hole.Close()

	scheme := sigcrypto.NewHMAC(2, 98)
	reg := obs.NewRegistry()
	tr, err := NewTCP(TCPConfig{
		Self: 0, N: 2, ListenAddr: "127.0.0.1:0",
		Signer: scheme.Signer(0), Verifier: scheme.Verifier(),
		DialRetry: 10 * time.Millisecond, Metrics: reg,
	})
	if err != nil {
		t.Fatal(err)
	}
	defer func() { _ = tr.Close() }()
	if err := tr.SetPeers([]string{tr.Addr(), dead}); err != nil {
		t.Fatal(err)
	}
	tr.SetHandler(func(types.ProcessID, []byte) {})
	if err := tr.Start(); err != nil {
		t.Fatal(err)
	}

	const frame = 4 << 20
	const frames = maxPeerOutbox/frame + 4
	payload := make([]byte, frame)
	for i := 0; i < frames; i++ {
		payload[0] = byte(i)
		if err := tr.Send(1, payload); err != nil {
			t.Fatal(err)
		}
	}
	p := tr.peers[1]
	p.mu.Lock()
	// Each queued frame carries its length prefix; the index follows it.
	queued, oldest, newest := p.bytes, p.box[0][frameHeader], p.box[len(p.box)-1][frameHeader]
	p.mu.Unlock()
	if queued > maxPeerOutbox {
		t.Fatalf("%d bytes queued for the dead peer, bound is %d", queued, maxPeerOutbox)
	}
	if newest != frames-1 || oldest == 0 {
		t.Fatalf("queue holds frames %d..%d of 0..%d, want the oldest dropped and the newest kept", oldest, newest, frames-1)
	}
	// The sender goroutine may hold one more frame (the one it is dialing for).
	dropped, _ := reg.Snapshot().Value("fastbft_transport_outbox_dropped_total", obs.Labels{"peer": "1"})
	if want := float64(frames - maxPeerOutbox/frame); dropped != want && dropped != want-1 {
		t.Fatalf("dropped counter %v after %d frames of %d bytes, want %v or %v", dropped, frames, frame, want-1, want)
	}
}

// writeCounter counts Write calls and keeps what they wrote.
type writeCounter struct {
	calls int
	buf   bytes.Buffer
}

func (w *writeCounter) Write(p []byte) (int, error) {
	w.calls++
	return w.buf.Write(p)
}

// TestFrameIsOneWrite: writeFrame (the handshake and client-channel writer)
// emits prefix and payload in a single Write from a pooled buffer, and the
// buffered peer reader takes the frame back whole.
func TestFrameIsOneWrite(t *testing.T) {
	payload := []byte("one frame, one write")
	var w writeCounter
	if err := writeFrame(&w, payload); err != nil {
		t.Fatal(err)
	}
	if w.calls != 1 || w.buf.Len() != frameHeader+len(payload) {
		t.Fatalf("%d writes of %d bytes for a %d-byte payload, want 1 of %d", w.calls, w.buf.Len(), len(payload), frameHeader+len(payload))
	}
	got, err := readFrame(bufio.NewReader(&w.buf), MaxFrame)
	if err != nil || !bytes.Equal(got, payload) {
		t.Fatalf("read back %q, %v", got, err)
	}
	if allocs := testing.AllocsPerRun(100, func() {
		w.buf.Reset()
		_ = writeFrame(&w, payload)
	}); allocs != 0 {
		t.Fatalf("writeFrame made %v allocations per frame, want 0", allocs)
	}
}

// TestReadFrameRejectsOversizeHeader: a frame whose length prefix is over
// its channel's limit — MaxFrame for a peer, MaxClientFrame for a client —
// is refused on its four bytes, before any allocation.
func TestReadFrameRejectsOversizeHeader(t *testing.T) {
	for _, limit := range []uint32{MaxFrame, MaxClientFrame} {
		hdr := binary.BigEndian.AppendUint32(nil, limit+1)
		src := bytes.NewReader(hdr)
		br := bufio.NewReader(src)
		var err error
		allocs := testing.AllocsPerRun(100, func() {
			src.Reset(hdr)
			br.Reset(src)
			_, err = readFrame(br, limit)
		})
		if !errors.Is(err, ErrFrameTooLarge) {
			t.Fatalf("limit %d: oversize prefix read as %v, want ErrFrameTooLarge", limit, err)
		}
		if allocs != 0 {
			t.Fatalf("limit %d: %v allocations to refuse an oversize prefix, want 0", limit, allocs)
		}
	}
}
