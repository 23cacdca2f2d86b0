//go:build unix

package transport

import (
	"testing"

	"repro/internal/obs"
)

// TestTCPIdleLinkWritesInline: on an idle link a frame is written by the
// sender's own attempt, counted under path="inline"; a frame queued before
// the connection is up is written by the drain goroutine. The two paths
// add up to the frames written.
func TestTCPIdleLinkWritesInline(t *testing.T) {
	rp := listenRawPeer(t)
	reg := obs.NewRegistry()
	tr := newSender(t, rp.ln.Addr().String(), reg)
	writes := func(path string) float64 {
		v, _ := reg.Snapshot().Value("fastbft_transport_writes_total", obs.Labels{"peer": "1", "path": path})
		return v
	}

	if err := tr.Send(1, seqPayload(0, 64)); err != nil { // queued: no connection yet
		t.Fatal(err)
	}
	rp.accept(t)
	rp.expect(t, 0, 64)
	waitIdle(t, tr)
	if in, dr := writes("inline"), writes("drain"); in != 0 || dr != 1 {
		t.Fatalf("first frame: inline %v, drain %v; want 0 and 1", in, dr)
	}

	if err := tr.Send(1, seqPayload(1, 64)); err != nil {
		t.Fatal(err)
	}
	if in := writes("inline"); in != 1 {
		t.Fatalf("a frame on an idle link: %v inline writes, want 1", in)
	}
	rp.expect(t, 1, 64)

	const frames = 200
	for i := 2; i < frames; i++ {
		if err := tr.Send(1, seqPayload(i, 64)); err != nil {
			t.Fatal(err)
		}
	}
	for i := 2; i < frames; i++ {
		rp.expect(t, i, 64)
	}
	waitIdle(t, tr)
	in, dr := writes("inline"), writes("drain")
	if in+dr != frames {
		t.Fatalf("inline %v + drain %v writes, want %d frames", in, dr, frames)
	}
	t.Logf("%v of %d frames inline", in, frames)
}
