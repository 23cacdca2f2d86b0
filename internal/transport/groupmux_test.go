package transport

import (
	"testing"

	"repro/internal/types"
)

// TestGroupMuxRoutesWithoutRewriting: the mux is a router, not a framing
// layer. A frame sent through a view reaches a raw transport bit-identical;
// an inbound frame is handed to the view its leading uvarint names with the
// prefix intact; and a frame whose prefix is out of range or malformed is
// dropped.
func TestGroupMuxRoutesWithoutRewriting(t *testing.T) {
	net := NewMemNetwork(2, 0)
	defer func() { _ = net.Close() }()

	// Process 0 sits behind a two-group mux, process 1 on the raw transport.
	const groups = 2
	mux := NewGroupMux(net.Transport(0), groups)
	var views [groups]collector
	for g := 0; g < groups; g++ {
		v := mux.View(g)
		v.SetHandler(views[g].handler())
		if err := v.Start(); err != nil {
			t.Fatal(err)
		}
	}
	var raw collector
	peer := net.Transport(1)
	peer.SetHandler(raw.handler())
	if err := peer.Start(); err != nil {
		t.Fatal(err)
	}

	// Outbound: what the view is given is what the wire carries.
	out := "\x01\x07frame-of-group-1"
	if err := mux.View(1).Send(1, []byte(out)); err != nil {
		t.Fatal(err)
	}
	waitCount(t, &raw, 1)
	if got := raw.snapshot()[0]; got != out {
		t.Fatalf("raw peer received %q, want the frame untouched %q", got, out)
	}

	// Inbound: dropped frames first, then one good frame per group — the
	// channel is FIFO, so once the good ones arrived the bad ones were seen,
	// and a misrouted one would sit ahead of them in a view's log.
	for _, bad := range []string{
		"\x02payload",             // group 2 of 2
		"\xff\xff\xff\x7fpayload", // far out of range
		"\x80",                    // truncated uvarint
		"\x80\x80\x80\x80\x80\x80\x80\x80\x80\x80\x80\x01", // overlong uvarint
		"",
	} {
		if err := peer.Send(0, []byte(bad)); err != nil {
			t.Fatal(err)
		}
	}
	in0, in1 := "\x00\x05to-group-0", "\x01\x05to-group-1"
	for _, f := range []string{in0, in1} {
		if err := peer.Send(0, []byte(f)); err != nil {
			t.Fatal(err)
		}
	}
	waitCount(t, &views[0], 1)
	waitCount(t, &views[1], 1)
	if got := views[0].snapshot(); len(got) != 1 || got[0] != in0 {
		t.Fatalf("view 0 received %q, want exactly %q", got, in0)
	}
	if got := views[1].snapshot(); len(got) != 1 || got[0] != in1 {
		t.Fatalf("view 1 received %q, want exactly %q", got, in1)
	}
	if views[1].froms[0] != types.ProcessID(1) {
		t.Fatalf("sender = %s, want p1", views[1].froms[0])
	}
}
