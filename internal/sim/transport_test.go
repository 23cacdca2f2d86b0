package sim

import (
	"fmt"
	"reflect"
	"testing"
	"time"

	"repro/internal/transport"
	"repro/internal/types"
)

// recorder starts endpoint p of net and logs what it receives as "from:payload".
func recorder(t *testing.T, net *Network, p types.ProcessID, log *[]string) transport.Transport {
	t.Helper()
	tr := net.Transport(p)
	tr.SetHandler(func(from types.ProcessID, payload []byte) {
		*log = append(*log, fmt.Sprintf("p%d:%s", int(from), payload))
	})
	if err := tr.Start(); err != nil {
		t.Fatal(err)
	}
	return tr
}

// TestLockstepIsSendOrder: with zero delay the (time, seq) heap is a global
// FIFO — handlers that answer at the same instant queue behind everything
// already sent — and Settle runs to quiescence without time moving.
func TestLockstepIsSendOrder(t *testing.T) {
	net := NewNetwork(3, WithDelta(0))
	var log []string
	a := recorder(t, net, 0, &log)
	b := recorder(t, net, 1, &log)
	c := net.Transport(2)
	c.SetHandler(func(from types.ProcessID, payload []byte) {
		log = append(log, fmt.Sprintf("p%d:%s", int(from), payload))
		if string(payload) == "ping" {
			_ = c.Send(from, []byte("pong"))
		}
	})
	if err := c.Start(); err != nil {
		t.Fatal(err)
	}
	_ = a.Send(2, []byte("ping"))
	_ = b.Send(0, []byte("x"))
	_ = a.Send(1, []byte("y"))
	if n := net.Settle(); n != 4 {
		t.Fatalf("Settle processed %d events, want 4", n)
	}
	if want := []string{"p0:ping", "p1:x", "p0:y", "p2:pong"}; !reflect.DeepEqual(log, want) {
		t.Fatalf("delivery order %v, want send order %v", log, want)
	}
	if net.Now() != 0 {
		t.Fatalf("Settle moved time to %v", net.Now())
	}
	if err := a.Send(9, nil); err != transport.ErrUnknownPeer {
		t.Fatalf("send to an unknown peer: %v", err)
	}
}

// TestPayloadFuncHoldDropDelay: one predicate rules on every send — and
// sees every send, which makes it the tap. Held payloads come back in send
// order on Release; a delayed payload arrives exactly when due.
func TestPayloadFuncHoldDropDelay(t *testing.T) {
	net := NewNetwork(2, WithDelta(0))
	var log, seen []string
	a := recorder(t, net, 0, &log)
	recorder(t, net, 1, &log)
	net.SetPayloadFunc(func(from, to types.ProcessID, payload []byte, now Time) Fate {
		seen = append(seen, string(payload))
		switch payload[0] {
		case 'h':
			return Fate{Hold: true}
		case 'd':
			return Fate{Drop: true}
		case 's':
			return Fate{Delay: 5 * time.Millisecond}
		}
		return Fate{}
	})
	for _, p := range []string{"h1", "d", "s", "now", "h2"} {
		_ = a.Send(1, []byte(p))
	}
	net.Settle()
	if want := []string{"p0:now"}; !reflect.DeepEqual(log, want) {
		t.Fatalf("delivered %v at the send instant, want %v", log, want)
	}
	net.Advance(5*time.Millisecond - 1)
	if len(log) != 1 {
		t.Fatalf("delayed payload arrived early: %v", log)
	}
	net.Advance(1)
	net.SetPayloadFunc(nil)
	if n := net.Release(); n != 2 {
		t.Fatalf("Release returned %d, want 2", n)
	}
	net.Settle()
	if want := []string{"p0:now", "p0:s", "p0:h1", "p0:h2"}; !reflect.DeepEqual(log, want) {
		t.Fatalf("delivered %v, want %v", log, want)
	}
	if want := []string{"h1", "d", "s", "now", "h2"}; !reflect.DeepEqual(seen, want) {
		t.Fatalf("the predicate saw %v, want every send %v", seen, want)
	}
}

// TestCrashRestartInbox: a crash discards what was addressed to the process
// (queued, held, or timers) but not what it already sent; while it is down
// nothing reaches it or leaves it; Restart hands out a fresh endpoint with an
// empty inbox and silences the old one.
func TestCrashRestartInbox(t *testing.T) {
	net := NewNetwork(2, WithDelta(time.Millisecond))
	var log []string
	a := recorder(t, net, 0, &log)
	old := recorder(t, net, 1, &log)
	timerFired := false
	net.Clock(1).AfterFunc(time.Millisecond, func() { timerFired = true })

	_ = a.Send(1, []byte("lost-in-inbox"))
	_ = old.Send(0, []byte("sent-before-crash"))
	net.Crash(1)
	_ = a.Send(1, []byte("lost-while-down"))
	_ = old.Send(0, []byte("never-sent"))
	net.Advance(10 * time.Millisecond)
	if want := []string{"p1:sent-before-crash"}; !reflect.DeepEqual(log, want) {
		t.Fatalf("delivered %v, want %v", log, want)
	}
	if timerFired {
		t.Fatal("a crashed process's timer fired")
	}

	fresh := net.Restart(1)
	var freshLog []string
	fresh.SetHandler(func(from types.ProcessID, payload []byte) { freshLog = append(freshLog, string(payload)) })
	if err := fresh.Start(); err != nil {
		t.Fatal(err)
	}
	if err := old.Send(0, []byte("ghost")); err != transport.ErrClosed {
		t.Fatalf("the previous incarnation's send: %v, want ErrClosed", err)
	}
	_ = a.Send(1, []byte("hello-again"))
	net.Advance(10 * time.Millisecond)
	if want := []string{"hello-again"}; !reflect.DeepEqual(freshLog, want) {
		t.Fatalf("restarted endpoint received %v, want %v", freshLog, want)
	}
}

// TestSeededDelayReplays: the same seed yields the same delivery trace, a
// different seed a different one, and payloads do overtake each other.
func TestSeededDelayReplays(t *testing.T) {
	run := func(seed int64) []string {
		var trace []string
		net := NewNetwork(2, WithTrace(func(ev TraceEvent) {
			trace = append(trace, fmt.Sprintf("%v %s", ev.Time, ev.Payload))
		}))
		net.SetPayloadFunc(SeededDelay(seed, 10*time.Millisecond))
		var sink []string
		a := recorder(t, net, 0, &sink)
		recorder(t, net, 1, &sink)
		for i := 0; i < 20; i++ {
			_ = a.Send(1, []byte(fmt.Sprintf("m%02d", i)))
		}
		net.Advance(time.Second)
		if len(trace) != 20 {
			t.Fatalf("seed %d: %d deliveries, want 20", seed, len(trace))
		}
		return trace
	}
	first := run(7)
	if again := run(7); !reflect.DeepEqual(first, again) {
		t.Fatalf("seed 7 did not replay:\n%v\n%v", first, again)
	}
	if other := run(8); reflect.DeepEqual(first, other) {
		t.Fatal("seeds 7 and 8 produced the same schedule")
	}
	inOrder := true
	for i, line := range first {
		if line[len(line)-3:] != fmt.Sprintf("m%02d", i) {
			inOrder = false
		}
	}
	if inOrder {
		t.Fatalf("no payload overtook another under seeded delays: %v", first)
	}
}
