package sim

import (
	"fmt"
	"reflect"
	"testing"
	"time"

	"repro/internal/msg"
	"repro/internal/types"
)

// TestRunIsResumable steps one network repeatedly. The first Run's limit
// falls between a send and its delivery: the message must stay queued (the
// old loop popped and discarded it), arrive exactly once when a later Run
// reaches it, OnStart must not run again on resume (the old loop re-ran it
// every call), and two timers armed by one process must both fire, in
// deadline order (the old per-process deadline slot kept only the latest).
func TestRunIsResumable(t *testing.T) {
	const delta = 10 * time.Millisecond
	net := NewNetwork(2, WithDelta(delta))
	starts, got := 0, 0
	var fired []string
	net.SetNode(0, &FuncNode{
		Start: func(e *Env) {
			starts++
			e.Send(1, &msg.Wish{View: 7})
			clock := e.net.Clock(0)
			clock.AfterFunc(8*time.Millisecond, func() { fired = append(fired, "late") })
			clock.AfterFunc(3*time.Millisecond, func() { fired = append(fired, "early") })
			e.SetTimer(12 * time.Millisecond)
		},
		Timer: func(e *Env) { fired = append(fired, fmt.Sprintf("env@%v", e.Now)) },
	})
	net.SetNode(1, &FuncNode{
		Msg: func(from types.ProcessID, m msg.Message, _ *Env) {
			if w, ok := m.(*msg.Wish); ok && from == 0 && w.View == 7 {
				got++
			}
		},
	})

	res, err := net.Run(5*time.Millisecond, nil)
	if err != nil {
		t.Fatal(err)
	}
	if res.Elapsed != 5*time.Millisecond || got != 0 {
		t.Fatalf("first run stopped at %v with %d deliveries, want 5ms and none", res.Elapsed, got)
	}
	if want := []string{"early"}; !reflect.DeepEqual(fired, want) {
		t.Fatalf("timers fired by 5ms: %v, want %v", fired, want)
	}

	if _, err := net.Run(time.Second, nil); err != nil {
		t.Fatal(err)
	}
	if got != 1 {
		t.Fatalf("message delivered %d times across the resumed run, want exactly once", got)
	}
	if starts != 1 {
		t.Fatalf("OnStart ran %d times across two runs, want once", starts)
	}
	if want := []string{"early", "late", "env@12ms"}; !reflect.DeepEqual(fired, want) {
		t.Fatalf("timers fired %v, want %v", fired, want)
	}
	if now := net.Now(); now != 12*time.Millisecond {
		t.Fatalf("drained network stopped at %v, want the last event's 12ms", now)
	}
}

// TestStoppedTimerNeverFires: Stop reports whether it prevented the fire,
// and a stopped timer stays silent however far time advances.
func TestStoppedTimerNeverFires(t *testing.T) {
	net := NewNetwork(1)
	fired := 0
	clock := net.Clock(0)
	tm := clock.AfterFunc(time.Millisecond, func() { fired++ })
	if !tm.Stop() {
		t.Fatal("Stop on an armed timer reported false")
	}
	if tm.Stop() {
		t.Fatal("second Stop reported true")
	}
	done := clock.AfterFunc(time.Millisecond, func() { fired++ })
	net.Advance(time.Second)
	if fired != 1 {
		t.Fatalf("%d fires, want only the unstopped timer's", fired)
	}
	if done.Stop() {
		t.Fatal("Stop after the fire reported true")
	}
	if got := clock.Now().Sub(clockEpoch); got != time.Second {
		t.Fatalf("clock reads %v after advancing 1s", got)
	}
}
