package sim

import (
	"fmt"
	"reflect"
	"testing"
	"time"

	"repro/internal/core"
	"repro/internal/msg"
	"repro/internal/sigcrypto"
	"repro/internal/types"
)

// script is a machine built from closures; a nil one ignores the input.
type script struct {
	id      types.ProcessID
	init    func(now Time) []core.Action
	deliver func(from types.ProcessID, m msg.Message, now Time) []core.Action
	tick    func(now Time) []core.Action
}

func (s *script) ID() types.ProcessID { return s.id }

func (s *script) Init(now Time) []core.Action {
	if s.init == nil {
		return nil
	}
	return s.init(now)
}

func (s *script) Deliver(from types.ProcessID, m msg.Message, now Time) []core.Action {
	if s.deliver == nil {
		return nil
	}
	return s.deliver(from, m, now)
}

func (s *script) Tick(now Time) []core.Action {
	if s.tick == nil {
		return nil
	}
	return s.tick(now)
}

// TestRunIsResumable steps one cluster repeatedly. The first Run's limit
// falls between a send and its delivery: the message must stay queued (the
// old loop popped and discarded it), arrive exactly once when a later Run
// reaches it, Init must not run again on resume (the old loop re-ran it
// every call), and two clock timers armed by one process must both fire, in
// deadline order, alongside the machine's own timer (the old per-process
// deadline slot kept only the latest).
func TestRunIsResumable(t *testing.T) {
	const delta = 10 * time.Millisecond
	starts, got := 0, 0
	var fired []string
	machines := []core.Machine{
		&script{
			id: 0,
			init: func(Time) []core.Action {
				starts++
				return []core.Action{
					core.SendAction{To: 1, Msg: &msg.Wish{View: 7}},
					core.TimerAction{Deadline: 12 * time.Millisecond},
				}
			},
			tick: func(now Time) []core.Action {
				fired = append(fired, fmt.Sprintf("tick@%v", now))
				return nil
			},
		},
		&script{
			id: 1,
			deliver: func(from types.ProcessID, m msg.Message, _ Time) []core.Action {
				if w, ok := m.(*msg.Wish); ok && from == 0 && w.View == 7 {
					got++
				}
				return nil
			},
		},
	}
	c, err := NewCluster(ClusterConfig{
		Cfg:   types.Config{N: 2},
		Delta: delta,
		Machine: func(p types.ProcessID, _ sigcrypto.Scheme) (core.Machine, error) {
			return machines[p], nil
		},
	})
	if err != nil {
		t.Fatal(err)
	}
	clock := c.Net.Clock(0)
	clock.AfterFunc(8*time.Millisecond, func() { fired = append(fired, "late") })
	clock.AfterFunc(3*time.Millisecond, func() { fired = append(fired, "early") })

	res, err := c.Run(5 * time.Millisecond)
	if err != nil {
		t.Fatal(err)
	}
	if res.Elapsed != 5*time.Millisecond || got != 0 {
		t.Fatalf("first run stopped at %v with %d deliveries, want 5ms and none", res.Elapsed, got)
	}
	if want := []string{"early"}; !reflect.DeepEqual(fired, want) {
		t.Fatalf("timers fired by 5ms: %v, want %v", fired, want)
	}

	if _, err := c.Run(time.Second); err != nil {
		t.Fatal(err)
	}
	if got != 1 {
		t.Fatalf("message delivered %d times across the resumed run, want exactly once", got)
	}
	if starts != 1 {
		t.Fatalf("Init ran %d times across two runs, want once", starts)
	}
	if want := []string{"early", "late", "tick@12ms"}; !reflect.DeepEqual(fired, want) {
		t.Fatalf("timers fired %v, want %v", fired, want)
	}
	if now := c.Net.Now(); now != 12*time.Millisecond {
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
