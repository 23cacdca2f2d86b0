package node

import "time"

// Clock is the one time source of everything above a core.Machine: the
// Runner and the SMR replica (internal/smr) read the current instant and arm
// their timers through it and nowhere else. Deployments run on Wall; tests on
// a sim.Network's virtual clock, which moves only when the test advances it.
type Clock interface {
	Now() time.Time
	// AfterFunc calls f once d has elapsed — on its own goroutine, or from
	// the simulator's event loop — unless the timer is stopped first. What f
	// causes in a Runner or replica, user callbacks included, runs there too.
	AfterFunc(d time.Duration, f func()) Timer
}

// Timer is the stop handle of an armed AfterFunc; Stop reports whether it
// prevented the fire, like (*time.Timer).Stop.
type Timer interface {
	Stop() bool
}

// Wall is the wall clock — the only place the consensus stack touches package
// time's clock. AfterFunc hands back the *time.Timer itself, so the
// indirection allocates nothing.
var Wall Clock = wallClock{}

type wallClock struct{}

func (wallClock) Now() time.Time { return time.Now() }

func (wallClock) AfterFunc(d time.Duration, f func()) Timer { return time.AfterFunc(d, f) }
