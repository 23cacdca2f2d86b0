// Package node is the one runtime of a deterministic protocol state machine
// (core.Machine) over a transport: it translates a Clock's time (clock.go:
// Wall in a deployment, a sim.Network's virtual clock in tests and
// experiments) into the machine's virtual time and TimerActions into clock
// timers. One Runner hosts one consensus instance — the paper's protocol, a
// baseline or an adversary, over TCP, an in-memory network or the simulator
// (sim.Cluster); the SMR layer (internal/smr) multiplexes many over one
// transport, takes its time from the same Clock and, like the Runner, hands
// its user callbacks out through an Outbox (outbox.go).
package node

import (
	"time"

	"repro/internal/core"
	"repro/internal/msg"
	"repro/internal/transport"
	"repro/internal/types"
)

// DecideFunc is invoked (once) when the machine decides, under the Outbox
// contract: after the Runner's lock is released, on the goroutine that
// released it; it may call back into the Runner and must not block.
type DecideFunc func(d types.Decision)

// Runner hosts one Machine on one Transport.
type Runner struct {
	clock   Clock
	machine core.Machine
	tr      transport.Transport
	decide  DecideFunc
	start   time.Time

	mu      Outbox // the machine lock; the decide callback leaves through it
	started bool
	closed  bool
	timer   Timer
}

// NewRunner wires machine to tr on the given clock. decide may be nil.
func NewRunner(clock Clock, machine core.Machine, tr transport.Transport, decide DecideFunc) *Runner {
	return &Runner{
		clock:   clock,
		machine: machine,
		tr:      tr,
		decide:  decide,
	}
}

// Start installs the delivery handler, starts the transport, and
// initializes the machine.
func (r *Runner) Start() error {
	r.mu.Lock()
	defer r.mu.Unlock()
	if r.started || r.closed {
		return transport.ErrClosed
	}
	r.started = true
	r.start = r.clock.Now()
	r.tr.SetHandler(r.onPayload)
	if err := r.tr.Start(); err != nil {
		return err
	}
	r.apply(r.machine.Init(r.now()))
	return nil
}

// Close stops the runner; the transport is closed as well. No callback runs
// after it returns.
func (r *Runner) Close() error {
	r.mu.Lock()
	if r.closed {
		r.mu.Unlock()
		return nil
	}
	r.closed = true
	if r.timer != nil {
		r.timer.Stop()
	}
	r.mu.Drain()
	return r.tr.Close()
}

// now converts clock time to machine time (duration since Start).
func (r *Runner) now() core.Time {
	return r.clock.Now().Sub(r.start)
}

// onPayload decodes and delivers one payload under the machine lock.
func (r *Runner) onPayload(from types.ProcessID, payload []byte) {
	m, err := msg.Decode(payload)
	if err != nil {
		return // malformed: drop, as the model prescribes
	}
	r.mu.Lock()
	defer r.mu.Unlock()
	if r.closed {
		return
	}
	r.apply(r.machine.Deliver(from, m, r.now()))
}

// onTimer fires the machine's timer.
func (r *Runner) onTimer() {
	r.mu.Lock()
	defer r.mu.Unlock()
	if r.closed {
		return
	}
	r.apply(r.machine.Tick(r.now()))
}

// apply executes machine actions; the caller holds r.mu.
func (r *Runner) apply(actions []core.Action) {
	for _, a := range actions {
		switch act := a.(type) {
		case core.SendAction:
			payload := msg.Encode(act.Msg)
			if payload == nil {
				continue
			}
			_ = r.tr.Send(act.To, payload)
		case core.BroadcastAction:
			payload := msg.Encode(act.Msg)
			if payload == nil {
				continue
			}
			_ = r.tr.Broadcast(payload)
		case core.TimerAction:
			r.armTimer(act.Deadline)
		case core.DecideAction:
			if r.decide != nil {
				d := act.Decision
				r.mu.Post(func() { r.decide(d) })
			}
		}
	}
}

// armTimer (re)schedules the single machine timer: the new deadline replaces
// the pending one, and one already past fires at once. The caller holds r.mu.
func (r *Runner) armTimer(deadline core.Time) {
	delay := deadline - r.now()
	if delay < 0 {
		delay = 0
	}
	if r.timer != nil {
		r.timer.Stop()
	}
	r.timer = r.clock.AfterFunc(delay, r.onTimer)
}
