// Package sim is the deterministic discrete-event network simulator used by
// every experiment and by every multi-replica test. It models the partially
// synchronous system of Section 2.1: reliable authenticated point-to-point
// channels, a message-delay bound Δ that holds after GST, and up to f
// Byzantine processes realized as arbitrary state machines.
//
// There is one simulator, with one event heap, and one way to occupy a
// process slot of it: a payload-level endpoint (Transport, Clock; see
// transport.go). Whatever runs on it runs there unmodified and in virtual
// time — a single consensus instance's core.Machine hosted by a node.Runner
// (Cluster, cluster.go), a whole SMR replica, an adversarial replica driver.
// The simulator never decodes a payload; Cluster does, for its message-level
// fates, traces and statistics.
//
// Determinism is the point: events are processed in (time, sequence) order
// and all randomness comes from seeds, so a schedule that demonstrates a
// property (a two-step decision, a view change, a lower-bound disagreement)
// reproduces exactly. Latency is measured in Δ units — the paper's "message
// delays".
//
// Time moves only when the caller steps the network: Run (until a condition
// or a virtual-time limit, resumable), Settle (until nothing is due at the
// current instant) and Advance (by a duration). Under WithDelta(0) every
// send is due the instant it is made and the sequence tie-break makes the
// heap a global FIFO — the lockstep schedule of the scripted scenarios, on
// which no timer fires unless the test advances the clock to it. One
// predicate shapes payload traffic (SetPayloadFunc: delay, drop, hold, and —
// seeing every send — tap); with SeededDelay the same seed replays the same
// schedule delivery for delivery (WithTrace observes them), so a test that
// fails under a seed prints it (see internal/smr's TestSeededScheduleSmoke).
package sim

import (
	"container/heap"
	"fmt"
	"math"
	"sync"
	"time"

	"repro/internal/core"
	"repro/internal/transport"
	"repro/internal/types"
)

// DefaultDelta is the message-delay bound used when the caller passes 0.
const DefaultDelta = 10 * time.Millisecond

// Time is virtual time since the start of the execution.
type Time = core.Time

// TraceFunc observes every delivery that reaches a transport handler, for
// experiments that need message counts or sizes and for replay tests that
// compare two runs' delivery order.
type TraceFunc func(ev TraceEvent)

// TraceEvent describes one delivery.
type TraceEvent struct {
	Time    Time
	From    types.ProcessID
	To      types.ProcessID
	Payload []byte
}

// Network is the simulator instance. One goroutine steps it (Run, Settle,
// Advance) and every callback runs on that goroutine, outside the network's
// lock. Other goroutines may use only what an endpoint and a clock offer —
// Send, AfterFunc, Stop, Now — which is how a durable replica's storage
// goroutines release gated sends into the simulation.
type Network struct {
	n     int
	delta Time
	trace TraceFunc

	// mu guards everything below; it is never held across a callback.
	mu      sync.Mutex
	eps     []*endpoint // created by Transport
	crashed []bool
	life    []uint64 // incarnation of each process; Restart starts a new one
	queue   eventQueue
	seq     uint64
	now     Time
	fate    PayloadFunc
	held    []event
}

// Option configures a Network.
type Option func(*Network)

// WithDelta sets the synchronous message-delay bound Δ: the delay of every
// send no PayloadFunc rules on (0 is the lockstep network).
func WithDelta(d Time) Option {
	return func(n *Network) { n.delta = d }
}

// WithTrace installs a delivery observer.
func WithTrace(f TraceFunc) Option {
	return func(n *Network) { n.trace = f }
}

// NewNetwork creates a simulator for n processes.
func NewNetwork(n int, opts ...Option) *Network {
	net := &Network{
		n:       n,
		delta:   DefaultDelta,
		eps:     make([]*endpoint, n),
		crashed: make([]bool, n),
		life:    make([]uint64, n),
	}
	for _, o := range opts {
		o(net)
	}
	return net
}

// Now returns the current virtual time.
func (net *Network) Now() Time {
	net.mu.Lock()
	defer net.mu.Unlock()
	return net.now
}

// Crash silences process p from time now on: pending and future events for
// p — deliveries and timers alike — are discarded, and nothing it sends
// from now on exists; what it sent before stays in flight. It models
// fail-stop behaviour (a special case of Byzantine behaviour, Section 2.1).
func (net *Network) Crash(p types.ProcessID) {
	net.mu.Lock()
	defer net.mu.Unlock()
	net.crashed[p] = true
}

// CrashAt schedules Crash(p) for a later virtual time, ahead of anything else
// due then — the T-faulty two-step executions of Section 4.1, whose Byzantine
// processes follow the protocol for the first round and then stop.
func (net *Network) CrashAt(p types.ProcessID, at Time) {
	net.mu.Lock()
	defer net.mu.Unlock()
	net.armLocked(p, at, func() { net.Crash(p) })
}

// armLocked queues a timer of process p that calls fn at virtual time at.
func (net *Network) armLocked(p types.ProcessID, at Time, fn func()) *timer {
	t := &timer{net: net, fn: fn}
	net.push(event{at: at, to: p, tm: t})
	return t
}

// RunResult summarizes a completed run.
type RunResult struct {
	// Elapsed is the virtual time at which the run stopped.
	Elapsed Time
	// Events is the number of events processed.
	Events int
}

// Run processes events until the queue drains, until limit virtual time
// passes (0 means no limit), or until stop returns true (nil means run to
// completion). It returns a summary. Run is resumable: an event beyond the
// limit stays queued, and a later call picks up where this one stopped.
func (net *Network) Run(limit Time, stop func() bool) (RunResult, error) {
	net.mu.Lock()
	for p, ep := range net.eps {
		if ep == nil {
			net.mu.Unlock()
			return RunResult{}, fmt.Errorf("sim: process %s has no endpoint", types.ProcessID(p))
		}
	}
	net.mu.Unlock()
	if limit <= 0 {
		limit = math.MaxInt64
	}
	events := net.runTo(limit, stop)
	return RunResult{Elapsed: net.Now(), Events: events}, nil
}

// Settle runs until nothing is due at the current instant and returns the
// number of events processed; time does not move. On a lockstep network that
// is quiescence, reached without letting a single timer fire.
func (net *Network) Settle() int {
	return net.runTo(net.Now(), nil)
}

// Advance moves virtual time forward by d, processing everything due on the
// way (timers included) in order.
func (net *Network) Advance(d Time) {
	target := net.Now() + d
	net.runTo(target, nil)
	net.mu.Lock()
	net.now = target
	net.mu.Unlock()
}

// runTo is the one event loop: it processes events due at or before limit
// until none is left or stop holds, and returns how many. If the next event
// lies beyond a finite limit, time moves to it.
func (net *Network) runTo(limit Time, stop func() bool) int {
	events := 0
	for net.step(limit) {
		events++
		if stop != nil && stop() {
			return events
		}
	}
	net.mu.Lock()
	if len(net.queue) > 0 && net.now < limit {
		net.now = limit
	}
	net.mu.Unlock()
	return events
}

// step consumes the earliest event if it is due at or before limit and
// reports whether there was one. Events of a crashed process or a previous
// incarnation, stopped timers and deliveries nobody listens for are consumed
// silently.
func (net *Network) step(limit Time) bool {
	net.mu.Lock()
	if len(net.queue) == 0 || net.queue[0].at > limit {
		net.mu.Unlock()
		return false
	}
	ev := net.pop()
	if ev.at > net.now {
		net.now = ev.at
	}
	now := net.now
	live := !net.crashed[ev.to] && ev.life == net.life[ev.to]
	if ev.tm != nil {
		live = live && !ev.tm.done
		ev.tm.done = true
	}
	var h transport.Handler
	if ep := net.eps[ev.to]; ep != nil && ep.started && !ep.closed {
		h = ep.handler
	}
	net.mu.Unlock()

	switch {
	case !live:
	case ev.tm != nil:
		ev.tm.fn()
	case h != nil:
		if net.trace != nil {
			net.trace(TraceEvent{Time: now, From: ev.from, To: ev.to, Payload: ev.data})
		}
		h(ev.from, ev.data)
	}
	return true
}

// ---------------------------------------------------------------------------
// Event queue
// ---------------------------------------------------------------------------

// event is one entry of the heap: the delivery of data from one process to
// incarnation life of another, or (tm set) the fire of one of its timers.
type event struct {
	at   Time
	seq  uint64
	to   types.ProcessID
	life uint64
	from types.ProcessID
	data []byte
	tm   *timer
}

// timer is one armed Clock.AfterFunc (or a CrashAt). done (fired or stopped)
// is guarded by the network's lock.
type timer struct {
	net  *Network
	fn   func()
	done bool
}

// Stop implements node.Timer.
func (t *timer) Stop() bool {
	t.net.mu.Lock()
	defer t.net.mu.Unlock()
	armed := !t.done
	t.done = true
	return armed
}

type eventQueue []event

func (q eventQueue) Len() int { return len(q) }

func (q eventQueue) Less(i, j int) bool {
	if q[i].at != q[j].at {
		return q[i].at < q[j].at
	}
	return q[i].seq < q[j].seq
}

func (q eventQueue) Swap(i, j int) { q[i], q[j] = q[j], q[i] }

func (q *eventQueue) Push(x any) { *q = append(*q, x.(event)) }

func (q *eventQueue) Pop() any {
	old := *q
	n := len(old)
	ev := old[n-1]
	*q = old[:n-1]
	return ev
}

// push and pop are the only heap accessors; the caller holds net.mu. An event
// carries its destination's current incarnation and is never due in the past.
func (net *Network) push(ev event) {
	ev.seq, ev.life = net.seq, net.life[ev.to]
	net.seq++
	if ev.at < net.now {
		ev.at = net.now
	}
	heap.Push(&net.queue, ev)
}

func (net *Network) pop() event { return heap.Pop(&net.queue).(event) }
