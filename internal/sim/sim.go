// Package sim is the deterministic discrete-event network simulator used by
// every experiment and by every multi-replica test. It models the partially
// synchronous system of Section 2.1: reliable authenticated point-to-point
// channels, a message-delay bound Δ that holds after GST, and up to f
// Byzantine processes realized as arbitrary event handlers.
//
// There is one simulator, with one event heap, and two ways to occupy a
// process slot of it: a message-level Node (SetNode) — a core.Machine or an
// ad-hoc handler exchanging msg.Messages through its Env, how single
// consensus instances, the baselines and the lower-bound constructions run —
// or a payload-level endpoint (Transport, Clock; see transport.go), how whole
// SMR replicas and adversarial replica drivers run, unmodified, in virtual
// time. The simulator never decodes a payload.
//
// Determinism is the point: events are processed in (time, sequence) order,
// messages are round-tripped through the wire codec, and all randomness
// comes from seeds, so a schedule that demonstrates a property (a two-step
// decision, a view change, a lower-bound disagreement) reproduces exactly.
// Latency is measured in Δ units — the paper's "message delays".
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
	"repro/internal/msg"
	"repro/internal/transport"
	"repro/internal/types"
)

// DefaultDelta is the message-delay bound used when the caller passes 0.
const DefaultDelta = 10 * time.Millisecond

// Time is virtual time since the start of the execution.
type Time = core.Time

// Env gives a node the capabilities it has in the model: sending messages
// and arming its local timer. It is only valid during the callback it is
// passed to.
type Env struct {
	net  *Network
	self types.ProcessID
	// Now is the current virtual time.
	Now Time
}

// Send transmits m to process to. The message is encoded and decoded
// through the wire codec, so malformed messages vanish exactly as they
// would on a real network.
func (e *Env) Send(to types.ProcessID, m msg.Message) {
	e.net.send(e.self, to, m, e.Now)
}

// Broadcast transmits m to every process except the sender.
func (e *Env) Broadcast(m msg.Message) {
	for p := 0; p < e.net.n; p++ {
		if pid := types.ProcessID(p); pid != e.self {
			e.net.send(e.self, pid, m, e.Now)
		}
	}
}

// SetTimer arms the node's single timer to fire at deadline (absolute
// virtual time). Re-arming replaces the previous deadline.
func (e *Env) SetTimer(deadline Time) {
	e.net.setTimer(e.self, deadline)
}

// Node is a simulated process: correct nodes adapt a deterministic state
// machine; Byzantine nodes are arbitrary handlers.
type Node interface {
	// OnStart runs at time 0.
	OnStart(e *Env)
	// OnMessage delivers one message.
	OnMessage(from types.ProcessID, m msg.Message, e *Env)
	// OnTimer fires when the node's timer deadline is reached.
	OnTimer(e *Env)
}

// LatencyFunc decides the fate of one message: the delivery delay and
// whether it is delivered at all. Implementations must be deterministic in
// their arguments for reproducible runs. A nil LatencyFunc delivers
// everything after exactly Δ.
type LatencyFunc func(from, to types.ProcessID, m msg.Message, now Time) (delay Time, deliver bool)

// TraceFunc observes every delivery that reaches a node or a transport
// handler, for experiments that need message counts or sizes and for replay
// tests that compare two runs' delivery order.
type TraceFunc func(ev TraceEvent)

// TraceEvent describes one delivery: to a message-level node it carries the
// decoded message (Kind, Msg), to a transport endpoint the opaque Payload.
type TraceEvent struct {
	Time    Time
	From    types.ProcessID
	To      types.ProcessID
	Kind    msg.Kind
	Bytes   int
	Msg     msg.Message
	Payload []byte
}

// Stats aggregates message counts and bytes per message kind.
type Stats struct {
	Messages map[msg.Kind]int
	Bytes    map[msg.Kind]int
}

// TotalMessages returns the total number of delivered messages.
func (s Stats) TotalMessages() int {
	total := 0
	for _, c := range s.Messages {
		total += c
	}
	return total
}

// Network is the simulator instance. One goroutine steps it (Run, Settle,
// Advance) and every callback runs on that goroutine, outside the network's
// lock. Other goroutines may use only what an endpoint and a clock offer —
// Send, AfterFunc, Stop, Now — which is how a durable replica's storage
// goroutines release gated sends into the simulation.
type Network struct {
	n       int
	delta   Time
	latency LatencyFunc
	trace   TraceFunc
	stats   Stats
	nodes   []Node // message-level processes (nil = transport slot), set before the first step

	// decisions recorded through RecordDecision.
	decisions map[types.ProcessID]decisionRecord

	// mu guards everything below; it is never held across a callback.
	mu         sync.Mutex
	eps        []*endpoint // payload-level processes, created by Transport
	nodeTimers []*timer    // each node's single Env timer
	crashed    []bool
	life       []uint64 // incarnation of each process; Restart starts a new one
	queue      eventQueue
	seq        uint64
	now        Time
	started    bool
	fate       PayloadFunc
	held       []event
}

type decisionRecord struct {
	d  types.Decision
	at Time
}

// Option configures a Network.
type Option func(*Network)

// WithDelta sets the synchronous message-delay bound Δ: the delay of every
// send no LatencyFunc or PayloadFunc rules on (0 is the lockstep network).
func WithDelta(d Time) Option {
	return func(n *Network) { n.delta = d }
}

// WithLatency installs a custom latency/drop model for message-level sends.
func WithLatency(f LatencyFunc) Option {
	return func(n *Network) { n.latency = f }
}

// WithTrace installs a delivery observer.
func WithTrace(f TraceFunc) Option {
	return func(n *Network) { n.trace = f }
}

// NewNetwork creates a simulator for n processes.
func NewNetwork(n int, opts ...Option) *Network {
	net := &Network{
		n:          n,
		delta:      DefaultDelta,
		nodes:      make([]Node, n),
		eps:        make([]*endpoint, n),
		nodeTimers: make([]*timer, n),
		decisions:  make(map[types.ProcessID]decisionRecord, n),
		crashed:    make([]bool, n),
		life:       make([]uint64, n),
		stats: Stats{
			Messages: make(map[msg.Kind]int),
			Bytes:    make(map[msg.Kind]int),
		},
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

// Stats returns delivery statistics collected so far.
func (net *Network) Stats() Stats { return net.stats }

// SetNode installs the message-level node for process p.
func (net *Network) SetNode(p types.ProcessID, node Node) { net.nodes[p] = node }

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

// RecordDecision is called by node adapters when their process decides.
func (net *Network) RecordDecision(p types.ProcessID, d types.Decision) {
	if _, dup := net.decisions[p]; dup {
		return
	}
	net.decisions[p] = decisionRecord{d: d, at: net.Now()}
}

// Decision returns process p's decision and the virtual time it was made.
func (net *Network) Decision(p types.ProcessID) (types.Decision, Time, bool) {
	rec, ok := net.decisions[p]
	return rec.d, rec.at, ok
}

// DecisionSteps returns the decision latency of p in message delays
// (Δ units, rounded up), the unit the paper's "two-step" refers to.
func (net *Network) DecisionSteps(p types.ProcessID) (types.Step, bool) {
	rec, ok := net.decisions[p]
	if !ok {
		return 0, false
	}
	steps := (rec.at + net.delta - 1) / net.delta
	return types.Step(steps), true
}

// send enqueues a message-level delivery according to the latency model.
func (net *Network) send(from, to types.ProcessID, m msg.Message, now Time) {
	if !to.Valid(net.n) {
		return
	}
	delay, deliver := net.delta, true
	if net.latency != nil {
		delay, deliver = net.latency(from, to, m, now)
	}
	if !deliver {
		return
	}
	encoded := msg.Encode(m)
	net.mu.Lock()
	defer net.mu.Unlock()
	if encoded != nil && !net.crashed[from] && !net.crashed[to] {
		net.push(event{at: now + delay, to: to, from: from, data: encoded})
	}
}

// setTimer replaces node p's single timer deadline.
func (net *Network) setTimer(p types.ProcessID, deadline Time) {
	net.mu.Lock()
	defer net.mu.Unlock()
	if old := net.nodeTimers[p]; old != nil {
		old.done = true
	}
	node := net.nodes[p]
	net.nodeTimers[p] = net.armLocked(p, deadline, func() {
		node.OnTimer(&Env{net: net, self: p, Now: net.Now()})
	})
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
	for p := range net.nodes {
		if net.nodes[p] == nil && net.eps[p] == nil {
			net.mu.Unlock()
			return RunResult{}, fmt.Errorf("sim: process %s has no node", types.ProcessID(p))
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

// runTo is the one event loop: it starts the nodes on first use, processes
// events due at or before limit until none is left or stop holds, and returns
// how many. If the next event lies beyond a finite limit, time moves to it.
func (net *Network) runTo(limit Time, stop func() bool) int {
	net.mu.Lock()
	var starting []Node
	if !net.started {
		net.started = true
		starting = append(starting, net.nodes...)
		for p := range starting {
			if net.crashed[p] {
				starting[p] = nil
			}
		}
	}
	net.mu.Unlock()
	for p, node := range starting {
		if node != nil {
			node.OnStart(&Env{net: net, self: types.ProcessID(p), Now: 0})
		}
	}
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
// incarnation, stopped timers, malformed messages and deliveries nobody
// listens for are consumed silently.
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
	now, node := net.now, net.nodes[ev.to]
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

	te := TraceEvent{Time: now, From: ev.from, To: ev.to, Bytes: len(ev.data)}
	switch {
	case !live:
	case ev.tm != nil:
		ev.tm.fn()
	case node != nil:
		m, err := msg.Decode(ev.data)
		if err != nil {
			break // malformed: dropped, as on a real network
		}
		net.stats.Messages[m.Kind()]++
		net.stats.Bytes[m.Kind()] += len(ev.data)
		if net.trace != nil {
			te.Kind, te.Msg = m.Kind(), m
			net.trace(te)
		}
		node.OnMessage(ev.from, m, &Env{net: net, self: ev.to, Now: now})
	case h != nil:
		if net.trace != nil {
			te.Payload = ev.data
			net.trace(te)
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

// timer is one armed timer: a node's Env timer or a Clock.AfterFunc. done
// (fired or stopped) is guarded by the network's lock.
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
