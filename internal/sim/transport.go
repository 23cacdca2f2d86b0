package sim

import (
	"math/rand"
	"sync"
	"time"

	"repro/internal/node"
	"repro/internal/transport"
	"repro/internal/types"
)

// The face of the Network a process sees: a transport.Transport endpoint and
// a node.Clock — how single consensus instances (Cluster), SMR replicas
// (internal/smr) and adversarial drivers (internal/byz) run on the simulator.
// Its sends and AfterFunc timers are events of the one (time, seq) heap.

// Fate is a PayloadFunc's ruling on one payload.
type Fate struct {
	Delay Time // how long after the send the payload is due
	Drop  bool // lose the payload
	Hold  bool // park the payload until Release
}

// PayloadFunc rules on every payload an endpoint sends, at the instant it is
// sent: deliver after a delay, drop, or hold. Seeing every send, it doubles as
// the tap a test counts or decodes traffic with. It must be deterministic in
// its arguments (and its own seeded state) for a run to replay. Without one,
// the delay is Δ.
type PayloadFunc func(from, to types.ProcessID, payload []byte, now Time) Fate

// SetPayloadFunc installs (or, with nil, removes) the payload predicate.
// Payloads already queued or held are not revisited.
func (net *Network) SetPayloadFunc(f PayloadFunc) {
	net.mu.Lock()
	defer net.mu.Unlock()
	net.fate = f
}

// Release re-queues every held payload, due now, in send order, and returns
// how many there were — the lever for interleaving pipelined log slots: hold
// slot k's traffic, let slots k+1.. decide first, then release slot k.
func (net *Network) Release() int {
	net.mu.Lock()
	defer net.mu.Unlock()
	n := len(net.held)
	for _, ev := range net.held {
		if ev.life == net.life[ev.to] { // else: held for an incarnation since replaced
			ev.at = net.now
			net.push(ev)
		}
	}
	net.held = nil
	return n
}

// SeededDelay returns a PayloadFunc that delays every payload by a duration
// drawn uniformly from [0, max] by a generator seeded with seed: payloads
// overtake each other across slots, views and links, identically every run.
func SeededDelay(seed int64, max Time) PayloadFunc {
	var mu sync.Mutex // endpoints may send from several goroutines
	rng := rand.New(rand.NewSource(seed))
	return func(_, _ types.ProcessID, _ []byte, _ Time) Fate {
		mu.Lock()
		defer mu.Unlock()
		return Fate{Delay: Time(rng.Int63n(int64(max) + 1))}
	}
}

// Transport returns the endpoint of process p, creating it on first use.
func (net *Network) Transport(p types.ProcessID) transport.Transport {
	net.mu.Lock()
	defer net.mu.Unlock()
	if net.eps[p] == nil {
		net.eps[p] = &endpoint{net: net, self: p}
	}
	return net.eps[p]
}

// Restart brings a crashed (or closed) process back as a new incarnation
// with a fresh endpoint and an empty inbox: whatever is still addressed to
// the previous one — queued, held, or a timer — will never arrive.
func (net *Network) Restart(p types.ProcessID) transport.Transport {
	net.mu.Lock()
	defer net.mu.Unlock()
	net.crashed[p] = false
	net.life[p]++
	if old := net.eps[p]; old != nil {
		old.closed = true // an abandoned incarnation must not speak for p
	}
	net.eps[p] = &endpoint{net: net, self: p}
	return net.eps[p]
}

// Clock returns process p's virtual clock; a crash discards its timers.
func (net *Network) Clock(p types.ProcessID) node.Clock {
	return procClock{net: net, p: p}
}

// clockEpoch anchors virtual time 0 to a fixed, non-zero instant.
var clockEpoch = time.Unix(0, 0)

type procClock struct {
	net *Network
	p   types.ProcessID
}

func (c procClock) Now() time.Time { return clockEpoch.Add(c.net.Now()) }

func (c procClock) AfterFunc(d time.Duration, f func()) node.Timer {
	c.net.mu.Lock()
	defer c.net.mu.Unlock()
	return c.net.armLocked(c.p, c.net.now+d, f)
}

// endpoint implements transport.Transport over the Network; its state is
// guarded by the network's lock.
type endpoint struct {
	net  *Network
	self types.ProcessID

	handler transport.Handler
	started bool
	closed  bool
}

var _ transport.Transport = (*endpoint)(nil)

// Self implements transport.Transport.
func (ep *endpoint) Self() types.ProcessID { return ep.self }

// SetHandler implements transport.Transport.
func (ep *endpoint) SetHandler(h transport.Handler) {
	ep.net.mu.Lock()
	defer ep.net.mu.Unlock()
	ep.handler = h
}

// Start implements transport.Transport.
func (ep *endpoint) Start() error {
	ep.net.mu.Lock()
	defer ep.net.mu.Unlock()
	if ep.closed {
		return transport.ErrClosed
	}
	ep.started = true
	return nil
}

// Send implements transport.Transport: the payload predicate rules on the
// send, which is then queued, held or dropped. The receiver gets its own
// copy of payload.
func (ep *endpoint) Send(to types.ProcessID, payload []byte) error {
	return ep.send(to, payload, nil)
}

// Broadcast implements transport.Transport. Every receiver gets the same
// copy of payload: a receiver owns the frame it is handed for reading only
// (as a TCP receiver owns the frame it read, and decodes it without
// copying), so one receiver writing into it would show in the others'.
func (ep *endpoint) Broadcast(payload []byte) error {
	data := append([]byte(nil), payload...)
	for i := 0; i < ep.net.n; i++ {
		if pid := types.ProcessID(i); pid != ep.self {
			if err := ep.send(pid, payload, data); err != nil {
				return err
			}
		}
	}
	return nil
}

// send rules on payload and queues, holds or drops its delivery to `to`:
// data if it is set, a copy of payload otherwise.
func (ep *endpoint) send(to types.ProcessID, payload, data []byte) error {
	net := ep.net
	if !to.Valid(net.n) {
		return transport.ErrUnknownPeer
	}
	net.mu.Lock()
	closed, rule, now := ep.closed, net.fate, net.now
	net.mu.Unlock()
	if closed {
		return transport.ErrClosed
	}
	fate := Fate{Delay: net.delta}
	if rule != nil {
		fate = rule(ep.self, to, payload, now)
	}
	if data == nil {
		data = append([]byte(nil), payload...)
	}
	ev := event{to: to, from: ep.self, data: data}
	net.mu.Lock()
	defer net.mu.Unlock()
	switch {
	case fate.Drop || net.crashed[ep.self] || net.crashed[to]:
	case fate.Hold:
		ev.life = net.life[to]
		net.held = append(net.held, ev)
	default:
		ev.at = net.now + fate.Delay
		net.push(ev)
	}
	return nil
}

// Close implements transport.Transport.
func (ep *endpoint) Close() error {
	ep.net.mu.Lock()
	defer ep.net.mu.Unlock()
	ep.closed = true
	return nil
}
