package main

import (
	"sync"
	"time"
)

// sample is one request as the load generator saw it. Times are offsets
// from the episode's epoch.
type sample struct {
	// due is when the request was scheduled to be sent. A closed loop sends
	// as soon as the previous reply arrives, so due equals sent there.
	due time.Duration
	// sent is when the request was handed to a session.
	sent time.Duration
	// done is when f+1 matching replies had arrived (or the request failed).
	done time.Duration
	ok   bool
}

// latency is timed from the due time, so a stall is charged to every
// request it delays, not only to the one that hit it.
func (s sample) latency() time.Duration { return s.done - s.due }

// sessionState is one client session with its pre-generated operations and
// the model of what its keys must hold.
type sessionState struct {
	id      int
	sess    session
	ops     []op
	next    int
	model   model
	samples []sample
	// wrong counts confirmed replies whose result differs from the model.
	wrong int
	// unknown holds keys that saw a failed operation: the write may or may
	// not have been applied, so replies and the final check skip them.
	unknown map[string]bool
}

func newSessionState(id int, sess session, ops []op) *sessionState {
	return &sessionState{
		id: id, sess: sess, ops: ops, model: make(model),
		samples: make([]sample, 0, 1<<13), unknown: make(map[string]bool),
	}
}

// do executes the session's next operation, checks the reply against the
// model and records the sample. Only the session's own goroutine calls it.
func (s *sessionState) do(epoch time.Time, due time.Duration) {
	o := s.ops[s.next%len(s.ops)]
	s.next++
	sent := time.Since(epoch)
	var got string
	var err error
	if o.del {
		got, err = s.sess.Delete(o.key)
	} else {
		got, err = s.sess.Set(o.key, o.value)
	}
	done := time.Since(epoch)
	s.samples = append(s.samples, sample{due: due, sent: sent, done: done, ok: err == nil})
	if err != nil {
		s.unknown[o.key] = true
		return
	}
	if want := s.model.apply(o); got != want && !s.unknown[o.key] {
		s.wrong++
	}
}

// runClosed drives every session in a closed loop — the next request leaves
// when the previous reply arrives — until stop, and returns once every
// session's last request has completed.
func runClosed(states []*sessionState, epoch time.Time, stop time.Duration) {
	var wg sync.WaitGroup
	for _, s := range states {
		wg.Add(1)
		go func(s *sessionState) {
			defer wg.Done()
			for {
				now := time.Since(epoch)
				if now >= stop {
					return
				}
				s.do(epoch, now)
			}
		}(s)
	}
	wg.Wait()
}

// schedule returns the due times of an open loop: evenly spaced at the
// given rate over [0, length), fixed before the run starts.
func schedule(rate float64, length time.Duration) []time.Duration {
	gap := time.Duration(float64(time.Second) / rate)
	var due []time.Duration
	for d := time.Duration(0); d < length; d += gap {
		due = append(due, d)
	}
	return due
}

// runOpen sends one request per due time from a pool of sessions, whether
// or not earlier requests have completed. A request that finds no free
// session waits for one and is still timed from its due time. It returns
// once every request has completed.
func runOpen(states []*sessionState, epoch time.Time, due []time.Duration) {
	free := make(chan *sessionState, len(states)) // one slot per session
	for _, s := range states {
		free <- s
	}
	var wg sync.WaitGroup
	for _, d := range due {
		if wait := d - time.Since(epoch); wait > 0 {
			time.Sleep(wait)
		}
		s := <-free
		wg.Add(1)
		go func(s *sessionState, d time.Duration) {
			defer wg.Done()
			s.do(epoch, d)
			free <- s
		}(s, d)
	}
	wg.Wait()
}
