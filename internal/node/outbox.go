package node

import "sync"

// Outbox is the lock of a protocol state machine and the one way a user
// callback leaves it. Code holding the lock Posts the callbacks it owes the
// outside world; Unlock — every Unlock, so no entry point can forget —
// releases the lock and then, as the single deliverer at a time, runs what
// was posted, in posting order, on the calling goroutine. So a callback never
// runs under the lock, callbacks of one machine neither overlap nor reorder,
// and no goroutine exists on their behalf: on a single-threaded simulator the
// machine, callbacks included, is single-threaded.
//
// A callback may call back into the machine (what it posts is delivered
// after it, by the delivery already in progress) and must not block: it runs
// on whichever goroutine released the lock — a transport reader or a timer as
// likely as the caller that caused it. The zero Outbox is unlocked and empty.
type Outbox struct {
	sync.Mutex
	// Via, if set before first use, is handed every callback instead of it
	// being called, and runs it now or later, in the order received (a durable
	// replica's storage.Store.Effect: the callback also waits for the WAL).
	Via func(func())

	q, spare   []func()
	delivering bool
	idle       chan struct{} // set by Drain; closed when the delivery in progress ends
}

// Post queues f for delivery once the lock is released. The caller holds it.
func (o *Outbox) Post(f func()) { o.q = append(o.q, f) }

// Unlock releases the lock and delivers what was posted, unless a delivery is
// in progress (on another goroutine, or further up this one's stack) — that
// one picks the new posts up, behind its own.
func (o *Outbox) Unlock() {
	if len(o.q) == 0 || o.delivering {
		o.Mutex.Unlock()
		return
	}
	o.delivering = true
	for len(o.q) > 0 {
		// Posts made meanwhile land on the other buffer and go out next
		// round: order is kept and neither buffer is allocated twice.
		batch := o.q
		o.q = o.spare[:0]
		o.Mutex.Unlock()
		for i, f := range batch {
			batch[i] = nil
			if o.Via != nil {
				o.Via(f)
			} else {
				f()
			}
		}
		o.Lock()
		o.spare = batch[:0]
	}
	o.delivering = false
	if o.idle != nil {
		close(o.idle)
		o.idle = nil
	}
	o.Mutex.Unlock()
}

// Drain is Unlock for the caller shutting the machine down: it returns once
// everything posted so far has been delivered (or handed to Via), whoever
// delivers it. It must not be called from a callback.
func (o *Outbox) Drain() {
	if !o.delivering {
		o.Unlock()
		return
	}
	if o.idle == nil {
		o.idle = make(chan struct{})
	}
	idle := o.idle
	o.Mutex.Unlock()
	<-idle
}
