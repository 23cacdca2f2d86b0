package smr

// pendingQueue is the replica's queue of commands awaiting proposal: a FIFO
// of encoded requests with a by-content index. The index is what keeps the
// apply path linear — every applied command is removed from the queue, and
// with pipelined slots many commands are queued at once, so the removal must
// be O(1) rather than a scan (a scan makes applying k commands O(k·pending),
// quadratic under load). Entries are a doubly linked list so removal from
// the middle and re-enqueueing at the front (commands returned by a slot
// that decided a different value keep their age) are both constant-time.
type pendingQueue struct {
	head, tail *pendingEntry
	index      map[string]*pendingEntry // command bytes -> entry
}

type pendingEntry struct {
	cmd        Command
	enq        int64 // tracer enqueue timestamp (nanos since tracer epoch; 0 = untracked)
	prev, next *pendingEntry
}

func newPendingQueue() *pendingQueue {
	return &pendingQueue{index: make(map[string]*pendingEntry)}
}

// Len returns the number of queued commands.
func (q *pendingQueue) Len() int { return len(q.index) }

// Contains reports whether cmd is queued.
func (q *pendingQueue) Contains(cmd Command) bool {
	_, ok := q.index[string(cmd)]
	return ok
}

// PushBackAt appends cmd unless it is already queued, reporting whether it
// was added. The command bytes are retained (not copied); callers own them.
// enq is the command's tracer enqueue timestamp (0 = untracked), which
// survives until the command is popped into a proposal chunk.
func (q *pendingQueue) PushBackAt(cmd Command, enq int64) bool {
	if q.Contains(cmd) {
		return false
	}
	e := &pendingEntry{cmd: cmd, enq: enq, prev: q.tail}
	if q.tail != nil {
		q.tail.next = e
	} else {
		q.head = e
	}
	q.tail = e
	q.index[string(cmd)] = e
	return true
}

// PushFront prepends cmd unless it is already queued, reporting whether it
// was added. Used to return commands a slot proposed but did not decide, so
// they do not lose their place behind newer arrivals.
func (q *pendingQueue) PushFront(cmd Command) bool {
	if q.Contains(cmd) {
		return false
	}
	e := &pendingEntry{cmd: cmd, next: q.head}
	if q.head != nil {
		q.head.prev = e
	} else {
		q.tail = e
	}
	q.head = e
	q.index[string(cmd)] = e
	return true
}

// Remove deletes cmd in O(1), reporting whether it was present.
func (q *pendingQueue) Remove(cmd Command) bool {
	e, ok := q.index[string(cmd)]
	if !ok {
		return false
	}
	q.unlink(e)
	return true
}

func (q *pendingQueue) unlink(e *pendingEntry) {
	if e.prev != nil {
		e.prev.next = e.next
	} else {
		q.head = e.next
	}
	if e.next != nil {
		e.next.prev = e.prev
	} else {
		q.tail = e.prev
	}
	e.prev, e.next = nil, nil
	delete(q.index, string(e.cmd))
}

// PopFrontTraced removes and returns up to max commands from the front,
// oldest first, with the oldest (smallest nonzero) tracer enqueue timestamp
// among them, or 0 if none carried one. The oldest timestamp seeds the submit stage of the slot that proposes
// the chunk: a batch's latency is the latency of its most-delayed command.
func (q *pendingQueue) PopFrontTraced(max int) ([]Command, int64) {
	if max <= 0 || q.head == nil {
		return nil, 0
	}
	out := make([]Command, 0, max)
	oldest := int64(0)
	for q.head != nil && len(out) < max {
		e := q.head
		out = append(out, e.cmd)
		if e.enq != 0 && (oldest == 0 || e.enq < oldest) {
			oldest = e.enq
		}
		q.unlink(e)
	}
	return out, oldest
}

// Filter removes every command for which keep returns false, preserving
// order.
func (q *pendingQueue) Filter(keep func(Command) bool) {
	for e := q.head; e != nil; {
		next := e.next
		if !keep(e.cmd) {
			q.unlink(e)
		}
		e = next
	}
}
