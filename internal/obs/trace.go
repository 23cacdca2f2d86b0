package obs

import (
	"sync/atomic"
	"time"
)

// Stage identifies a point in a command's life, in this pipeline's causal
// order. Note the order of the last three: the SMR layer executes a decided
// batch against the application immediately (Applied), overlapping the WAL
// fsync that makes the decision durable (Durable); replies are withheld
// until durability (Replied). On an in-memory replica Durable is never
// marked.
type Stage int

// Pipeline stages.
const (
	StageSubmit    Stage = iota // command entered the pending queue
	StageProposed               // command's slot was assigned its chunk
	StageAckQuorum              // commit quorum of acks observed locally
	StageDecided                // slot decided (fast or slow path)
	StageApplied                // decided batch executed against the app
	StageDurable                // decision record fsynced to the WAL
	StageReplied                // first client reply of the batch dispatched
	numStages
)

var stageNames = [numStages]string{
	"submit", "proposed", "ackquorum", "decided", "applied", "durable", "replied",
}

// String returns the stage's metric label.
func (s Stage) String() string {
	if s < 0 || s >= numStages {
		return "unknown"
	}
	return stageNames[s]
}

// Trace accumulates one request batch's stage timestamps (nanoseconds since
// the tracer's epoch; zero means unset). Marks are atomic and first-write-
// wins, so stages may be marked from any goroutine — the lock-held SMR main
// path and the storage effect queue race benignly.
type Trace struct {
	marks [numStages]atomic.Int64
}

// At returns the mark of stage s in nanoseconds since the tracer epoch, or
// 0 if unset.
func (t *Trace) At(s Stage) int64 {
	if t == nil || s < 0 || s >= numStages {
		return 0
	}
	return t.marks[s].Load()
}

// Tracer turns stage marks into cumulative-latency histograms: the series
// for stage S observes the time from StageSubmit to S, so reading two
// stages' histograms side by side localizes where requests spend their
// time. One histogram family, labeled by destination stage, falls out of
// normal operation with no per-request allocation (traces are embedded by
// value in the SMR layer's slot objects).
type Tracer struct {
	epoch time.Time
	hist  [numStages]*Histogram
}

// NewTracer registers the tracer's histograms — name, labeled {stage=...}
// per destination stage — in reg. epoch is the instant marks are measured
// from, read off the same clock the caller stamps its marks with.
func NewTracer(reg *Registry, name, help string, labels Labels, epoch time.Time) *Tracer {
	t := &Tracer{epoch: epoch}
	for s := StageProposed; s < numStages; s++ {
		t.hist[s] = reg.Histogram(name, help, labels.With("stage", s.String()), 1e9, DefaultLatencyBuckets())
	}
	return t
}

// nanos clamps t to at least 1ns after the epoch, so a set mark is never
// the zero sentinel.
func (t *Tracer) nanos(at time.Time) int64 {
	n := at.Sub(t.epoch).Nanoseconds()
	if n < 1 {
		n = 1
	}
	return n
}

// Mark records stage s of tr at time `at` (first mark wins) and, for every
// stage after submit, observes the submit→s latency — provided submit was
// marked, which it is not for slots whose chunk carried no locally tracked
// commands. A nil tracer or trace no-ops.
func (t *Tracer) Mark(tr *Trace, s Stage, at time.Time) {
	if t == nil || tr == nil || s < 0 || s >= numStages {
		return
	}
	now := t.nanos(at)
	if !tr.marks[s].CompareAndSwap(0, now) {
		return
	}
	if s == StageSubmit {
		return
	}
	submit := tr.marks[StageSubmit].Load()
	if submit == 0 {
		return
	}
	t.hist[s].Observe(uint64(max64(now-submit, 0)))
}

// MarkAt records stage s with an explicit epoch-relative timestamp already
// in hand (e.g. a pending-queue enqueue time captured earlier).
func (t *Tracer) MarkAt(tr *Trace, s Stage, nanos int64) {
	if t == nil || tr == nil || s < 0 || s >= numStages || nanos <= 0 {
		return
	}
	tr.marks[s].CompareAndSwap(0, nanos)
}

// Nanos returns `at` as an epoch-relative timestamp for later MarkAt calls.
func (t *Tracer) Nanos(at time.Time) int64 {
	if t == nil {
		return 0
	}
	return t.nanos(at)
}

func max64(a, b int64) int64 {
	if a > b {
		return a
	}
	return b
}
