// Package viewsync implements the view-synchronization protocol the paper
// assumes as a substrate (Section 3): "any implementation from the
// literature is sufficient". This one is a wish-based synchronizer in the
// style of Bracha amplification, as used by PBFT-family and HotStuff-family
// systems:
//
//   - each process maintains the highest view it wishes to enter and
//     broadcasts it when its view timer expires;
//   - a process adopts a wish supported by f+1 distinct processes (at least
//     one of them correct), which lets one correct timeout cascade;
//   - a process enters a view supported by 2f+1 distinct processes and
//     resets its timer with a timeout that grows with the view number, so
//     that after GST timeouts eventually exceed the 5Δ stability window.
//
// The three properties required by the paper hold: the view of a correct
// process never decreases (views are adopted monotonically); a correct
// leader is elected infinitely often (round-robin leaders plus unbounded
// retries); and after GST, growing timeouts keep every correct process in a
// view with a correct leader for at least 5Δ.
package viewsync

import (
	"time"

	"repro/internal/msg"
	"repro/internal/types"
)

// DefaultBaseTimeout is the view-1 timeout used when the caller passes 0:
// the one default of every runtime (single-shot nodes and SMR replicas).
const DefaultBaseTimeout = 500 * time.Millisecond

// Output is the synchronizer's reaction to an input: an optional wish to
// broadcast, an optional view to enter, and an optional new timer deadline.
type Output struct {
	// Wish, when non-nil, must be broadcast to all other processes.
	Wish *msg.Wish
	// Enter, when non-zero, is the view the process must enter now.
	Enter types.View
	// Deadline, when non-zero, is the new absolute deadline for the view
	// timer (duration since the start of the execution). A runtime with its
	// own suspicion policy may ignore it: OnTimeout is idempotent per view —
	// a re-fire before the wished view is entered only rebroadcasts the wish
	// — so driving many synchronizers from one coarser timer (as the SMR
	// layer does with its per-leader-regime timer) is safe.
	Deadline time.Duration
}

// Synchronizer is the per-process view-synchronization state machine. Like
// the core replica it is deterministic and not safe for concurrent use.
type Synchronizer struct {
	n, f    int
	id      types.ProcessID
	base    time.Duration
	entered types.View
	wish    types.View
	wishes  []types.View // highest wish per sender (monotone)
}

// New creates a synchronizer for process id among n processes with at most
// f Byzantine. base is the view-1 timeout (DefaultBaseTimeout if 0).
func New(n, f int, id types.ProcessID, base time.Duration) *Synchronizer {
	s := Make(n, f, id, base)
	return &s
}

// Make is New for a caller that keeps the synchronizer inside a larger
// struct, and so allocates it with that struct.
func Make(n, f int, id types.ProcessID, base time.Duration) Synchronizer {
	if base <= 0 {
		base = DefaultBaseTimeout
	}
	return Synchronizer{
		n:      n,
		f:      f,
		id:     id,
		base:   base,
		wishes: make([]types.View, n),
	}
}

// View returns the view most recently entered.
func (s *Synchronizer) View() types.View { return s.entered }

// Timeout returns the timer duration used for view v. It grows linearly
// with the view number, which is unbounded (as the liveness argument
// requires) while keeping simulated executions short.
func (s *Synchronizer) Timeout(v types.View) time.Duration {
	return s.base * time.Duration(v)
}

// Init enters view 1 (every process starts there; no wish quorum needed)
// and arms the first timer.
func (s *Synchronizer) Init(now time.Duration) Output {
	s.entered = 1
	s.wish = 1
	s.wishes[s.id] = 1
	return Output{Enter: 1, Deadline: now + s.Timeout(1)}
}

// OnWish processes a wish from another process.
func (s *Synchronizer) OnWish(from types.ProcessID, v types.View, now time.Duration) Output {
	if !from.Valid(s.n) {
		return Output{}
	}
	if v <= s.wishes[from] {
		return Output{}
	}
	s.wishes[from] = v
	return s.evaluate(now)
}

// OnTimeout processes the expiry of the view timer: wish for the next view
// and retransmit the wish.
func (s *Synchronizer) OnTimeout(now time.Duration) Output {
	if next := s.entered + 1; s.wish < next {
		s.wish = next
	}
	s.wishes[s.id] = s.wish
	out := s.evaluate(now)
	out.Wish = &msg.Wish{View: s.wish}
	if out.Deadline == 0 {
		// No view entered: back off before wishing again.
		out.Deadline = now + s.Timeout(s.wish)
	}
	return out
}

// evaluate applies the amplification (f+1) and entry (2f+1) rules after any
// wish table change.
func (s *Synchronizer) evaluate(now time.Duration) Output {
	var out Output
	if amp := s.kthHighestWish(s.f + 1); amp > s.wish {
		s.wish = amp
		s.wishes[s.id] = amp
		out.Wish = &msg.Wish{View: amp}
	}
	if ent := s.kthHighestWish(2*s.f + 1); ent > s.entered {
		s.entered = ent
		out.Enter = ent
		out.Deadline = now + s.Timeout(ent)
	}
	return out
}

// kthHighestWish returns the highest view v such that at least k processes
// wish to enter a view ≥ v, or 0 when fewer than k processes wished at all.
func (s *Synchronizer) kthHighestWish(k int) types.View {
	if k <= 0 || k > s.n {
		return 0
	}
	// n is small (tens of processes); copy and select.
	tmp := make([]types.View, s.n)
	copy(tmp, s.wishes)
	// Insertion sort descending.
	for i := 1; i < len(tmp); i++ {
		for j := i; j > 0 && tmp[j] > tmp[j-1]; j-- {
			tmp[j], tmp[j-1] = tmp[j-1], tmp[j]
		}
	}
	return tmp[k-1]
}
