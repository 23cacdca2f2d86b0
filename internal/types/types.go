// Package types defines the basic identifiers and units shared by every
// layer of the repository: process identifiers, view numbers, proposal
// values, and virtual time measured in message delays.
package types

import (
	"fmt"
	"strconv"
)

// ProcessID identifies a consensus process (replica). Valid identifiers are
// in the range [0, n). The zero value is a valid identifier for process 0;
// use NoProcess to denote "no process".
type ProcessID int32

// NoProcess denotes the absence of a process (for example, no equivocator
// detected yet).
const NoProcess ProcessID = -1

// String implements fmt.Stringer. Processes print as p1, p2, ... to match
// the paper's notation (the paper indexes processes from 1).
func (p ProcessID) String() string {
	if p == NoProcess {
		return "p?"
	}
	return "p" + strconv.Itoa(int(p)+1)
}

// Valid reports whether p identifies one of n processes.
func (p ProcessID) Valid(n int) bool {
	return p >= 0 && int(p) < n
}

// ClientID identifies an external client session at the SMR layer. Client
// identifiers are opaque strings chosen by clients; replicas key their
// session tables (per-client sequence high-water mark and cached last reply)
// by ClientID, so a client that reuses an identifier continues its session.
type ClientID string

// String implements fmt.Stringer.
func (c ClientID) String() string { return string(c) }

// View is a view number. Views start at 1; view 0 is never entered and the
// zero value means "no view" (used for nil votes).
type View uint64

// NoView is the view number carried by nil votes.
const NoView View = 0

// String implements fmt.Stringer.
func (v View) String() string {
	return "v" + strconv.FormatUint(uint64(v), 10)
}

// Value is a proposal value. Values are opaque byte strings; consensus never
// interprets them. The empty value is valid.
type Value []byte

// Equal reports whether two values are byte-wise equal.
func (x Value) Equal(y Value) bool {
	if len(x) != len(y) {
		return false
	}
	for i := range x {
		if x[i] != y[i] {
			return false
		}
	}
	return true
}

// Clone returns an independent copy of the value, so that callers can retain
// it without aliasing the sender's buffer.
func (x Value) Clone() Value {
	if x == nil {
		return nil
	}
	c := make(Value, len(x))
	copy(c, x)
	return c
}

// String implements fmt.Stringer, rendering short values verbatim.
func (x Value) String() string {
	const maxShown = 16
	if len(x) <= maxShown {
		return fmt.Sprintf("%q", string(x))
	}
	return fmt.Sprintf("%q…(%dB)", string(x[:maxShown]), len(x))
}

// Step counts message delays (Δ units) in the discrete-event simulator.
// The paper's "two-step" latency corresponds to Step == 2.
type Step int

// Config carries the resilience parameters of an instance of the protocol.
//
// The generalized protocol of Appendix A requires n ≥ 3f + 2t − 1 processes
// to tolerate f Byzantine failures while deciding within two message delays
// whenever the actual number of failures does not exceed t (1 ≤ t ≤ f).
// The vanilla protocol of Section 3 is the special case t = f, requiring
// n ≥ 5f − 1.
type Config struct {
	// N is the total number of processes.
	N int
	// F is the maximum number of Byzantine processes tolerated.
	F int
	// T is the fast-path threshold: the protocol terminates in two message
	// delays whenever at most T processes are actually faulty.
	T int
	// shift offsets the leader schedule (see Leader); zero is the paper's
	// map. Set by WithLeaderShift only, so Config{N, F, T} literals run the
	// paper's schedule.
	shift uint64
}

// Leader returns the leader of view v: (v + shift) mod n — the agreed map
// leader(v) = p_{(v mod n)+1} of Section 3 of the paper (that is v mod n with
// this codebase's zero-based ProcessID), offset by the configuration's leader
// shift. It is the one definition of "who leads view v" in the repository.
// Every process of an instance must hold the same shift.
func (c Config) Leader(v View) ProcessID {
	if c.N <= 0 {
		return NoProcess
	}
	return ProcessID((uint64(v)%uint64(c.N) + c.shift) % uint64(c.N))
}

// WithLeaderShift returns the configuration with its leader schedule offset
// by shift mod n: view v is led by process (v + shift) mod n. Identities,
// quorums and thresholds are untouched — hosting several consensus groups on
// one set of processes gives each group its own shift, so their view-1
// leaders differ (see internal/smr).
func (c Config) WithLeaderShift(shift uint64) Config {
	c.shift = 0
	if c.N > 0 {
		c.shift = shift % uint64(c.N)
	}
	return c
}

// Validate checks the resilience constraints from the paper:
// 1 ≤ t ≤ f, n ≥ 3f + 2t − 1, and n ≥ 3f + 1 (partial synchrony floor).
func (c Config) Validate() error {
	if c.F < 1 {
		return fmt.Errorf("config: f must be at least 1, got %d", c.F)
	}
	if c.T < 1 || c.T > c.F {
		return fmt.Errorf("config: t must satisfy 1 <= t <= f, got t=%d f=%d", c.T, c.F)
	}
	if min := MinProcesses(c.F, c.T); c.N < min {
		return fmt.Errorf("config: n=%d below minimum %d for f=%d t=%d", c.N, min, c.F, c.T)
	}
	return nil
}

// MinProcesses returns the minimum number of processes required by the
// paper's protocol: max(3f + 2t − 1, 3f + 1). The second term is the classic
// partially synchronous Byzantine consensus floor, binding only when t = 1.
func MinProcesses(f, t int) int {
	n := 3*f + 2*t - 1
	if floor := 3*f + 1; n < floor {
		n = floor
	}
	return n
}

// Vanilla returns the configuration of the non-generalized protocol from
// Section 3 for a given f: t = f and n = 5f − 1.
func Vanilla(f int) Config {
	return Config{N: 5*f - 1, F: f, T: f}
}

// Generalized returns the minimal configuration of the generalized protocol
// from Appendix A for given f and t.
func Generalized(f, t int) Config {
	return Config{N: MinProcesses(f, t), F: f, T: t}
}

// String implements fmt.Stringer.
func (c Config) String() string {
	return fmt.Sprintf("n=%d f=%d t=%d", c.N, c.F, c.T)
}

// Checkpoint identifies a stable cut of the replicated log: every slot at or
// below Slot has been decided and applied, and StateHash is the digest of the
// replica state (application snapshot plus replication bookkeeping) after
// applying slot Slot. Correct replicas compute identical checkpoints, so a
// quorum of matching signed checkpoints certifies the state for garbage
// collection and state transfer (see internal/smr).
type Checkpoint struct {
	// Slot is the highest applied slot covered by the checkpoint.
	Slot uint64
	// StateHash is the SHA-256 digest of the encoded snapshot at Slot.
	StateHash []byte
}

// Equal reports whether two checkpoints cover the same slot and state.
func (c Checkpoint) Equal(o Checkpoint) bool {
	return c.Slot == o.Slot && Value(c.StateHash).Equal(Value(o.StateHash))
}

// Clone returns an independent copy.
func (c Checkpoint) Clone() Checkpoint {
	return Checkpoint{Slot: c.Slot, StateHash: Value(c.StateHash).Clone()}
}

// String implements fmt.Stringer.
func (c Checkpoint) String() string {
	h := c.StateHash
	if len(h) > 4 {
		h = h[:4]
	}
	return fmt.Sprintf("ckpt(slot=%d state=%x…)", c.Slot, h)
}

// DecidePath records which path of the protocol produced a decision.
type DecidePath int

// Decision paths.
const (
	// FastPath is a decision from n−t matching ack messages (two delays).
	FastPath DecidePath = iota + 1
	// SlowPath is a decision from ⌈(n+f+1)/2⌉ Commit messages (three delays).
	SlowPath
	// TransferPath is a decision a replica did not reach by consensus but
	// learned by state transfer, from f+1 peers reporting the same value.
	TransferPath
)

// String implements fmt.Stringer.
func (p DecidePath) String() string {
	switch p {
	case FastPath:
		return "fast"
	case SlowPath:
		return "slow"
	case TransferPath:
		return "transfer"
	default:
		return "unknown(" + strconv.Itoa(int(p)) + ")"
	}
}

// Decision is the outcome delivered to the application via the Decide
// callback of Section 2.2.
type Decision struct {
	Value Value
	View  View
	Path  DecidePath
}
