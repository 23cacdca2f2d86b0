// Package smr builds a replicated state machine on top of the paper's
// consensus protocol, the standard application of consensus the paper's
// introduction motivates: agreement is reached on each next command, and
// every replica applies the decided commands in slot order.
//
// Each log slot is one independent consensus instance (a core.Process); all
// instances of a replica share one transport, with payloads tagged by a
// (group, slot) header (see newFrame), and one clock (Config.Clock — the
// replica reads time and arms timers nowhere else). Replication is
// pipelined: up to Config.WindowSize slots run concurrently, each proposing
// a disjoint chunk of the pending queue, so throughput is bounded by the
// window rather than by one consensus round-trip per batch. Slots may decide
// out of order; commands are applied strictly in slot order, and commit
// observers see slots in order too.
//
// Window slots are opened by the leader: only the replica that leads view 1
// (and with it the current leader regime — leader(v) is the same process
// for every slot at view v) assigns pending-queue chunks to fresh slots;
// followers keep their commands queued and open instances only when the
// leader's traffic arrives. This is what makes slot assignment
// crash-consistent — a follower can never strand a command in a slot the
// leader will not propose. Leader failure is handled per regime, not per
// slot: one adaptive timer (EWMA of decide latency, exponential backoff,
// reset on progress) watches the whole window, and when it fires every
// in-flight slot changes view in one coordinated step, with wishes and
// votes coalesced into windowed messages (see pokeRegimeLocked,
// flushViewBufsLocked).
//
// Every command is an encoded msg.Request carrying a (client, sequence)
// pair; replicas deduplicate by per-client session tables (see session.go),
// cache the last reply per client for retransmissions, and prune inactive
// sessions at checkpoint boundaries — so dedup memory is bounded by active
// clients, not by log length. Clients submit through HandleRequest (see
// internal/client for a full retransmitting client).
package smr

import (
	"errors"
	"fmt"
	"sort"
	"time"

	"repro/internal/core"
	"repro/internal/msg"
	"repro/internal/node"
	"repro/internal/obs"
	"repro/internal/quorum"
	"repro/internal/sigcrypto"
	"repro/internal/storage"
	"repro/internal/transport"
	"repro/internal/types"
	"repro/internal/viewsync"
	"repro/internal/wire"
)

// Command is an opaque replicated command. Commands must be unique across
// the execution; identical bytes are applied only once.
type Command = types.Value

// ctrlSlot is the reserved envelope slot number used to forward submitted
// commands to every replica, so that whichever process leads the next log
// slot has the command in its queue (without forwarding, a command
// submitted to a process that never becomes leader would starve).
const ctrlSlot = ^uint64(0)

// syncSlot is the reserved envelope slot number carrying log-maintenance
// messages (Checkpoint, FetchState, StateSnapshot); they concern the log as
// a whole, not one consensus instance.
const syncSlot = ^uint64(0) - 1

// viewSlot is the reserved envelope slot number carrying windowed
// view-change messages (WindowWish, WindowVote): they span many consensus
// instances and are unbundled into per-slot deliveries by the receiver.
const viewSlot = ^uint64(0) - 2

// App consumes decided commands in slot order and checkpoints its state.
type App interface {
	// Apply executes one decided command and returns its result. Empty
	// commands (no-ops) are not passed to the application. The result is
	// cached in the submitting client's session and served to
	// retransmissions, so it must be a deterministic function of the
	// replicated state and the command; nil is a valid result.
	Apply(slot uint64, cmd Command) []byte
	// Snapshot serializes the full application state. It must be
	// deterministic: two replicas that applied the same command sequence
	// must produce byte-identical snapshots, because the snapshot digest is
	// what checkpoint quorums certify (see checkpoint.go).
	Snapshot() []byte
	// Restore replaces the application state with a decoded snapshot.
	Restore(data []byte) error
}

// CommitFunc observes every decided slot (including no-ops), after the
// application applied it, strictly in slot order — even when slots decide
// out of order, an observer never sees slot k+1 before slot k.
//
// It and ReplyFunc, the replica's two user callbacks, leave it one way
// (node.Outbox): queued under the replica lock as the apply loop produces
// them — a slot's OnCommit, then the replies of the requests it executed —
// and delivered in that order after the lock is released, one at a time, on
// whichever goroutine released it (with Storage, on the store's, once the
// slot's decision record is durable). A callback may call back into the
// replica; it must not block.
type CommitFunc func(slot uint64, cmd Command, d types.Decision)

// Config parameterizes a Replica.
type Config struct {
	// Cluster is the resilience configuration (n, f, t).
	Cluster types.Config
	// Self is this replica's process identifier.
	Self types.ProcessID
	// Signer and Verifier provide the signature scheme.
	Signer   sigcrypto.Signer
	Verifier sigcrypto.Verifier
	// Transport connects the replicas.
	Transport transport.Transport
	// App consumes decided commands. Required.
	App App
	// OnCommit, if set, observes decided slots in slot order (see CommitFunc
	// for the callback contract).
	OnCommit CommitFunc
	// BaseTimeout caps the leader-suspicion timeout of the regime timer
	// (and seeds it while no decide latency has been observed yet). The
	// viewsync default applies when zero.
	BaseTimeout time.Duration
	// WindowSize bounds how many consensus instances may be live at once
	// (default 8): the replica participates in slots
	// [lowestUndecided, lowestUndecided+WindowSize), and starts an instance
	// for every slot in the window for which fresh pending commands exist.
	WindowSize int
	// MaxBatch is the maximum number of pending commands a leader packs
	// into one proposal (default 1, i.e. no batching).
	MaxBatch int
	// CheckpointInterval is the checkpoint period (default 128): every
	// CheckpointInterval applied slots the replica emits a signed
	// checkpoint, and a quorum-certified checkpoint prunes all per-slot
	// state it covers and serves state transfer to lagging replicas (see
	// checkpoint.go, statetransfer.go).
	CheckpointInterval uint64
	// Storage, when non-nil, makes the replica durable (see durable.go):
	// adopted votes are WAL-appended before their acks leave the process,
	// decisions before their effects become visible, the stable-checkpoint
	// snapshot is written at every stabilization (truncating the WAL), and
	// the replica recovers its pre-crash state from the store at
	// construction — including the vote state of in-flight slots, so a
	// recovered replica never equivocates against its own earlier acks.
	// The replica takes ownership of the store and closes it on Close.
	Storage *storage.Store
	// Group is this replica's consensus-group number (see internal/group).
	// It is the replica's whole addressing and signing context: every
	// outgoing frame leads with it, frames and requests addressed to another
	// group are dropped or rejected, replies echo it so a client can
	// demultiplex them, and every signature is bound to it (see slotDomain,
	// logDomain). It also sets the group's leader schedule: view v is led
	// by process (v + Group) mod n (types.Config.WithLeaderShift). Group 0
	// is a group like any other.
	Group uint64
	// Metrics, when set, exports the replica's counters, gauges, and staged
	// request-latency histograms under MetricsLabels (see internal/obs).
	// The replica counts either way — a nil registry hands out live,
	// unexported metrics — so instrumentation adds no branches to the hot
	// path and Stats() reads stay torn-free.
	Metrics *obs.Registry
	// MetricsLabels are the constant labels of this replica's series
	// (typically {group: "<k>"} in a sharded deployment).
	MetricsLabels obs.Labels
	// Logger, when set, receives the replica's diagnostics with leveled
	// severities; nil logs through the standard library logger with the
	// historical message text.
	Logger *obs.Logger
	// Clock is the replica's one time source: every timestamp it takes and
	// every timer it arms goes through it. Nil means the wall clock, which
	// every deployment runs on; tests inject a sim.Network's virtual clock.
	Clock node.Clock
}

// Stats is a point-in-time snapshot of replica counters (see
// Replica.Stats).
type Stats struct {
	// DecidedSlots counts slots decided locally (consensus or certified
	// state-transfer tail).
	DecidedSlots uint64
	// AppliedSlots is the in-order apply frontier (== AppliedCount).
	AppliedSlots uint64
	// AppliedCommands counts well-formed requests executed by the
	// application.
	AppliedCommands uint64
	// MalformedBatches counts decided non-empty slot values that failed
	// DecodeBatch — evidence of a garbage-proposing (Byzantine) leader.
	MalformedBatches uint64
	// Reproposed counts commands returned to the pending queue because the
	// slot that proposed them decided a different value.
	Reproposed uint64
	// InflightCommands is the number of commands currently assigned to live
	// slot proposals; PendingCommands is the number awaiting assignment.
	InflightCommands int
	PendingCommands  int
	// RegimeTimeouts counts regime-timer fires that found no progress and
	// pushed the window into a view change (leader suspicions).
	RegimeTimeouts uint64
	// RegimeTimeout is the suspicion delay the regime timer would use if
	// armed now: the adaptive EWMA-derived value (BaseTimeout while
	// unsampled), scaled by the current backoff.
	RegimeTimeout time.Duration
}

// Replica is one member of the replicated state machine.
type Replica struct {
	cfg      Config
	th       quorum.Thresholds
	interval uint64         // cfg.CheckpointInterval
	store    *storage.Store // cfg.Storage (nil = in-memory replica)
	// logSigner and logVerifier are the signature scheme bound to the
	// group's log-wide domain (checkpoints; see logDomain).
	logSigner   sigcrypto.Signer
	logVerifier sigcrypto.Verifier

	mu         node.Outbox // the replica lock; user callbacks leave through it
	started    bool
	closed     bool
	recovering bool // inside recoverFromStore: no appends, no sends
	start      time.Time
	slots      map[uint64]*slot
	decided    map[uint64]types.Decision
	sessions   map[types.ClientID]*session  // per-client dedup + reply cache
	replyTo    map[types.ClientID]ReplyFunc // local reply routes (not replicated)
	pending    *pendingQueue                // commands awaiting slot assignment
	inflight   map[string]uint64            // command bytes -> live slot proposing it
	next       uint64                       // lowest slot not yet decided locally
	applyPtr   uint64                       // lowest slot not yet applied

	// Counters behind Stats(), registry-backed and atomic (see metrics.go),
	// plus the staged request tracer.
	m  replicaMetrics
	lg *obs.Logger

	// Regime timer: one leader-suspicion timer for the whole window (see
	// pokeRegimeLocked). regimeGen invalidates in-flight AfterFunc fires
	// (stale fires and fires after Close observe a bumped generation);
	// regimeNext/regimeApply snapshot the log frontier when the timer was
	// armed, so a fire can tell progress from a stall; regimeBackoff counts
	// consecutive no-progress fires; ewmaDecide tracks observed decide
	// latency for the adaptive timeout.
	regimeTimer   node.Timer
	regimeGen     uint64
	regimeNext    uint64
	regimeApply   uint64
	regimeBackoff uint
	ewmaDecide    time.Duration

	// Per-view coalescing buffers for windowed view-change traffic: wishes
	// and votes emitted by per-slot instances inside one locked entry are
	// batched and flushed as WindowWish/WindowVote messages at the end of
	// the entry (see flushViewBufsLocked).
	wishBuf map[types.View][]uint64
	voteBuf map[types.View][]msg.WindowVoteEntry

	// Checkpoint / state-transfer state (see checkpoint.go, statetransfer.go).
	certs      map[uint64]*msg.CommitCert            // per-slot commit certificates
	ckptVotes  map[types.ProcessID][]*msg.Checkpoint // recent signed checkpoints per sender
	snaps      map[uint64][]byte                     // own snapshots at interval boundaries
	stable     *msg.CheckpointCert                   // newest quorum-certified checkpoint
	stableSnap []byte                                // snapshot bytes of the stable checkpoint
	ckptDone   uint64                                // 1 + slot of the last emitted checkpoint
	fetchAt    uint64                                // 1 + applyPtr at the last FetchState (0 = sync idle)
	fetchEv    uint64                                // highest lag evidence slot observed
	fetchTime  time.Time                             // when the last FetchState was sent
	fetchTimer node.Timer                            // retry timer of the sync loop
	fetchRR    types.ProcessID                       // peer the last FetchState went to
	fetchCycle int                                   // retries in the current round-robin cycle
	fetchStart uint64                                // applyPtr when the current cycle began
	serveTime  map[types.ProcessID]time.Time         // last StateSnapshot served per requester

	// restoredVotes stages the persisted vote state of in-flight slots
	// recovered from storage, consumed when their instances restart (see
	// durable.go). Non-empty only on a replica recovering from a crash.
	restoredVotes map[uint64]*storage.VoteState

	// Chunked snapshot reassembly (see statetransfer.go).
	chunkAsm *chunkAssembly
}

type slot struct {
	proc *core.Process
	// born is when the instance was opened locally; the decide latency
	// (born to decision) feeds the regime timer's EWMA.
	born time.Time
	// proposed is the disjoint chunk of the pending queue this replica
	// proposed for the slot. The commands are tracked as in-flight until the
	// slot decides; those the decision does not contain are returned to the
	// pending queue (see releaseProposedLocked).
	proposed []Command
	// ackLog mirrors the slot's adopted-vote WAL records (oldest first), so
	// WAL truncation can re-encode the votes of still-in-flight slots.
	// Cleared when the slot decides (the decision record supersedes them).
	// Nil on replicas without storage.
	ackLog []*msg.Propose
	// trace carries the slot's pipeline-stage timestamps (submit is the
	// oldest enqueue time of the slot's chunk on the proposer, and the
	// instance-open time on followers); marks are atomic, so the storage
	// effect queue can stamp durability without the replica lock.
	trace obs.Trace
}

// NewReplica builds an SMR replica.
func NewReplica(cfg Config) (*Replica, error) {
	if err := cfg.Cluster.Validate(); err != nil {
		return nil, err
	}
	// Group g's view v is led by process (v+g) mod n, so the groups of a
	// deployment spread their view-1 leaders across the processes.
	cfg.Cluster = GroupCluster(cfg.Cluster, cfg.Group)
	if cfg.App == nil {
		return nil, errors.New("smr: nil App")
	}
	if cfg.Transport == nil {
		return nil, errors.New("smr: nil Transport")
	}
	if cfg.WindowSize <= 0 {
		cfg.WindowSize = 8
	}
	if cfg.MaxBatch <= 0 {
		cfg.MaxBatch = 1
	}
	if cfg.CheckpointInterval == 0 {
		cfg.CheckpointInterval = 128
	}
	if cfg.Clock == nil {
		cfg.Clock = node.Wall
	}
	r := &Replica{
		cfg:           cfg,
		start:         cfg.Clock.Now(),
		th:            quorum.New(cfg.Cluster),
		interval:      cfg.CheckpointInterval,
		store:         cfg.Storage,
		logSigner:     domainSigner{inner: cfg.Signer, salt: logDomain(cfg.Group)},
		logVerifier:   domainVerifier{inner: cfg.Verifier, salt: logDomain(cfg.Group)},
		slots:         make(map[uint64]*slot),
		decided:       make(map[uint64]types.Decision),
		sessions:      make(map[types.ClientID]*session),
		replyTo:       make(map[types.ClientID]ReplyFunc),
		pending:       newPendingQueue(),
		inflight:      make(map[string]uint64),
		certs:         make(map[uint64]*msg.CommitCert),
		ckptVotes:     make(map[types.ProcessID][]*msg.Checkpoint),
		snaps:         make(map[uint64][]byte),
		serveTime:     make(map[types.ProcessID]time.Time),
		restoredVotes: make(map[uint64]*storage.VoteState),
		wishBuf:       make(map[types.View][]uint64),
		voteBuf:       make(map[types.View][]msg.WindowVoteEntry),
	}
	if cfg.Logger != nil {
		r.lg = cfg.Logger.With("group", cfg.Group)
	}
	r.initMetricsLocked(cfg.Metrics, cfg.MetricsLabels)
	if r.store != nil {
		// A callback is a promise that what it reports survives a crash: it
		// waits for the WAL records appended before it.
		r.mu.Via = r.store.Effect
		if err := r.recoverFromStore(); err != nil {
			return nil, err
		}
	}
	return r, nil
}

// Start begins participating.
func (r *Replica) Start() error {
	r.mu.Lock()
	defer r.mu.Unlock()
	if r.started || r.closed {
		return transport.ErrClosed
	}
	r.started = true
	r.cfg.Transport.SetHandler(r.onPayload)
	if err := r.cfg.Transport.Start(); err != nil {
		return err
	}
	// Re-join the slots the pre-crash incarnation was mid-vote in (no-op
	// without recovered state).
	r.resumeRestoredSlotsLocked()
	r.flushViewBufsLocked()
	// A recovered replica may come back with work outstanding (restored
	// in-flight slots, a recovered pending queue) and a dead leader; the
	// regime timer is its only way forward.
	r.pokeRegimeLocked()
	return nil
}

// Close stops the replica, its storage (draining pending durable effects
// first, so nothing acknowledged is lost in a graceful shutdown), and its
// transport. Callbacks queued so far are delivered before it returns, none
// after; it must not be called from one.
func (r *Replica) Close() error {
	r.mu.Lock()
	if r.closed {
		r.mu.Unlock()
		return nil
	}
	r.closed = true
	// Invalidate any in-flight regime fire (a fire that already dequeued
	// observes the bumped generation and the closed flag and does nothing),
	// then stop the timer itself.
	r.regimeGen++
	if r.regimeTimer != nil {
		r.regimeTimer.Stop()
		r.regimeTimer = nil
	}
	if r.fetchTimer != nil {
		r.fetchTimer.Stop()
	}
	r.mu.Drain()
	if r.store != nil {
		// Queued sends, replies and commit notifications still flow out, and
		// their records hit disk.
		_ = r.store.Close()
	}
	return r.cfg.Transport.Close()
}

// Decided returns the decision for a slot, if any.
func (r *Replica) Decided(s uint64) (types.Decision, bool) {
	r.mu.Lock()
	defer r.mu.Unlock()
	d, ok := r.decided[s]
	return d, ok
}

// AppliedCount returns how many slots have been applied.
func (r *Replica) AppliedCount() uint64 {
	r.mu.Lock()
	defer r.mu.Unlock()
	return r.applyPtr
}

// PendingCount returns the number of commands waiting to be decided:
// queued for assignment or in flight in a live slot proposal.
func (r *Replica) PendingCount() int {
	r.mu.Lock()
	defer r.mu.Unlock()
	return r.pending.Len() + len(r.inflight)
}

// Stats returns a snapshot of the replica's counters. The counters are
// registry-backed atomics, so each value is read torn-free; the queue
// depths and frontier are read under the replica lock as before.
func (r *Replica) Stats() Stats {
	r.mu.Lock()
	defer r.mu.Unlock()
	return Stats{
		DecidedSlots:     r.m.decided.Load(),
		AppliedSlots:     r.applyPtr,
		AppliedCommands:  r.m.applied.Load(),
		MalformedBatches: r.m.malformed.Load(),
		Reproposed:       r.m.reproposed.Load(),
		InflightCommands: len(r.inflight),
		PendingCommands:  r.pending.Len(),
		RegimeTimeouts:   r.m.regime.Load(),
		RegimeTimeout:    r.regimeDelayLocked(),
	}
}

func (r *Replica) now() core.Time { return r.cfg.Clock.Now().Sub(r.start) }

// Signing domains. All groups of a process share the cluster's key pairs
// and number their slots from 0, so every signature covers a domain salt
// ahead of the signed digest — one concatenation per sign or verify — that
// binds it to exactly one context:
//
//   - slotDomain(g, s) for everything slot s's consensus instance signs: a
//     commit certificate harvested from slot j of group g can never
//     authenticate a decision for another slot or another group — neither
//     replayed into their envelopes nor presented in a state-transfer tail;
//   - logDomain(g) for signatures about group g's log as a whole
//     (checkpoints).
//
// The two tags differ from each other and from the msg digest domain bytes,
// and uvarints are self-delimiting, so no two (tag, group, slot, digest)
// tuples render the same signed bytes.
const (
	slotDomainTag = 0xA5
	logDomainTag  = 0xA7
)

func slotDomain(g, s uint64) []byte {
	w := wire.NewWriter(21)
	w.Uint8(slotDomainTag)
	w.Uvarint(g)
	w.Uvarint(s)
	return w.Bytes()
}

func logDomain(g uint64) []byte {
	w := wire.NewWriter(11)
	w.Uint8(logDomainTag)
	w.Uvarint(g)
	return w.Bytes()
}

// domainSigner and domainVerifier bind the replica's signature scheme to
// one signing domain.
type domainSigner struct {
	inner sigcrypto.Signer
	salt  []byte
}

func (s domainSigner) ID() types.ProcessID { return s.inner.ID() }

func (s domainSigner) Sign(msg []byte) sigcrypto.Signature {
	return s.inner.Sign(saltedMsg(s.salt, msg))
}

type domainVerifier struct {
	inner sigcrypto.Verifier
	salt  []byte
}

func (v domainVerifier) Verify(msg []byte, sig sigcrypto.Signature) bool {
	return v.inner.Verify(saltedMsg(v.salt, msg), sig)
}

// saltedMsg concatenates salt and msg with a single allocation; it runs for
// every signature operation on the consensus hot path.
func saltedMsg(salt, msg []byte) []byte {
	out := make([]byte, 0, len(salt)+len(msg))
	out = append(out, salt...)
	return append(out, msg...)
}

// fillWindowLocked starts a consensus instance for every slot in the live
// window [next, next+WindowSize) that has none yet, as long as fresh
// pending commands remain to propose — the pipelining step: each new slot
// consumes its own disjoint chunk of the queue, so up to WindowSize
// proposals replicate concurrently instead of one per consensus round-trip.
// The caller holds r.mu.
//
// Only the leader of view 1 fills the window. Every slot starts at view 1
// with the same leader, so on any other replica a speculatively opened slot
// proposes into an instance whose leader may never pick the same chunk —
// and a chunk assigned to a slot the leader never proposes is orphaned: it
// sits in flight until a view change frees it, stalling the client for a
// full suspicion timeout. Followers keep their commands pending (the
// ctrlSlot forward puts them in the leader's queue) and open instances only
// when slot traffic arrives (ensureSlotLocked) or the regime timer suspects
// the leader. Commands stranded by a leader failure are grafted onto the
// view-change leader's instances instead (see enterSlotViewLocked).
//
// This runs on every request arrival, so the saturated case must stay
// cheap: when the window holds no startable slot the function returns after
// an O(WindowSize) scan, without touching the queue. Compaction (dropping
// queued requests the session table has proven stale, so they never enter a
// proposal batch — a Byzantine or slow client retransmitting executed
// requests must not bloat batches with replays) runs once, and only when a
// slot can actually start.
func (r *Replica) fillWindowLocked() {
	if r.pending.Len() == 0 {
		return
	}
	if r.cfg.Cluster.Leader(1) != r.cfg.Self {
		return
	}
	startable := false
	for s := r.next; s < r.next+uint64(r.cfg.WindowSize); s++ {
		if _, started := r.slots[s]; started {
			continue
		}
		if _, dec := r.decided[s]; dec {
			continue // decided out of order; proposing is pointless
		}
		startable = true
		break
	}
	if !startable {
		return
	}
	r.compactPendingLocked()
	for s := r.next; s < r.next+uint64(r.cfg.WindowSize); s++ {
		if r.pending.Len() == 0 {
			break
		}
		if _, started := r.slots[s]; started {
			continue
		}
		if _, dec := r.decided[s]; dec {
			continue
		}
		r.startSlotLocked(s, true)
	}
}

// takeChunkLocked removes up to MaxBatch commands from the pending queue
// and marks them in flight for slot s. The chunks of concurrent slots are
// disjoint by construction: a command leaves the queue when assigned and
// returns only if its slot decides a different value, so no command is ever
// proposed in two live slots of this replica at once. The caller holds r.mu
// and has compacted the queue.
// It also returns the oldest tracer enqueue timestamp among the chunk's
// commands (0 when untracked), which seeds the slot trace's submit stage.
func (r *Replica) takeChunkLocked(s uint64) ([]Command, int64) {
	chunk, oldest := r.pending.PopFrontTraced(r.cfg.MaxBatch)
	for _, c := range chunk {
		r.inflight[string(c)] = s
	}
	return chunk, oldest
}

// ensureSlotLocked creates the consensus instance for slot s if it is
// within the live window and does not exist yet — the on-traffic path: a
// peer's message arrived for a slot this replica has not started. The
// instance opens without a chunk of its own (only the leader assigns
// chunks; see fillWindowLocked), so an instance opened by a follower can
// never orphan a command.
func (r *Replica) ensureSlotLocked(s uint64) *slot {
	if sl, ok := r.slots[s]; ok {
		return sl
	}
	if s < r.next || s >= r.next+uint64(r.cfg.WindowSize) {
		return nil
	}
	return r.startSlotLocked(s, false)
}

// startSlotLocked creates the instance for slot s. With lead set (the
// leader-driven fill path) the instance proposes a fresh disjoint chunk of
// the pending queue; without it the instance opens with a nil input and
// proposes nothing. A slot with recovered vote state instead restarts from
// that state: its input is the last value it adopted — so a recovered
// leader re-proposes what it already signed rather than equivocating with a
// fresh chunk — and the instance refuses to ack conflicting values in views
// it voted in before the crash. The caller holds r.mu, has bounds-checked s
// against the window, and (when lead is set) has compacted the queue.
func (r *Replica) startSlotLocked(s uint64, lead bool) *slot {
	restored := r.restoredVotes[s]
	var chunk []Command
	var oldest int64
	input := types.Value(nil)
	if restored != nil && len(restored.Acks) > 0 {
		input = restored.Acks[len(restored.Acks)-1].X.Clone()
	} else if lead {
		chunk, oldest = r.takeChunkLocked(s)
		if len(chunk) > 0 {
			input = EncodeBatch(chunk)
		}
	}
	salt := slotDomain(r.cfg.Group, s)
	proc, err := core.NewProcess(r.cfg.Cluster, r.cfg.Self,
		domainSigner{inner: r.cfg.Signer, salt: salt},
		domainVerifier{inner: r.cfg.Verifier, salt: salt},
		input, r.cfg.BaseTimeout)
	if err != nil {
		return nil // configuration was validated at construction; unreachable
	}
	sl := &slot{proc: proc, proposed: chunk, born: r.cfg.Clock.Now()}
	if oldest == 0 {
		// Follower instances (and leaders with an empty queue) have no
		// enqueue timestamp to backfill: their pipeline clock starts when
		// the instance opens locally, so every replica's stage histograms
		// fill, not just the proposer's.
		oldest = r.m.tracer.Nanos(sl.born)
	}
	r.m.tracer.MarkAt(&sl.trace, obs.StageSubmit, oldest)
	r.markStage(sl, obs.StageProposed, sl.born)
	// The hook runs before the instance enters any view this replica leads —
	// ahead of vote collection, however deliveries interleave — so a free
	// selection proposes real pending commands, not a no-op.
	proc.SetEnterHook(func(v types.View) { r.enterSlotViewLocked(s, sl, v) })
	if restored != nil {
		r.restoreSlotVoteLocked(s, sl, restored)
	}
	r.slots[s] = sl
	r.applyActions(s, sl, proc.Init(r.now()))
	return sl
}

// enterSlotViewLocked runs just before slot s enters view v (registered as
// the instance's enter hook). When this replica leads the new view and the
// instance carries nothing — no chunk proposed by this replica, nothing
// adopted in an earlier view — the leader grafts a fresh chunk of the
// pending queue onto the instance. Under leader-driven fill, follower
// instances open with a nil input; without this graft, a view change whose
// selection comes up free would propose a no-op, and the very commands
// whose stall forced the view change would starve. Safety is untouched: the
// input only matters to a free selection, which by definition no collected
// vote constrains. The caller holds r.mu (the hook fires inside
// Deliver/Tick/Init, which always run under it).
func (r *Replica) enterSlotViewLocked(s uint64, sl *slot, v types.View) {
	if v <= 1 || r.cfg.Cluster.Leader(v) != r.cfg.Self {
		return
	}
	if _, dec := r.decided[s]; dec {
		return
	}
	if len(sl.proposed) > 0 || !sl.proc.Replica().CurrentVote().Nil {
		return
	}
	r.compactPendingLocked()
	chunk, oldest := r.takeChunkLocked(s)
	if len(chunk) == 0 {
		return
	}
	sl.proposed = chunk
	if oldest != 0 {
		r.m.tracer.MarkAt(&sl.trace, obs.StageSubmit, oldest)
	}
	r.markStage(sl, obs.StageProposed, r.cfg.Clock.Now())
	sl.proc.Replica().SetInput(EncodeBatch(chunk))
}

// onPayload parses a frame's (group, slot) header and routes the message to
// the instance; a frame addressed to another group is dropped, whether it
// came through a mux view or straight off a raw transport. Every delivery
// ends by flushing coalesced view-change traffic and reconciling the regime
// timer with the (possibly moved) log frontier.
func (r *Replica) onPayload(from types.ProcessID, payload []byte) {
	g, s, inner, ok := openHeader(payload)
	if !ok || g != r.cfg.Group {
		return
	}
	r.mu.Lock()
	defer r.mu.Unlock()
	if r.closed {
		return
	}
	r.routePayloadLocked(from, s, inner)
	r.flushViewBufsLocked()
	r.pokeRegimeLocked()
}

// routePayloadLocked dispatches one decoded envelope. The caller holds r.mu.
func (r *Replica) routePayloadLocked(from types.ProcessID, s uint64, inner []byte) {
	if s == ctrlSlot {
		// A forwarded client request; queue it for proposal unless the
		// session table already proves it executed.
		req, ok := decodeRequest(Command(inner))
		if !ok {
			return
		}
		r.countIn(msg.KindRequest)
		r.enqueueRequestLocked(req, Command(inner))
		r.fillWindowLocked()
		return
	}
	m, err := msg.Decode(inner)
	if err != nil {
		return
	}
	r.countIn(m.Kind())
	if s == syncSlot {
		r.onSyncLocked(from, m)
		return
	}
	if s == viewSlot {
		r.onViewMsgLocked(from, m)
		return
	}
	sl, ok := r.slots[s]
	if !ok {
		sl = r.ensureSlotLocked(s)
		if sl == nil {
			// Traffic beyond the live window means the cluster moved on
			// without us: ask the sender for a state snapshot.
			if s >= r.next+uint64(r.cfg.WindowSize) {
				r.noteBehindLocked(s, from)
			}
			return
		}
	}
	r.applyActions(s, sl, sl.proc.Deliver(from, m, r.now()))
	r.captureCertLocked(s, sl)
}

// onViewMsgLocked unbundles a windowed view-change message into per-slot
// deliveries. Decided slots are skipped (their instances only linger for
// stragglers); slots this replica has not opened yet are opened on demand,
// exactly as per-slot traffic would. The caller holds r.mu.
func (r *Replica) onViewMsgLocked(from types.ProcessID, m msg.Message) {
	switch t := m.(type) {
	case *msg.WindowWish:
		if t.Hi >= r.next+uint64(r.cfg.WindowSize) {
			// The sender is view-changing slots beyond our window: the
			// cluster's frontier is past ours, which is lag evidence just
			// like per-slot traffic beyond the window.
			r.noteBehindLocked(t.Hi, from)
		}
		for s := t.Lo; s <= t.Hi; s++ {
			r.deliverSlotLocked(from, s, &msg.Wish{View: t.View})
		}
	case *msg.WindowVote:
		for i := range t.Entries {
			e := &t.Entries[i]
			// Each entry's signed vote was produced in (and is verified
			// against) the slot's own signing domain, so the per-slot
			// equivocation and restored-ack guards hold exactly as with
			// per-slot Vote messages.
			r.deliverSlotLocked(from, e.Slot, &msg.Vote{View: t.View, SV: e.SV})
		}
	}
}

// deliverSlotLocked routes one unbundled per-slot message to its instance,
// opening it if needed. The caller holds r.mu.
func (r *Replica) deliverSlotLocked(from types.ProcessID, s uint64, m msg.Message) {
	if _, dec := r.decided[s]; dec {
		return
	}
	sl, ok := r.slots[s]
	if !ok {
		if sl = r.ensureSlotLocked(s); sl == nil {
			return
		}
	}
	r.applyActions(s, sl, sl.proc.Deliver(from, m, r.now()))
	r.captureCertLocked(s, sl)
}

// onSyncLocked routes a log-maintenance message; the caller holds r.mu.
func (r *Replica) onSyncLocked(from types.ProcessID, m msg.Message) {
	switch t := m.(type) {
	case *msg.Checkpoint:
		r.onCheckpointLocked(from, t)
	case *msg.FetchState:
		r.onFetchStateLocked(from, t)
	case *msg.StateSnapshot:
		r.onStateSnapshotLocked(from, t)
	case *msg.SnapshotChunk:
		r.onSnapshotChunkLocked(t)
	}
}

// captureCertLocked harvests the commit certificate of a decided slot from
// its consensus instance (ack signatures keep flowing briefly after a fast
// decision, so the certificate may only be available a beat later). The
// certificates authenticate tail decisions during state transfer.
func (r *Replica) captureCertLocked(s uint64, sl *slot) {
	if r.certs[s] != nil {
		return
	}
	if _, decided := r.decided[s]; !decided {
		return
	}
	if cc := sl.proc.Replica().DecisionCert(); cc != nil {
		r.certs[s] = cc
		r.persistCertLocked(s, cc)
	}
}

// ---------------------------------------------------------------------------
// Regime timer: windowed leader suspicion with adaptive timeouts
// ---------------------------------------------------------------------------
//
// One timer watches the whole window instead of one per slot. Leader(v) is
// the same process for every slot at view v, so when the pipeline stalls it
// stalls as a regime: suspecting the leader slot by slot, 500ms at a time,
// serializes WindowSize view changes where one coordinated step suffices.
// The timer is armed whenever work is outstanding, with a snapshot of the
// log frontier (next, applyPtr); a fire that finds the frontier moved is
// progress and re-arms with the backoff reset; a fire that finds it stuck
// ticks every undecided in-flight slot at once — pushing them all into the
// view-change protocol in the same step — and re-arms with the delay
// doubled. The delay itself tracks reality instead of a fixed constant: an
// EWMA of observed decide latency, clamped to [base/16 (min 20ms), base].

// pokeRegimeLocked reconciles the regime timer with the replica's current
// work: stop it when nothing is outstanding, arm it when something is, and
// re-arm (resetting the backoff) when the frontier moved since it was
// armed. Called at the tail of every locked entry point that can change the
// frontier or the workload. The caller holds r.mu.
func (r *Replica) pokeRegimeLocked() {
	if r.closed || !r.started || r.recovering {
		return
	}
	if !r.workOutstandingLocked() {
		r.regimeGen++ // invalidate an in-flight fire racing the Stop
		r.regimeBackoff = 0
		if r.regimeTimer != nil {
			r.regimeTimer.Stop()
			r.regimeTimer = nil
		}
		return
	}
	if r.regimeTimer == nil {
		r.armRegimeLocked()
		return
	}
	if r.next != r.regimeNext || r.applyPtr != r.regimeApply {
		r.regimeBackoff = 0
		r.armRegimeLocked()
	}
}

// workOutstandingLocked reports whether the replica is waiting on the
// leader regime for anything: queued or in-flight commands, or an undecided
// instance in the live window. The caller holds r.mu.
func (r *Replica) workOutstandingLocked() bool {
	if r.pending.Len() > 0 || len(r.inflight) > 0 {
		return true
	}
	for s := range r.slots {
		if s < r.next || s >= r.next+uint64(r.cfg.WindowSize) {
			continue
		}
		if _, dec := r.decided[s]; !dec {
			return true
		}
	}
	return false
}

// armRegimeLocked (re)arms the regime timer with the current adaptive
// delay, snapshotting the frontier so the fire can tell progress from a
// stall. The caller holds r.mu.
func (r *Replica) armRegimeLocked() {
	r.regimeGen++
	gen := r.regimeGen
	r.regimeNext, r.regimeApply = r.next, r.applyPtr
	if r.regimeTimer != nil {
		r.regimeTimer.Stop()
	}
	r.regimeTimer = r.cfg.Clock.AfterFunc(r.regimeDelayLocked(), func() { r.onRegimeTimer(gen) })
}

// regimeDelayLocked computes the current leader-suspicion delay: 4x the
// EWMA of observed decide latency, clamped to [base/16 (at least 20ms),
// base] — so the timeout shrinks toward real latency without ever racing
// honest-but-slow decides — then doubled per consecutive no-progress fire
// (capped at 64x), so repeated failures trade detection latency for
// stability. Before any decide has been observed the delay is the full
// base. The caller holds r.mu.
func (r *Replica) regimeDelayLocked() time.Duration {
	base := r.cfg.BaseTimeout
	if base <= 0 {
		base = viewsync.DefaultBaseTimeout
	}
	d := base
	if r.ewmaDecide > 0 {
		d = 4 * r.ewmaDecide
		floor := base / 16
		if floor < 20*time.Millisecond {
			floor = 20 * time.Millisecond
		}
		if d < floor {
			d = floor
		}
		if d > base {
			d = base
		}
	}
	shift := r.regimeBackoff
	if shift > 6 {
		shift = 6
	}
	return d << shift
}

// onRegimeTimer handles expiry of the regime timer. A stale generation
// (the timer was re-armed or stopped while this fire was in flight) is a
// no-op; a fire that finds the frontier moved re-arms and resets the
// backoff; a fire that finds it stuck suspects the leader regime and ticks
// every undecided in-flight slot into a view change in one step.
func (r *Replica) onRegimeTimer(gen uint64) {
	r.mu.Lock()
	defer r.mu.Unlock()
	if r.closed || gen != r.regimeGen {
		return
	}
	r.regimeTimer = nil
	if !r.workOutstandingLocked() {
		r.regimeBackoff = 0
		return
	}
	if r.next != r.regimeNext || r.applyPtr != r.regimeApply {
		r.regimeBackoff = 0
		r.armRegimeLocked()
		return
	}
	r.m.regime.Inc()
	r.regimeBackoff++
	hi := r.regimeHorizonLocked()
	for s := r.next; s < hi; s++ {
		if _, dec := r.decided[s]; dec {
			continue
		}
		sl, ok := r.slots[s]
		if !ok {
			// Commands are pending but the leader never opened the slot
			// (it is partitioned, dead, or Byzantine-silent): open the
			// instance ourselves so it can change view and the view-change
			// leader can propose the stranded commands.
			if sl = r.ensureSlotLocked(s); sl == nil {
				continue
			}
		}
		r.applyActions(s, sl, sl.proc.Tick(r.now()))
		r.captureCertLocked(s, sl)
	}
	r.flushViewBufsLocked()
	r.pokeRegimeLocked()
}

// regimeHorizonLocked returns the exclusive upper bound of slots a
// no-progress fire pushes into a view change: every undecided in-flight
// slot, plus enough fresh slots to carry the pending queue (a dead leader
// never opened those), always at least one and never beyond the window. The
// caller holds r.mu.
func (r *Replica) regimeHorizonLocked() uint64 {
	hi := r.next + 1
	for s := range r.slots {
		if s < r.next || s >= r.next+uint64(r.cfg.WindowSize) {
			continue
		}
		if _, dec := r.decided[s]; dec {
			continue
		}
		if s+1 > hi {
			hi = s + 1
		}
	}
	if n := r.pending.Len(); n > 0 {
		need := r.next + uint64((n+r.cfg.MaxBatch-1)/r.cfg.MaxBatch)
		if need > hi {
			hi = need
		}
	}
	if lim := r.next + uint64(r.cfg.WindowSize); hi > lim {
		hi = lim
	}
	return hi
}

// flushViewBufsLocked ships the view-change traffic coalesced during one
// locked entry: per view, the slot wishes collapse into WindowWish
// broadcasts (one per contiguous slot run) and the per-slot votes into one
// WindowVote to the view's leader. Wishes and votes carry replica state
// that must not outrun the WAL (a vote in particular is a signed promise),
// so both go through the durably gated send path, like their per-slot
// counterparts. The caller holds r.mu.
func (r *Replica) flushViewBufsLocked() {
	// Flush order is ascending by view for determinism in lockstep tests.
	if len(r.wishBuf) > 0 {
		views := make([]types.View, 0, len(r.wishBuf))
		for v := range r.wishBuf {
			views = append(views, v)
		}
		sort.Slice(views, func(i, j int) bool { return views[i] < views[j] })
		for _, v := range views {
			slots := r.wishBuf[v]
			delete(r.wishBuf, v)
			sort.Slice(slots, func(i, j int) bool { return slots[i] < slots[j] })
			for i := 0; i < len(slots); {
				j := i + 1
				for j < len(slots) && slots[j] <= slots[j-1]+1 && slots[j]-slots[i] < msg.MaxWindowSlots-1 {
					j++
				}
				r.broadcastEnvLocked(r.envOut(viewSlot, &msg.WindowWish{View: v, Lo: slots[i], Hi: slots[j-1]}))
				i = j
			}
		}
	}
	if len(r.voteBuf) > 0 {
		views := make([]types.View, 0, len(r.voteBuf))
		for v := range r.voteBuf {
			views = append(views, v)
		}
		sort.Slice(views, func(i, j int) bool { return views[i] < views[j] })
		for _, v := range views {
			entries := r.voteBuf[v]
			delete(r.voteBuf, v)
			sort.Slice(entries, func(i, j int) bool { return entries[i].Slot < entries[j].Slot })
			to := r.cfg.Cluster.Leader(v)
			for i := 0; i < len(entries); i += msg.MaxWindowSlots {
				j := i + msg.MaxWindowSlots
				if j > len(entries) {
					j = len(entries)
				}
				r.sendEnvLocked(to, r.envOut(viewSlot, &msg.WindowVote{View: v, Entries: entries[i:j]}))
			}
		}
	}
}

// applyActions executes instance actions; the caller holds r.mu. With
// storage, an Ack broadcast first appends the adopted vote behind it to
// the WAL, and every send is released through the store's effect queue —
// so no message betraying un-persisted state can reach the network before
// the state is durable.
func (r *Replica) applyActions(s uint64, sl *slot, actions []core.Action) {
	for _, a := range actions {
		switch act := a.(type) {
		case core.SendAction:
			switch t := act.Msg.(type) {
			case *msg.CertRequest, *msg.CertAck:
				// Stateless verification traffic (see sendOrderedLocked).
				r.sendOrderedLocked(act.To, r.envOut(s, act.Msg))
			case *msg.Vote:
				// Coalesced: a windowed view change makes every in-flight
				// slot vote at once, and the votes of one (view, leader)
				// pair travel as a single WindowVote instead of one message
				// per slot (see flushViewBufsLocked). The target is always
				// Leader(view) — exactly where the flush sends the bundle.
				r.voteBuf[t.View] = append(r.voteBuf[t.View],
					msg.WindowVoteEntry{Slot: s, SV: t.SV.Clone()})
			default:
				// Anything else that exposes replica state waits for
				// durability.
				r.sendEnvLocked(act.To, r.envOut(s, act.Msg))
			}
		case core.BroadcastAction:
			switch t := act.Msg.(type) {
			case *msg.Ack:
				r.persistVoteLocked(s, sl)
				r.broadcastEnvLocked(r.envOut(s, act.Msg))
			case *msg.Commit:
				// A commit message commits the replica to nothing a crash
				// could make it contradict (see sendOrderedLocked): it
				// keeps its place in the send order but skips the fsync.
				// (A Propose could in principle do the same — the protocol
				// tolerates equivocating leaders — but letting the propose
				// wave outrun the rest of the pipeline measurably widens
				// the window in which a slow replica opens slots on traffic
				// it cannot yet act on; proposals stay durably gated.)
				// A commit broadcast is the moment this replica saw an ack
				// quorum for the slot's value — the tracer's ackquorum stage.
				r.markStage(sl, obs.StageAckQuorum, r.cfg.Clock.Now())
				r.broadcastOrderedLocked(r.envOut(s, act.Msg))
			case *msg.Wish:
				// Coalesced like votes: the wishes of one view collapse
				// into WindowWish range broadcasts at flush. The slot's own
				// synchronizer already counted the wish locally, so
				// buffering loses nothing on this replica.
				r.wishBuf[t.View] = append(r.wishBuf[t.View], s)
			default:
				r.broadcastEnvLocked(r.envOut(s, act.Msg))
			}
		case core.TimerAction:
			// Per-slot deadlines are superseded by the regime timer: one
			// adaptive timer watches the whole window (see
			// pokeRegimeLocked), and viewsync's OnTimeout is idempotent per
			// view, so coarser-grained fires are safe.
		case core.DecideAction:
			r.onDecideLocked(s, act.Decision)
		case core.EnterViewAction:
			// The input graft runs through the instance's enter hook (see
			// enterSlotViewLocked); here the event is only counted — entering
			// any view beyond the first means a leader was given up on.
			if act.View >= 2 {
				r.m.viewsTotal.Inc()
			}
		}
	}
}

// onDecideLocked records a slot decision and advances the log. The
// decision record is appended to the WAL before any effect of the decision
// (apply, replies, commit callbacks, subsequent messages) is scheduled.
func (r *Replica) onDecideLocked(s uint64, d types.Decision) {
	if _, dup := r.decided[s]; dup {
		return
	}
	if s < r.applyPtr {
		return // already applied (and possibly pruned); re-recording would leak
	}
	r.persistDecisionLocked(s, d)
	if sl, ok := r.slots[s]; ok {
		sl.ackLog = nil // the decision record supersedes the slot's vote records
		now := r.cfg.Clock.Now()
		// Feed the adaptive suspicion timeout: EWMA (alpha = 1/4) of
		// instance-open-to-decide latency.
		lat := now.Sub(sl.born)
		if r.ewmaDecide == 0 {
			r.ewmaDecide = lat
		} else {
			r.ewmaDecide = (3*r.ewmaDecide + lat) / 4
		}
		r.markStage(sl, obs.StageDecided, now)
		if r.store != nil && !r.recovering {
			// The decision record just entered the store's write pipeline;
			// its effect fires once the record is fsynced, which is when the
			// decision became durable. Trace marks are atomic, so stamping
			// from the effect goroutine without r.mu is safe.
			tr := &sl.trace
			r.store.Effect(func() { r.m.tracer.Mark(tr, obs.StageDurable, r.cfg.Clock.Now()) })
		}
	}
	delete(r.restoredVotes, s)
	r.decided[s] = d
	r.m.decided.Inc()
	if d.Path == types.SlowPath {
		r.m.pathSlow.Inc()
	} else {
		r.m.pathFast.Inc()
	}
	r.releaseProposedLocked(s, d.Value)
	r.advanceLocked()
}

// releaseProposedLocked settles slot s's in-flight chunk against the value
// the slot decided: every proposed command leaves the in-flight index, and
// the ones the decision does not contain are returned to the front of the
// pending queue (unless meanwhile stale) so a later window slot re-proposes
// them. The caller holds r.mu.
func (r *Replica) releaseProposedLocked(s uint64, decided types.Value) {
	sl, ok := r.slots[s]
	if !ok || len(sl.proposed) == 0 {
		return
	}
	inDecided := make(map[string]bool)
	if len(decided) > 0 {
		if cmds, err := DecodeBatch(decided); err == nil {
			for _, c := range cmds {
				inDecided[string(c)] = true
			}
		}
	}
	// Walk in reverse so PushFront restores the chunk's original order.
	for i := len(sl.proposed) - 1; i >= 0; i-- {
		c := sl.proposed[i]
		delete(r.inflight, string(c))
		if inDecided[string(c)] {
			continue // the decision carries it; the apply loop executes it
		}
		if req, ok := decodeRequest(c); !ok || r.staleLocked(req) {
			continue // executed through another slot's batch meanwhile
		}
		if r.pending.PushFront(c) {
			r.m.reproposed.Inc()
		}
	}
	sl.proposed = nil
}

// releaseSlotLocked returns a slot's whole in-flight chunk to the pending
// queue — used when the instance is discarded without a locally observed
// decision (state transfer restored past it). Commands the restored session
// table proves executed are dropped instead. The caller holds r.mu.
func (r *Replica) releaseSlotLocked(sl *slot) {
	for i := len(sl.proposed) - 1; i >= 0; i-- {
		c := sl.proposed[i]
		delete(r.inflight, string(c))
		if req, ok := decodeRequest(c); !ok || r.staleLocked(req) {
			continue
		}
		r.pending.PushFront(c)
	}
	sl.proposed = nil
}

// advanceLocked applies consecutive decided slots, garbage-collects stale
// instances, and keeps the live window full while commands are pending. It
// is the common tail of deciding a slot and of restoring a snapshot
// (restoring can unblock already-decided successors of the restored
// checkpoint).
func (r *Replica) advanceLocked() {
	// Advance the lowest-undecided pointer.
	for {
		if _, ok := r.decided[r.next]; !ok {
			break
		}
		r.next++
	}
	// Apply decided slots in order. Slots may have decided out of order;
	// applyPtr only moves over a contiguous decided prefix, so application
	// (and commit observation) is strictly in slot order. Each slot value is
	// a batch of encoded requests; the session table skips requests already
	// executed through an earlier slot, so resubmissions and overlapping
	// batches stay idempotent (exactly-once per (client, seq)).
	for {
		dd, ok := r.decided[r.applyPtr]
		if !ok {
			break
		}
		if r.cfg.OnCommit != nil {
			// Posted ahead of the slot's replies, delivered after the lock is
			// released — by when the slot has been applied.
			s := r.applyPtr
			r.mu.Post(func() { r.cfg.OnCommit(s, Command(dd.Value), dd) })
		}
		if len(dd.Value) > 0 {
			if cmds, err := DecodeBatch(dd.Value); err == nil {
				for _, cmd := range cmds {
					if len(cmd) == 0 {
						continue
					}
					r.executeRequestLocked(r.applyPtr, cmd)
				}
			} else {
				// A decided value that is not a batch can only come from a
				// Byzantine leader; the slot still advances the log, but the
				// event must be observable.
				r.m.malformed.Inc()
				r.lg.Warnf("smr: replica %s: slot %d decided a malformed batch (%d bytes): %v",
					r.cfg.Self, r.applyPtr, len(dd.Value), err)
			}
		}
		if sl, ok := r.slots[r.applyPtr]; ok {
			r.markStage(sl, obs.StageApplied, r.cfg.Clock.Now())
		}
		r.applyPtr++
		r.maybeCheckpointLocked()
	}
	// Garbage-collect instances far behind the live window so stragglers
	// can still catch up on recent slots.
	const keepDecided = 4
	for num := range r.slots {
		if num+keepDecided < r.next {
			delete(r.slots, num)
		}
	}
	// Keep replicating while fresh commands are queued.
	r.fillWindowLocked()
}

// dropPending removes an applied command from the proposal queue in O(1)
// (see pendingQueue); it runs once per applied command, so it must not scan.
func (r *Replica) dropPending(cmd Command) {
	r.pending.Remove(cmd)
}

// newFrame starts a replica-to-replica frame: the header uvarint(group) ‖
// uvarint(slot), after which the caller encodes the message into the same
// buffer. That is the whole frame — transport.GroupMux routes on the leading
// uvarint without rewriting it — so a frame is bit-identical whether the
// replica sits behind a mux view or on a raw transport.
func newFrame(g, s uint64) *wire.Writer {
	w := wire.NewWriter(128)
	w.Uvarint(g)
	w.Uvarint(s)
	return w
}

// envelope frames one message for slot s of group g.
func envelope(g, s uint64, m msg.Message) []byte {
	w := newFrame(g, s)
	msg.EncodeTo(w, m)
	return w.Bytes()
}

// openHeader splits a frame into its group, its slot, and the encoded
// message behind the header.
func openHeader(frame []byte) (g, s uint64, inner []byte, ok bool) {
	rd := wire.NewReader(frame)
	g = rd.Uvarint()
	s = rd.Uvarint()
	if rd.Err() != nil {
		return 0, 0, nil, false
	}
	return g, s, frame[len(frame)-rd.Remaining():], true
}

// String renders replica status for logs.
func (r *Replica) String() string {
	r.mu.Lock()
	defer r.mu.Unlock()
	return fmt.Sprintf("smr[%s next=%d applied=%d pending=%d inflight=%d]",
		r.cfg.Self, r.next, r.applyPtr, r.pending.Len(), len(r.inflight))
}
