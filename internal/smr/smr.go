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
// Every slot opens one way (ensureSlotLocked: for the fill, on a peer's
// traffic, on a regime fire, or to resume recovered vote state), with no
// input, and gets commands one way (feedSlotLocked), from the leader of its
// view: the replica that leads view 1 (and with it the current leader
// regime — leader(v) is the same process for every slot at view v) feeds
// pending-queue chunks to the window's slots, however they opened, and a
// later view's leader feeds the slot it takes over. Followers keep their
// commands queued. This is what makes slot assignment crash-consistent — a
// follower can never strand a command in a slot the leader will not
// propose — and what keeps a peer's frame, junk or not, from making the
// leader skip a slot. Leader failure is handled per regime, not per
// slot: one adaptive timer (EWMA of decide latency, exponential backoff,
// reset on progress) watches the whole window, and when it fires every
// in-flight slot changes view in one coordinated step, each slot then
// speaking its own Wish and Vote like any other consensus message (see
// pokeRegimeLocked).
//
// Every command is an encoded msg.Request carrying a (client, sequence)
// pair; replicas deduplicate by per-client session tables (see session.go),
// cache the last reply per client for retransmissions, and prune inactive
// sessions at checkpoint boundaries — so dedup memory is bounded by active
// clients, not by log length. Clients submit through HandleRequest, a
// correct client to the view-1 leader once every replica holds a reply
// route for its session, and to every replica otherwise (see
// internal/client for a full retransmitting client); a follower relays a
// fresh request once, to the view-1 leader, so a request reaches the
// replica that proposes it even when the client skipped that replica, and
// no replica relays to all.
package smr

import (
	"errors"
	"fmt"
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

// ctrlSlot is the reserved envelope slot number of the request relay: a
// replica that does not lead view 1 sends each fresh client request it
// receives to the one that does, which fills the window (without the relay,
// a request handed to a follower alone would starve). The relay is one hop;
// a relayed request is queued, never relayed again.
const ctrlSlot = ^uint64(0)

// syncSlot is the reserved envelope slot number carrying log-maintenance
// messages (Checkpoint, FetchState, and the StateSnapshot frames that
// answer a fetch); they concern the log as a whole, not one consensus
// instance.
const syncSlot = ^uint64(0) - 1

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
	// (and seeds it while no decide latency has been observed yet), and is
	// every slot's view-1 timer (viewsync.DefaultBaseTimeout, 500ms, if
	// zero).
	BaseTimeout time.Duration
	// WindowSize bounds how many consensus instances may be live at once
	// (default 8): the replica participates in slots
	// [lowestUndecided, lowestUndecided+WindowSize), and the view-1 leader
	// feeds a batch to every slot in the window that can take one while a
	// batch is ready (see MaxBatch). Traffic for the next WindowSize slots
	// past the window is kept, within a per-sender bound, and delivered
	// once the window reaches its slot.
	WindowSize int
	// MaxBatch is the maximum number of pending commands a leader packs
	// into one proposal (default 1, i.e. no batching). A full batch is
	// proposed at once; a partial one only while none of the leader's
	// proposals is in flight, and otherwise it keeps filling until a slot
	// decides (see fillWindowLocked).
	MaxBatch int
	// CheckpointInterval is the checkpoint period (default 128): every
	// CheckpointInterval applied slots the replica emits a signed
	// checkpoint, and a quorum-certified checkpoint prunes all per-slot
	// state it covers and serves state transfer to lagging replicas (see
	// checkpoint.go, statetransfer.go).
	CheckpointInterval uint64
	// Storage, when non-nil, makes the replica durable (see durable.go):
	// adopted votes are WAL-appended before their acks leave the process,
	// decisions before their effects become visible, every stabilization
	// installs a new WAL headed by the checkpoint's snapshot record and
	// holding only the records above it, and the replica recovers its
	// pre-crash state from the store at construction — including the vote
	// state of in-flight slots, so a recovered replica never equivocates
	// against its own earlier acks.
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
	// path. The registry is the only way to read the counters.
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

	// Registry-backed atomic counters (see metrics.go), plus the staged
	// request tracer.
	m  replicaMetrics
	lg *obs.Logger

	// Regime timer: one leader-suspicion timer for the whole window (see
	// pokeRegimeLocked). regimeGen invalidates in-flight AfterFunc fires
	// (stale fires and fires after Close observe a bumped generation);
	// regimeNext/regimeApply snapshot the log frontier when the timer was
	// armed, so a fire can tell progress from a stall; regimeBackoff counts
	// consecutive no-progress fires; regimeAsked marks a stall whose first
	// stage already put suspicion off once on a peer's evidence (see
	// easeStallLocked); ewmaDecide tracks observed decide latency for the
	// adaptive timeout.
	regimeTimer   node.Timer
	regimeGen     uint64
	regimeNext    uint64
	regimeApply   uint64
	regimeBackoff uint
	regimeAsked   bool
	ewmaDecide    time.Duration

	// lazy is the slow-path bias: whether the last slot this replica
	// decided by consensus decided on the fast path. A slot opens with its
	// AckSig held while it is set (see ensureSlotLocked). It starts clear —
	// a replica that has decided nothing since boot or recovery signs
	// eagerly — and a state-transfer decision does not move it.
	lazy bool

	// Checkpoint / state-transfer state (see checkpoint.go, statetransfer.go).
	ckptVotes  map[types.ProcessID][]*msg.Checkpoint      // recent signed checkpoints per sender
	snaps      map[uint64][]byte                          // own snapshots at interval boundaries
	stable     *msg.CheckpointCert                        // newest quorum-certified checkpoint
	stableSnap []byte                                     // snapshot bytes of the stable checkpoint
	ckptDone   uint64                                     // 1 + slot of the last emitted checkpoint
	fetchAt    uint64                                     // 1 + applyPtr at the last FetchState (0 = sync idle)
	fetchEv    uint64                                     // highest lag evidence slot observed
	fetchTime  time.Time                                  // when the last FetchState was sent
	fetchTimer node.Timer                                 // retry timer of the sync loop
	fetchRR    types.ProcessID                            // peer the last FetchState went to
	fetchCycle int                                        // retries in the current round-robin cycle
	fetchStart uint64                                     // applyPtr when the current cycle began
	fetchFan   bool                                       // the round's f further asks are still to go out
	fetchWide  node.Timer                                 // the round's widening timer (see fanOutLocked)
	fetchRound uint64                                     // fetch rounds started
	fetchFanAt uint64                                     // applyPtr when the round fanned out
	tails      map[types.ProcessID]map[uint64]types.Value // tail claims per responder (see tallyTailLocked)
	served     map[types.ProcessID]served                 // last full response and tail end per requester

	// restoredVotes stages the persisted vote state of in-flight slots
	// recovered from storage, consumed when their instances restart (see
	// durable.go). Non-empty only on a replica recovering from a crash.
	restoredVotes map[uint64]*storage.VoteState

	// Reassembly of a streamed state-transfer snapshot (see
	// statetransfer.go).
	chunkAsm *chunkAssembly

	// ahead holds, in arrival order, the messages for slots just past the
	// live window, [next+W, next+2W), until advanceLocked slides the window
	// over them (see holdAheadLocked); aheadFrames and aheadBytes count
	// them per sender. replaying marks advanceLocked's replay loop, so that
	// a decision it causes does not start a second one.
	ahead       []aheadMsg
	aheadFrames []int
	aheadBytes  []int
	replaying   bool
}

// aheadMsg is one message held for a slot past the live window; size is its
// encoded length.
type aheadMsg struct {
	from types.ProcessID
	s    uint64
	m    msg.Message
	size int
}

// aheadFramesPerSlot and maxAheadBytes bound what one sender can park past
// the window: aheadFramesPerSlot·WindowSize messages and maxAheadBytes
// encoded bytes. A correct sender sends a replica a handful of messages per
// slot (Propose, Ack, AckSig and Commit; Wish and Vote in a view change),
// so the bound holds everything a correct peer sends for the W slots past
// the window. Past it a message is dropped, like one for a slot at or past
// next+2W: the sender's later traffic or state transfer makes up for it.
const (
	aheadFramesPerSlot = 8
	maxAheadBytes      = 1 << 20
)

type slot struct {
	proc *core.Process
	// signer and verifier are the instance's, bound to the slot's signing
	// domain; they live here so the slot is one allocation with them.
	signer   domainSigner
	verifier domainVerifier
	// born is when the instance was opened locally; the decide latency
	// (born to decision) feeds the regime timer's EWMA.
	born time.Time
	// proposed is the disjoint chunk of the pending queue this replica fed
	// the slot (see feedSlotLocked). The commands are tracked as in-flight
	// until the slot decides; those the decision does not contain are
	// returned to the pending queue (see releaseProposedLocked).
	proposed []Command
	// trace carries the slot's pipeline-stage timestamps (submit is the
	// oldest enqueue time of the slot's chunk on the proposer, and the
	// instance-open time elsewhere; see markStage); marks are atomic, so the
	// storage effect queue can stamp durability without the replica lock.
	trace obs.Trace
	// peerAcked is set once a peer's Ack for the slot arrived: its leader
	// proposed, so a stall here may be a quorum running late rather than
	// a dead leader (see easeStallLocked).
	peerAcked bool
	// lone is the peer whose frame opened the slot, for as long as no other
	// peer's frame has arrived for it and this replica has not voted in it;
	// types.NoProcess otherwise, and for a slot this replica opened itself
	// or holds a restored vote for. Nobody but that one sender could be
	// waiting on a lone slot, so it is not outstanding work (see
	// workOutstandingLocked).
	lone types.ProcessID
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
	if cfg.BaseTimeout <= 0 {
		cfg.BaseTimeout = viewsync.DefaultBaseTimeout
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
		slots:         make(map[uint64]*slot),
		decided:       make(map[uint64]types.Decision),
		sessions:      make(map[types.ClientID]*session),
		replyTo:       make(map[types.ClientID]ReplyFunc),
		pending:       newPendingQueue(),
		inflight:      make(map[string]uint64),
		ckptVotes:     make(map[types.ProcessID][]*msg.Checkpoint),
		snaps:         make(map[uint64][]byte),
		served:        make(map[types.ProcessID]served),
		restoredVotes: make(map[uint64]*storage.VoteState),
		aheadFrames:   make([]int, cfg.Cluster.N),
		aheadBytes:    make([]int, cfg.Cluster.N),
	}
	if cfg.Logger != nil {
		r.lg = cfg.Logger.With("group", cfg.Group)
	}
	r.initMetricsLocked(cfg.Metrics, cfg.MetricsLabels)
	r.logSigner, r.logVerifier = r.signerFor(logDomain(cfg.Group)), r.verifierFor(logDomain(cfg.Group))
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
	if r.fetchWide != nil {
		r.fetchWide.Stop()
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

func (r *Replica) now() core.Time { return r.cfg.Clock.Now().Sub(r.start) }

// Signing domains. All groups of a process share the cluster's key pairs
// and number their slots from 0, so every signature covers a domain salt
// ahead of the signed digest — one concatenation per sign or verify — that
// binds it to exactly one context:
//
//   - slotDomain(g, s) for everything slot s's consensus instance signs: a
//     commit certificate harvested from slot j of group g, replayed into
//     another slot's or another group's envelopes, authenticates nothing;
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
// one signing domain. Each call is one real signature operation (a consensus
// instance's memo of verified signatures sits above its verifier), counted
// in calls: the replica's fastbft_signatures_total series, or nothing when
// nil, as in the adversary hooks.
type domainSigner struct {
	inner sigcrypto.Signer
	salt  []byte
	calls *obs.Counter
}

func (s domainSigner) ID() types.ProcessID { return s.inner.ID() }

func (s domainSigner) Sign(msg []byte) sigcrypto.Signature {
	s.calls.Inc()
	return s.inner.Sign(saltedMsg(s.salt, msg))
}

type domainVerifier struct {
	inner sigcrypto.Verifier
	salt  []byte
	calls *obs.Counter
}

func (v domainVerifier) Verify(msg []byte, sig sigcrypto.Signature) bool {
	v.calls.Inc()
	return v.inner.Verify(saltedMsg(v.salt, msg), sig)
}

// signerFor and verifierFor bind the replica's scheme to the signing domain
// salt, counted in its metrics.
func (r *Replica) signerFor(salt []byte) domainSigner {
	return domainSigner{inner: r.cfg.Signer, salt: salt, calls: r.m.signs}
}

func (r *Replica) verifierFor(salt []byte) domainVerifier {
	return domainVerifier{inner: r.cfg.Verifier, salt: salt, calls: r.m.verifies}
}

// saltedMsg concatenates salt and msg with a single allocation; it runs for
// every signature operation on the consensus hot path.
func saltedMsg(salt, msg []byte) []byte {
	out := make([]byte, 0, len(salt)+len(msg))
	out = append(out, salt...)
	return append(out, msg...)
}

// fillWindowLocked feeds a chunk of the pending queue to every slot of the
// live window [next, next+WindowSize) that can take one, as long as a batch
// is ready to propose — the pipelining step: each slot consumes its own
// disjoint chunk of the queue, so up to WindowSize proposals replicate
// concurrently instead of one per consensus round-trip. A slot can take a
// chunk if it is undecided and has no instance yet, or has one still in view
// 1 with no input (core's AwaitsInput) — a peer's frame opened it first,
// which fault-free never happens at the leader, but a Byzantine peer can do
// for every slot at the cost of one junk Ack each. Either way the slot opens
// through ensureSlotLocked and takes its chunk through feedSlotLocked, so
// the fill treats both alike. The caller holds r.mu.
//
// A batch is ready when it is full (MaxBatch pending commands), or when it
// is partial and none of this leader's proposals is in flight. So a lone
// request on an idle window goes out at once, while under load a partial
// batch keeps filling until a slot decides (advanceLocked calls back in):
// it could not be applied before that slot anyway, apply being in slot
// order. At MaxBatch 1 every non-empty queue is a full batch.
//
// Only the leader of view 1 fills the window. Every slot starts at view 1
// with the same leader, so on any other replica a chunk fed to a slot goes
// into an instance whose leader may never pick the same chunk — and a chunk
// assigned to a slot the leader never proposes is orphaned: it sits in
// flight until a view change frees it, stalling the client for a full
// suspicion timeout. Followers keep their commands pending (the ctrlSlot
// relay puts them in the leader's queue). Commands stranded by a leader
// failure are fed to the view-change leader's instances instead (see
// enterSlotViewLocked).
//
// This runs on every request arrival, so the saturated case must stay
// cheap: when the window holds no slot to feed the function returns after an
// O(WindowSize) scan that allocates nothing, without touching the queue.
// Compaction (dropping queued requests the session table has proven stale,
// so they never enter a proposal batch — a Byzantine or slow client
// retransmitting executed requests must not bloat batches with replays)
// runs once, and only when a slot can actually take a chunk.
func (r *Replica) fillWindowLocked() {
	if r.cfg.Cluster.Leader(1) != r.cfg.Self {
		return
	}
	compacted := false
	for s := r.next; s < r.next+uint64(r.cfg.WindowSize) && r.batchReadyLocked(); s++ {
		if !r.fillableLocked(s) {
			continue
		}
		if !compacted {
			r.compactPendingLocked()
			compacted = true
			if !r.batchReadyLocked() {
				return
			}
		}
		r.feedSlotLocked(s, r.ensureSlotLocked(s))
	}
}

// fillableLocked reports whether slot s can take a chunk from the fill: it
// is undecided, and it has no instance or one in view 1 with no input (see
// fillWindowLocked). The caller holds r.mu.
func (r *Replica) fillableLocked(s uint64) bool {
	if _, dec := r.decided[s]; dec {
		return false // decided out of order; proposing is pointless
	}
	sl, ok := r.slots[s]
	return !ok || sl.proc.Replica().AwaitsInput()
}

// batchReadyLocked reports whether the pending queue holds a batch to
// propose now: a full one, or a partial one while no proposal of this
// replica is in flight (see fillWindowLocked). The caller holds r.mu.
func (r *Replica) batchReadyLocked() bool {
	n := r.pending.Len()
	return n >= r.cfg.MaxBatch || (n > 0 && len(r.inflight) == 0)
}

// ensureSlotLocked returns slot s's consensus instance, opening it if s is
// in the live window and has none. It is the only way an instance opens: for
// the fill, on a peer's traffic, on a regime fire, and to resume a slot whose
// vote state a restart recovered. The instance opens with no input, so it
// proposes nothing until feedSlotLocked gives it a chunk. A slot with
// recovered vote state instead restarts from that state: its input is the
// last value it adopted — so a recovered leader re-proposes what it already
// signed rather than equivocating with a fresh chunk — and the instance
// refuses to ack conflicting values in views it voted in before the crash.
// It returns nil for a slot outside the window. The caller holds r.mu.
func (r *Replica) ensureSlotLocked(s uint64) *slot {
	if sl, ok := r.slots[s]; ok {
		return sl
	}
	if s < r.next || s >= r.next+uint64(r.cfg.WindowSize) {
		return nil
	}
	restored := r.restoredVotes[s]
	var input types.Value
	if restored != nil && len(restored.Acks) > 0 {
		input = restored.Acks[len(restored.Acks)-1].X
	}
	salt := slotDomain(r.cfg.Group, s)
	sl := &slot{born: r.cfg.Clock.Now(), lone: types.NoProcess, signer: r.signerFor(salt), verifier: r.verifierFor(salt)}
	proc, err := core.NewProcess(r.cfg.Cluster, r.cfg.Self, &sl.signer, &sl.verifier, input, r.cfg.BaseTimeout)
	if err != nil {
		return nil // configuration was validated at construction; unreachable
	}
	sl.proc = proc
	// The hook runs before the instance enters any view this replica leads —
	// ahead of vote collection, however deliveries interleave — so a free
	// selection proposes real pending commands, not a no-op.
	proc.SetEnterHook(func(v types.View) { r.enterSlotViewLocked(s, sl, v) })
	if r.lazy {
		// The last consensus decision was fast: bet that this slot's is
		// too, and sign its AckSig only if it turns out late.
		proc.Replica().HoldAckSig(true)
	}
	if restored != nil {
		r.restoreSlotVoteLocked(s, sl, restored)
	}
	r.slots[s] = sl
	r.applyActions(s, sl, proc.Init(r.now()))
	return sl
}

// feedSlotLocked gives slot s's instance a chunk of up to MaxBatch pending
// commands as its input and carries out what follows (core's SetInput: in
// view 1, leader(1) proposes the chunk at once). It is the only way a slot
// gets commands: from the fill in view 1 and from the graft in a later view
// (enterSlotViewLocked). The chunk's commands leave the queue and are marked
// in flight for s, so the chunks of concurrent slots are disjoint: a command
// returns to the queue only if its slot decides a different value, and is
// never proposed in two live slots of this replica at once. The slot's
// submit stage is the chunk's oldest enqueue time. An empty queue feeds
// nothing. The caller holds r.mu and has compacted the queue.
func (r *Replica) feedSlotLocked(s uint64, sl *slot) {
	chunk, oldest := r.pending.PopFrontTraced(r.cfg.MaxBatch)
	if len(chunk) == 0 {
		return
	}
	for _, c := range chunk {
		r.inflight[string(c)] = s
	}
	sl.proposed = chunk
	r.m.tracer.MarkAt(&sl.trace, obs.StageSubmit, oldest)
	r.markStage(sl, obs.StageProposed, r.cfg.Clock.Now())
	r.applyActions(s, sl, sl.proc.Replica().SetInput(EncodeBatch(chunk)))
}

// enterSlotViewLocked runs just before slot s enters view v (registered as
// the instance's enter hook, the one place the replica observes view
// entry). Entering any view beyond the first means a leader was given up on,
// and is counted. When this replica leads the new view and the instance
// carries nothing — no chunk of this replica's, nothing adopted in an
// earlier view — the new leader feeds it a chunk of the pending queue
// (feedSlotLocked, as the fill does in view 1): the graft. Without it a view
// change whose selection comes up free would propose a no-op, and the very
// commands whose stall forced the view change would starve. Safety is
// untouched: the input only matters to a free selection, which by
// definition no collected vote constrains. The caller holds r.mu (the hook
// fires inside Deliver/Tick/Init, which always run under it).
func (r *Replica) enterSlotViewLocked(s uint64, sl *slot, v types.View) {
	if v <= 1 {
		return
	}
	r.m.viewsTotal.Inc()
	if r.cfg.Cluster.Leader(v) != r.cfg.Self {
		return
	}
	if _, dec := r.decided[s]; dec {
		return
	}
	if len(sl.proposed) > 0 || !sl.proc.Replica().CurrentVote().Nil {
		return
	}
	r.compactPendingLocked()
	r.feedSlotLocked(s, sl)
}

// onPayload parses a frame's (group, slot) header and routes the message to
// the instance; a frame addressed to another group is dropped, whether it
// came through a mux view or straight off a raw transport. Every delivery
// ends by reconciling the regime timer with the (possibly moved) log
// frontier.
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
	r.pokeRegimeLocked()
}

// routePayloadLocked dispatches one decoded envelope. inner is the tail of
// a frame the transport handed this replica alone, so a request or a
// consensus message decodes without copying (msg.DecodeOwned): what it
// keeps of the frame — a queued request, a value a tally records, a message
// held past the window — is never written, and lives no longer than its
// slot. Log-maintenance messages are copied out (msg.Decode): a tail
// decision or a checkpoint digest outlives the slot, and aliased, would
// keep a whole state-transfer response alive. The caller holds r.mu.
func (r *Replica) routePayloadLocked(from types.ProcessID, s uint64, inner []byte) {
	if s == ctrlSlot {
		// A client request relayed by a follower; it passes HandleRequest's
		// admission check and is queued for proposal unless the session
		// table already proves it executed. It is not relayed again.
		req, ok := decodeRequest(Command(inner))
		if !ok || r.checkRequest(req) != nil {
			return
		}
		r.countIn(msg.KindRequest)
		r.enqueueRequestLocked(req, Command(inner))
		r.fillWindowLocked()
		return
	}
	if s == syncSlot {
		m, err := msg.Decode(inner)
		if err != nil {
			return
		}
		r.countIn(m.Kind())
		r.onSyncLocked(from, m)
		return
	}
	m, err := msg.DecodeOwned(inner)
	if err != nil {
		return
	}
	r.countIn(m.Kind())
	r.deliverSlotLocked(from, s, m, len(inner))
}

// deliverSlotLocked hands message m (size encoded bytes) for slot s to the
// slot's instance, opening it if s is in the live window. A message for a
// slot past the window is held for replay if its slot is within one more
// window. One that cannot be held is evidence that the cluster moved on
// beyond what the window can absorb, and so is any while nothing this
// replica holds can slide the window (frontierIdleLocked; a replica just
// restarted, say): either asks the sender for state. A message held while
// the window is moving asks only if it stays stuck for a regime delay
// (see easeStallLocked). The caller holds r.mu.
func (r *Replica) deliverSlotLocked(from types.ProcessID, s uint64, m msg.Message, size int) {
	switch m.(type) {
	case *msg.Wish, *msg.Vote:
		// A decided slot's instance lingers only to serve stragglers; a
		// view change there would be counted as one without changing
		// anything.
		if _, dec := r.decided[s]; dec {
			return
		}
	}
	sl, ok := r.slots[s]
	if !ok {
		_, restored := r.restoredVotes[s]
		sl = r.ensureSlotLocked(s)
		if sl == nil {
			if s >= r.next+uint64(r.cfg.WindowSize) && (!r.holdAheadLocked(from, s, m, size) || r.frontierIdleLocked()) {
				r.noteBehindLocked(s, from)
			}
			return
		}
		if from != r.cfg.Self && !restored {
			sl.lone = from
		}
	} else if sl.lone != from {
		sl.lone = types.NoProcess
	}
	acts := sl.proc.Deliver(from, m, r.now())
	switch m.(type) {
	case *msg.Ack:
		sl.peerAcked = sl.peerAcked || from != r.cfg.Self
	case *msg.AckSig:
		// An instance answers an AckSig with its own only when the AckSig
		// ended its hold: a peer started the slot's slow path (core's
		// HoldAckSig).
		if hasAckSig(acts) {
			r.m.slowPeer.Inc()
		}
	}
	r.applyActions(s, sl, acts)
}

// hasAckSig reports whether actions broadcast an AckSig.
func hasAckSig(actions []core.Action) bool {
	for _, a := range actions {
		if b, ok := a.(core.BroadcastAction); ok && b.Msg.Kind() == msg.KindAckSig {
			return true
		}
	}
	return false
}

// holdAheadLocked keeps message m for slot s, past the live window, until
// the window reaches s, if s is below next+2W and the sender is within its
// bound (aheadFramesPerSlot·W messages, maxAheadBytes bytes); otherwise it
// drops m. A follower whose links from some peers lag behind its link from
// the leader sees the leader's Propose and Ack for slot s+W while slot s is
// still open; held, they let it decide slot s+W on the fast path like its
// peers. Dropped along with the leader's AckSig and Commit, they would leave
// it one Commit short of the commit quorum for that slot, which no peer
// sends again. It reports whether it held m. The caller holds r.mu.
func (r *Replica) holdAheadLocked(from types.ProcessID, s uint64, m msg.Message, size int) bool {
	w := uint64(r.cfg.WindowSize)
	if s >= r.next+2*w || !from.Valid(len(r.aheadFrames)) {
		return false
	}
	if r.aheadFrames[from] >= aheadFramesPerSlot*r.cfg.WindowSize || r.aheadBytes[from]+size > maxAheadBytes {
		return false
	}
	r.ahead = append(r.ahead, aheadMsg{from: from, s: s, m: m, size: size})
	r.aheadFrames[from]++
	r.aheadBytes[from] += size
	return true
}

// aheadSendersLocked counts the senders with messages held past the
// window, stopping at two, all that workOutstandingLocked asks. The caller
// holds r.mu.
func (r *Replica) aheadSendersLocked() int {
	n := 0
	for _, frames := range r.aheadFrames {
		if frames > 0 {
			if n++; n == 2 {
				break
			}
		}
	}
	return n
}

// replayAheadLocked delivers, in arrival order, every held message whose
// slot the window has reached (or passed: those meet a decided slot, as
// late traffic does). A delivery can decide a slot and slide the window
// further; the loop then takes the messages that became due. The caller
// holds r.mu.
func (r *Replica) replayAheadLocked() {
	if r.replaying {
		return
	}
	r.replaying = true
	defer func() { r.replaying = false }()
	for len(r.ahead) > 0 {
		lim := r.next + uint64(r.cfg.WindowSize)
		var due []aheadMsg
		kept := r.ahead[:0]
		for _, a := range r.ahead {
			if a.s < lim {
				due = append(due, a)
				r.aheadFrames[a.from]--
				r.aheadBytes[a.from] -= a.size
			} else {
				kept = append(kept, a)
			}
		}
		clear(r.ahead[len(kept):])
		r.ahead = kept
		if len(due) == 0 {
			return
		}
		for _, a := range due {
			r.deliverSlotLocked(a.from, a.s, a.m, a.size)
		}
	}
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
//
// A stuck fire first looks for a cause other than the leader (see
// easeStallLocked): a slot whose fast quorum is late gets its held AckSig
// released, which starts its slow path, and a replica that sees later
// slots decided elsewhere asks its peers for them. That re-arms at the
// same delay and suspects nobody, once per stall; the leader is suspected
// by the next stuck fire, or by the first if it finds no such cause.

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
		r.regimeBackoff, r.regimeAsked = 0, false
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
		r.regimeBackoff, r.regimeAsked = 0, false
		r.armRegimeLocked()
	}
}

// frontierIdleLocked reports whether the lowest undecided slot has no
// instance, or one that has not acked in its current view (its adopted
// vote is older): nothing this replica holds can slide the window until
// traffic it lacks arrives. The caller holds r.mu.
func (r *Replica) frontierIdleLocked() bool {
	sl, ok := r.slots[r.next]
	return !ok || sl.proc.Replica().CurrentVote().View != sl.proc.View()
}

// workOutstandingLocked reports whether the replica is waiting on the
// leader regime for anything: queued or in-flight commands, messages of two
// or more senders held past the live window, or an undecided instance in it
// that someone besides one peer could be waiting on. An instance that only
// one peer's frames reached, and in which this replica has not voted
// (slot.lone), is not work, and neither are messages past the window that
// only one peer sent: one junk frame would otherwise make an idle group
// suspect its correct leader. The caller holds r.mu.
func (r *Replica) workOutstandingLocked() bool {
	if r.pending.Len() > 0 || len(r.inflight) > 0 || r.aheadSendersLocked() >= 2 {
		return true
	}
	for s, sl := range r.slots {
		if s < r.next || s >= r.next+uint64(r.cfg.WindowSize) {
			continue
		}
		if _, dec := r.decided[s]; dec {
			continue
		}
		if sl.lone == types.NoProcess {
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
// backoff; a fire that finds it stuck first tries easeStallLocked, and if
// that finds nothing to do, suspects the leader regime and ticks every
// undecided in-flight slot into a view change in one step.
func (r *Replica) onRegimeTimer(gen uint64) {
	r.mu.Lock()
	defer r.mu.Unlock()
	if r.closed || gen != r.regimeGen {
		return
	}
	r.regimeTimer = nil
	if !r.workOutstandingLocked() {
		r.regimeBackoff, r.regimeAsked = 0, false
		return
	}
	if r.next != r.regimeNext || r.applyPtr != r.regimeApply {
		r.regimeBackoff, r.regimeAsked = 0, false
		r.armRegimeLocked()
		return
	}
	if r.easeStallLocked() {
		r.pokeRegimeLocked() // re-arms at the same backoff
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
	}
	r.pokeRegimeLocked()
}

// easeStallLocked is a stuck regime fire's first stage. It looks for a
// reason the window is stuck that is not the leader's, acts on it, and
// reports whether it found one:
//
//   - a live slot that still holds its AckSig is late on the fast path: its
//     AckSig is released (core's HoldAckSig(false)), which starts the slow
//     path there and, through the peer trigger, at every correct replica
//     that acked the same value.
//   - the lowest undecided slot carries a proposal that this replica or a
//     peer acked: its leader proposed, and the slot waits on a quorum, not
//     on a leader. If this replica also sees later slots decided, or holds
//     messages past the window, the cluster went on without it, and it
//     starts a fetch round with the next peer in round-robin order. The
//     tail of a fetch decides a slot once f+1 peers report one value, so a
//     replica that missed a slot's fast quorum and every message of its
//     slow path still decides it. Otherwise it waits one more regime delay
//     for the slot's slow path, which the peers' own fires start.
//
// A lowest undecided slot that nobody acked is the leader's fault alone (a
// dead leader proposes nothing), and such a stall is suspected at once
// unless a held AckSig was released. The stage runs once per stall
// (regimeAsked): its evidence can come from a Byzantine peer or leader,
// and must not keep the leader from being suspected. The caller holds r.mu.
func (r *Replica) easeStallLocked() bool {
	if r.regimeAsked {
		return false
	}
	released := r.releaseHeldLocked(r.next+uint64(r.cfg.WindowSize), r.m.slowTimer)
	fr, ok := r.slots[r.next]
	if !ok || (!fr.peerAcked && fr.proc.Replica().CurrentVote().Nil) {
		r.regimeAsked = released
		return released
	}
	ev := r.next
	for s := range r.decided {
		ev = max(ev, s)
	}
	for _, a := range r.ahead {
		ev = max(ev, a.s)
	}
	if ev > r.next {
		r.fetchEv = max(r.fetchEv, ev)
		r.sendFetchLocked(r.nextPeer(r.fetchRR))
	}
	r.regimeAsked = true
	return true
}

// releaseHeldLocked ends the hold of every undecided live slot below
// `below` (core's HoldAckSig(false)) and reports whether that sent any
// AckSig, counting each one in c. The caller holds r.mu.
func (r *Replica) releaseHeldLocked(below uint64, c *obs.Counter) bool {
	released := false
	for s := r.next; s < below; s++ {
		sl, ok := r.slots[s]
		if !ok {
			continue
		}
		if _, dec := r.decided[s]; dec {
			continue
		}
		acts := sl.proc.Replica().HoldAckSig(false)
		if len(acts) > 0 {
			released = true
			c.Inc()
		}
		r.applyActions(s, sl, acts)
	}
	return released
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

// applyActions executes instance actions; the caller holds r.mu. With
// storage, an Ack broadcast first appends the adopted vote behind it to
// the WAL, and every send is released through the store's effect queue —
// so no message betraying un-persisted state can reach the network before
// the state is durable.
func (r *Replica) applyActions(s uint64, sl *slot, actions []core.Action) {
	for _, a := range actions {
		switch act := a.(type) {
		case core.SendAction:
			switch act.Msg.(type) {
			case *msg.CertRequest, *msg.CertAck:
				// Stateless verification traffic (see sendOrderedLocked).
				r.sendOrderedLocked(act.To, r.envOut(s, act.Msg))
			default:
				// Anything else that exposes replica state waits for
				// durability.
				r.sendEnvLocked(act.To, r.envOut(s, act.Msg))
			}
		case core.BroadcastAction:
			switch act.Msg.(type) {
			case *msg.Ack:
				sl.lone = types.NoProcess // this replica voted in the slot
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
				// quorum for the slot's value — the tracer's ackquorum stage
				// (unless a fast quorum came first; see DecideAction).
				r.markStage(sl, obs.StageAckQuorum, r.cfg.Clock.Now())
				r.broadcastOrderedLocked(r.envOut(s, act.Msg))
			default:
				r.broadcastEnvLocked(r.envOut(s, act.Msg))
			}
		case core.TimerAction:
			// Per-slot deadlines are superseded by the regime timer: one
			// adaptive timer watches the whole window (see
			// pokeRegimeLocked), and viewsync's OnTimeout is idempotent per
			// view, so coarser-grained fires are safe.
		case core.DecideAction:
			if act.Decision.Path == types.FastPath {
				// A fast decision is an ack quorum too, and in a slot
				// that holds its AckSig the only one: stamp the
				// ackquorum stage here (first mark wins).
				r.markStage(sl, obs.StageAckQuorum, r.cfg.Clock.Now())
			}
			r.onDecideLocked(s, act.Decision)
			// A slot below s that is still undecided missed a quorum that
			// the later slot reached: it is late, as a regime fire would
			// find it, but without waiting a regime delay — notably at the
			// leader, whose window, and with it every client, waits on its
			// lowest undecided slot. Per-peer FIFO links deliver a slot's
			// Acks ahead of the next slot's, so in order this finds nothing.
			r.releaseHeldLocked(s, r.m.slowOrder)
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
		r.releaseProposedLocked(sl, &d)
	}
	delete(r.restoredVotes, s)
	r.decided[s] = d
	r.m.decided.Inc()
	switch d.Path {
	case types.FastPath:
		r.m.pathFast.Inc()
		r.lazy = true
	case types.SlowPath:
		r.m.pathSlow.Inc()
		r.lazy = false
	default: // learned by state transfer: not a consensus outcome, no bias
		r.m.pathXfer.Inc()
	}
	r.advanceLocked()
}

// releaseProposedLocked gives back sl's in-flight chunk: every proposed
// command leaves the in-flight index, and the ones the slot's decision d
// does not carry return to the front of the pending queue, so a later window
// slot re-proposes them — unless the session table proves them executed
// meanwhile. With a decision, what returns was displaced by a conflicting
// value and counts as reproposed; a slot discarded without a local decision
// (state transfer restored past it) passes a nil d and returns its whole
// chunk uncounted. The caller holds r.mu.
func (r *Replica) releaseProposedLocked(sl *slot, d *types.Decision) {
	if len(sl.proposed) == 0 {
		return
	}
	inDecided := make(map[string]bool)
	if d != nil && len(d.Value) > 0 {
		if cmds, err := DecodeBatch(d.Value); err == nil {
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
		if r.pending.PushFront(c) && d != nil {
			r.m.reproposed.Inc()
		}
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
	// Garbage-collect instances far behind the live window, keeping every
	// decided one two windows behind the frontier, the lag the ahead buffer
	// absorbs on the other side (see holdAheadLocked): a straggler that far
	// behind can still run a slot's slow path with it, because a decided
	// instance that still holds its AckSig releases it when the straggler's
	// arrives (the peer trigger), and its certificate then yields its
	// Commit. (At 4 slots, sweep seeds 158 and 185 at n = 4 of
	// TestSeededScheduleSmokeLazySlowPath fail: a leader suspected, a slot
	// late past the bound.)
	keep := 2 * uint64(r.cfg.WindowSize)
	for num := range r.slots {
		if num+keep < r.next {
			delete(r.slots, num)
		}
	}
	// Keep replicating while fresh commands are queued.
	r.fillWindowLocked()
	// Then deliver what peers sent for the slots the window now reaches; a
	// leader has opened its own slots first.
	r.replayAheadLocked()
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
