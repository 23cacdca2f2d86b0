package storage

import (
	"errors"
	"fmt"
	"os"
	"path/filepath"
	"sync"
	"sync/atomic"
	"time"

	"repro/internal/msg"
	"repro/internal/obs"
	"repro/internal/types"
)

// SyncMode selects how aggressively the WAL is fsync'd.
type SyncMode int

const (
	// SyncGroup is group commit (the default): all records queued while
	// the previous fsync was in flight are written and synced together —
	// one fsync amortized over the whole batch. Effects (outgoing
	// messages, client replies) are released after their batch is durable.
	SyncGroup SyncMode = iota
	// SyncNone never fsyncs: records are written to the OS (so they
	// survive a killed process) but not forced to disk (lost on power
	// failure or OS crash).
	SyncNone
	// SyncAlways fsyncs after every single record — no amortization, the
	// strictest and slowest setting.
	SyncAlways
)

func (m SyncMode) String() string {
	switch m {
	case SyncNone:
		return "none"
	case SyncGroup:
		return "group"
	case SyncAlways:
		return "always"
	default:
		return fmt.Sprintf("syncmode(%d)", int(m))
	}
}

// ParseSyncMode parses "none", "group", or "always" ("" means group).
func ParseSyncMode(s string) (SyncMode, error) {
	switch s {
	case "", "group":
		return SyncGroup, nil
	case "none":
		return SyncNone, nil
	case "always":
		return SyncAlways, nil
	default:
		return SyncGroup, fmt.Errorf("storage: unknown sync mode %q (want none, group, or always)", s)
	}
}

// walName is the write-ahead log file inside a data directory (prefixed by
// the store's namespace, if any).
const walName = "wal.log"

// Config parameterizes a Store.
type Config struct {
	// Dir is the replica's data directory (created if missing). One
	// directory belongs to exactly one replica process.
	Dir string
	// Mode is the fsync policy (default SyncGroup).
	Mode SyncMode
	// Namespace prefixes every file the store touches (WAL, snapshots,
	// temporaries), so several stores — one per consensus group of a
	// replica process — share one directory without colliding. Stores with
	// distinct namespaces never read or delete each other's files. Empty
	// leaves the file names unprefixed (a store used on its own).
	Namespace string
	// Metrics, when set, exports the store's counters and fsync-latency
	// histogram under MetricsLabels (typically {group: "<k>"}). The store
	// counts either way — a nil registry hands out live, unexported
	// metrics — so Stats() is always torn-free.
	Metrics *obs.Registry
	// MetricsLabels are the constant labels of this store's series.
	MetricsLabels obs.Labels
	// Logger, when set, receives the store's (rare) diagnostics; nil logs
	// through the standard library logger with the historical text.
	Logger *obs.Logger
}

// VoteState is the recovered vote state of one log slot: every adopted-vote
// record persisted for the slot (oldest first — the last entry is the
// latest adopted proposal) plus the slot's commit certificate, if one was
// persisted before the crash.
type VoteState struct {
	Acks []*msg.Propose
	Cert *msg.CommitCert
}

// RecoveredState is everything Open reconstructed from disk: the newest
// durable snapshot (if any) and the WAL records after it, folded by slot.
type RecoveredState struct {
	// HasSnapshot reports whether a snapshot was recovered; SnapshotSlot,
	// Snapshot, and SnapshotCert describe it.
	HasSnapshot  bool
	SnapshotSlot uint64
	Snapshot     []byte
	SnapshotCert *msg.CheckpointCert
	// Decisions and Certs hold the decided slots above the snapshot.
	Decisions map[uint64]types.Decision
	Certs     map[uint64]*msg.CommitCert
	// Votes holds the adopted-vote state of slots above the snapshot —
	// including slots that never decided before the crash.
	Votes map[uint64]*VoteState
}

// op is one unit of flusher work, processed strictly in queue order.
type op struct {
	frame  []byte        // a framed record to append, or nil
	effect func()        // an effect to run in queue order, or nil
	ckpt   *checkpointOp // a snapshot + WAL-truncation request, or nil
	// ordered marks an effect that requires only queue order, not
	// durability: it runs without waiting for an fsync of the records
	// before it. Used for messages that expose no replica state a crash
	// could lose (proposals, state-transfer serving) — they keep their
	// place in the line but do not hold the line up.
	ordered bool
}

// effectEntry is one effect inside a hand-off, with its durability class.
type effectEntry struct {
	f       func()
	ordered bool
}

// syncReq is one hand-off from the writer stage to the syncer stage: the
// effects released by one drained segment (their records are already
// written), or a barrier the writer waits on before swapping the WAL
// handle. The syncer coalesces every request queued while the previous
// fsync was in flight into one fsync — group commit proper — and issues
// that fsync lazily, at the first effect that actually requires
// durability, so ordered-only effects ahead of it escape immediately.
type syncReq struct {
	effects []effectEntry
	barrier chan struct{}
}

// checkpointOp installs a stable checkpoint: durably write the snapshot
// file, then rewrite the WAL with only the still-live records.
type checkpointOp struct {
	cert *msg.CheckpointCert
	snap []byte
	live [][]byte // record payloads surviving the truncation, in append order
}

// Store is one replica's durable state. All appends happen under the
// owning replica's mutex, so queue order is the replica's logical order;
// a single flusher goroutine writes, fsyncs, and releases effects in that
// order.
type Store struct {
	dir  string
	ns   string
	mode SyncMode
	rec  *RecoveredState

	mu       sync.Mutex
	cond     *sync.Cond
	queue    []op
	flushing bool
	closed   bool
	aborted  bool
	err      error
	wal      *os.File
	done     chan struct{}

	// Two-stage group commit: the flusher (writer stage) drains the queue
	// and writes frames without syncing; effects are handed to the syncer
	// stage over syncCh, which fsyncs once per coalesced hand-off batch and
	// then releases the effects. inSync counts hand-offs not yet fully
	// processed; writeSeq/syncedSeq version the WAL so an fsync only
	// certifies the writes that preceded it.
	syncCh     chan syncReq
	syncerDone chan struct{}
	inSync     int
	writeSeq   uint64
	syncedSeq  uint64

	// Counters behind Stats(), registry-backed and atomic (reads are never
	// torn, even against the flusher and syncer goroutines). recsWritten /
	// recsSynced track records covered per fsync for the coalescing
	// histogram; they are writer/syncer-stage values guarded by s.mu.
	mRecords     *obs.Counter
	mBatches     *obs.Counter
	mSyncs       *obs.Counter
	mInline      *obs.Counter
	mWALBytes    *obs.Counter
	mFsyncLat    *obs.Histogram
	mCoalesce    *obs.Histogram
	statSyncTime atomic.Int64 // cumulative fsync nanoseconds
	recsWritten  uint64
	recsSynced   uint64

	lg *obs.Logger

	// fileMu serializes WAL file writes between the flusher and the
	// SyncNone inline fast path.
	fileMu sync.Mutex
}

// Open creates or recovers a Store in cfg.Dir: it loads the newest valid
// snapshot, replays the WAL after it (truncating any torn tail in place),
// and starts the group-commit flusher. The recovered state is available via
// Recovered until the Store is closed.
func Open(cfg Config) (*Store, error) {
	if cfg.Dir == "" {
		return nil, errors.New("storage: empty data directory")
	}
	if err := os.MkdirAll(cfg.Dir, 0o755); err != nil {
		return nil, err
	}
	s := &Store{
		dir:        cfg.Dir,
		ns:         cfg.Namespace,
		mode:       cfg.Mode,
		done:       make(chan struct{}),
		syncCh:     make(chan syncReq, 1024),
		syncerDone: make(chan struct{}),
		lg:         cfg.Logger,
	}
	reg, ls := cfg.Metrics, cfg.MetricsLabels
	s.mRecords = reg.Counter("fastbft_wal_records_total", "WAL records appended", ls)
	s.mBatches = reg.Counter("fastbft_wal_batches_total", "flusher batches drained", ls)
	s.mSyncs = reg.Counter("fastbft_wal_syncs_total", "WAL fsyncs issued", ls)
	s.mInline = reg.Counter("fastbft_wal_inline_effects_total", "effects run without a queue hop", ls)
	s.mWALBytes = reg.Counter("fastbft_wal_bytes_total", "bytes written to the WAL", ls)
	s.mFsyncLat = reg.Histogram("fastbft_fsync_seconds", "WAL fsync latency", ls, 1e9, obs.DefaultLatencyBuckets())
	s.mCoalesce = reg.Histogram("fastbft_wal_coalesced_records", "WAL records covered per fsync (group-commit coalescing factor)", ls, 1, obs.CoalesceBuckets())
	s.cond = sync.NewCond(&s.mu)
	if err := s.recover(); err != nil {
		return nil, err
	}
	go s.flusher()
	go s.syncer()
	return s, nil
}

// recover loads the snapshot and WAL into s.rec and opens the WAL for
// appending, truncated to its last valid record.
func (s *Store) recover() error {
	cert, snap, err := loadNewestSnapshot(s.dir, s.ns)
	if err != nil {
		return err
	}
	rec := &RecoveredState{
		Decisions: make(map[uint64]types.Decision),
		Certs:     make(map[uint64]*msg.CommitCert),
		Votes:     make(map[uint64]*VoteState),
	}
	horizon := uint64(0) // records at or below this slot are obsolete
	if cert != nil {
		rec.HasSnapshot = true
		rec.SnapshotSlot = cert.CP.Slot
		rec.Snapshot = snap
		rec.SnapshotCert = cert
		horizon = cert.CP.Slot + 1
	}
	walPath := filepath.Join(s.dir, s.ns+walName)
	buf, err := os.ReadFile(walPath)
	if err != nil && !os.IsNotExist(err) {
		return err
	}
	recs, validOff := scanWAL(buf)
	if validOff < int64(len(buf)) {
		// Torn tail: drop it now so future appends continue from the last
		// intact record instead of burying garbage mid-file.
		s.lg.Warnf("storage: %s: truncating torn WAL tail (%d of %d bytes valid)",
			s.dir, validOff, len(buf))
		if err := os.Truncate(walPath, validOff); err != nil {
			return err
		}
	}
	// Clone everything retained: the decoded records alias the single WAL
	// read buffer, which must not stay pinned by long-lived replica state
	// (votes live until their slot decides, certs until the next stable
	// checkpoint).
	for _, r := range recs {
		if r.Slot < horizon {
			continue
		}
		switch r.Kind {
		case RecordVote:
			vs := rec.Votes[r.Slot]
			if vs == nil {
				vs = &VoteState{}
				rec.Votes[r.Slot] = vs
			}
			vs.Acks = append(vs.Acks, &msg.Propose{
				View: r.Vote.View,
				X:    r.Vote.X.Clone(),
				Cert: r.Vote.Cert.Clone(),
				Tau:  r.Vote.Tau.Clone(),
			})
		case RecordDecision:
			rec.Decisions[r.Slot] = types.Decision{
				Value: r.Decision.Value.Clone(),
				View:  r.Decision.View,
				Path:  r.Decision.Path,
			}
		case RecordCert:
			rec.Certs[r.Slot] = r.Cert.Clone()
		}
	}
	s.rec = rec
	wal, err := os.OpenFile(walPath, os.O_WRONLY|os.O_CREATE|os.O_APPEND, 0o644)
	if err != nil {
		return err
	}
	s.wal = wal
	return nil
}

// Recovered returns the state reconstructed at Open.
func (s *Store) Recovered() *RecoveredState { return s.rec }

// Dir returns the data directory.
func (s *Store) Dir() string { return s.dir }

// Namespace returns the file-name prefix this store owns within Dir.
func (s *Store) Namespace() string { return s.ns }

// Mode returns the fsync policy.
func (s *Store) Mode() SyncMode { return s.mode }

// Stats is a point-in-time snapshot of store counters: records appended,
// flusher batches drained, fsyncs issued, and effects run inline (without
// a queue hop).
type Stats struct {
	Records uint64
	Batches uint64
	Syncs   uint64
	Inline  uint64
	// SyncTime is the cumulative wall-clock time spent in WAL fsyncs.
	SyncTime time.Duration
}

// Stats returns a snapshot of the store's counters. Every field is read
// atomically — the snapshot is torn-free without taking the store's lock.
func (s *Store) Stats() Stats {
	return Stats{Records: s.mRecords.Load(), Batches: s.mBatches.Load(), Syncs: s.mSyncs.Load(),
		Inline: s.mInline.Load(), SyncTime: time.Duration(s.statSyncTime.Load())}
}

// Err returns the sticky disk error, if any. Once a write or fsync fails
// the store stops releasing effects — the replica goes quiet rather than
// exposing state that is not durable.
func (s *Store) Err() error {
	s.mu.Lock()
	defer s.mu.Unlock()
	return s.err
}

// Append queues one record payload for the WAL, followed by any effects
// that must only run once the record is durable. Append never blocks on
// an fsync; the flusher writes and fsyncs in the background and runs the
// effects in queue order.
//
// SyncNone takes a fast path: the record promises only to survive a
// killed process, so the write() lands inline (ordered before the
// effects, keeping the vote-before-ack invariant under kill -9) and the
// effects run immediately — no cross-goroutine hop at all.
func (s *Store) Append(payload []byte, effects ...func()) {
	frame := AppendFrame(nil, payload)
	s.mu.Lock()
	if s.closed {
		s.mu.Unlock()
		return
	}
	s.mRecords.Inc()
	if s.mode == SyncNone && len(s.queue) == 0 && !s.flushing && s.err == nil {
		wal := s.wal
		s.mInline.Inc()
		s.mu.Unlock()
		s.fileMu.Lock()
		_, err := wal.Write(frame)
		s.fileMu.Unlock()
		s.mWALBytes.Add(uint64(len(frame)))
		if err != nil {
			s.fail(fmt.Errorf("storage: wal write: %w", err))
			return
		}
		for _, f := range effects {
			f()
		}
		return
	}
	s.queue = append(s.queue, op{frame: frame})
	for _, f := range effects {
		s.queue = append(s.queue, op{effect: f})
	}
	s.cond.Signal()
	s.mu.Unlock()
}

// busyLocked reports whether an effect must queue behind outstanding work:
// queued ops, a drain in flight, effects awaiting the syncer or — unless the
// effect is ordered-only — written records not yet covered by an fsync
// (SyncNone never syncs, so bare writes do not count against it). The caller
// holds s.mu.
func (s *Store) busyLocked(ordered bool) bool {
	if len(s.queue) > 0 || s.flushing || s.inSync > 0 {
		return true
	}
	return !ordered && s.mode != SyncNone && s.writeSeq > s.syncedSeq
}

// Effect schedules f to run once everything appended so far is durable.
// When nothing is pending, f runs inline — the common no-backlog case adds
// no latency.
func (s *Store) Effect(f func()) { s.effect(f, false) }

// OrderedEffect schedules f to run in queue order but without waiting for
// any fsync: for actions that expose no state a crash could lose, where
// only the relative order with durable effects matters. Runs inline when
// nothing is queued at all.
func (s *Store) OrderedEffect(f func()) { s.effect(f, true) }

func (s *Store) effect(f func(), ordered bool) {
	s.mu.Lock()
	if s.closed {
		s.mu.Unlock()
		return
	}
	if !s.busyLocked(ordered) && s.err == nil {
		s.mInline.Inc()
		s.mu.Unlock()
		f()
		return
	}
	s.queue = append(s.queue, op{effect: f, ordered: ordered})
	s.cond.Signal()
	s.mu.Unlock()
}

// Checkpoint durably installs a stable checkpoint: the snapshot file is
// written and fsync'd first, then the WAL is truncated by rewriting it
// with only the live record payloads (records of slots above the
// checkpoint). Ordered like everything else: records appended before this
// call land in the old WAL, records appended after it land in the new one.
func (s *Store) Checkpoint(cert *msg.CheckpointCert, snapshot []byte, live [][]byte) {
	s.mu.Lock()
	if s.closed {
		s.mu.Unlock()
		return
	}
	s.queue = append(s.queue, op{ckpt: &checkpointOp{cert: cert, snap: snapshot, live: live}})
	s.cond.Signal()
	s.mu.Unlock()
}

// Barrier blocks until every op queued before the call has been processed
// (written, effects run) and, when the mode syncs at all, until every
// written record is fsync'd. It returns the sticky error, if any.
func (s *Store) Barrier() error {
	s.mu.Lock()
	for (len(s.queue) > 0 || s.flushing || s.inSync > 0) && !s.aborted {
		s.cond.Wait()
	}
	err := s.err
	mustSync := s.mode != SyncNone && s.writeSeq > s.syncedSeq && err == nil && !s.aborted
	seq := s.writeSeq
	wal := s.wal
	s.mu.Unlock()
	if mustSync && wal != nil {
		// Both stages are idle, so syncing from here cannot race a
		// checkpoint's handle swap.
		serr := wal.Sync()
		if serr != nil {
			s.fail(fmt.Errorf("storage: wal fsync: %w", serr))
			return serr
		}
		s.mu.Lock()
		if s.syncedSeq < seq {
			s.syncedSeq = seq
		}
		s.mu.Unlock()
	}
	return err
}

// Close drains the queue (remaining records are written, fsync'd per the
// mode, and their effects run), stops the flusher, and closes the WAL.
// Idempotent.
func (s *Store) Close() error {
	s.mu.Lock()
	if s.closed {
		s.mu.Unlock()
		<-s.done
		<-s.syncerDone
		return nil
	}
	s.closed = true
	s.cond.Broadcast()
	s.mu.Unlock()
	<-s.done
	<-s.syncerDone
	s.mu.Lock()
	defer s.mu.Unlock()
	if s.wal != nil {
		if s.mode != SyncNone && s.err == nil && !s.aborted {
			_ = s.wal.Sync()
		}
		_ = s.wal.Close()
		s.wal = nil
	}
	return s.err
}

// Abort simulates a power cut (tests): the flusher stops immediately,
// queued-but-unflushed records are dropped, no further effect runs.
// Whatever already reached the file stays exactly as written.
func (s *Store) Abort() {
	s.mu.Lock()
	if s.closed {
		s.mu.Unlock()
		<-s.done
		<-s.syncerDone
		return
	}
	s.closed = true
	s.aborted = true
	s.queue = nil
	s.cond.Broadcast()
	s.mu.Unlock()
	<-s.done
	<-s.syncerDone
	s.mu.Lock()
	defer s.mu.Unlock()
	if s.wal != nil {
		_ = s.wal.Close()
		s.wal = nil
	}
}

// flusher is the writer stage: it drains the queue in order, writes frames
// without waiting for the disk, and hands each segment's effects to the
// syncer. Closing the queue closes the hand-off channel, which stops the
// syncer after it drains.
func (s *Store) flusher() {
	defer close(s.syncCh)
	defer close(s.done)
	s.mu.Lock()
	for {
		for len(s.queue) == 0 && !s.closed {
			s.cond.Wait()
		}
		if len(s.queue) == 0 || s.aborted {
			s.cond.Broadcast()
			s.mu.Unlock()
			return
		}
		batch := s.queue
		s.queue = nil
		s.flushing = true
		s.mBatches.Inc()
		s.mu.Unlock()
		s.processBatch(batch)
		s.mu.Lock()
		s.flushing = false
		s.cond.Broadcast() // wake Barrier waiters
	}
}

// syncer is the fsync stage of group commit: it coalesces every hand-off
// queued while the previous fsync was in flight, issues one fsync covering
// all of their records, and only then releases their effects, in order.
// The writer never waits for the disk, so records pile up behind the
// in-flight fsync and share the next one — the amortization that keeps
// durable throughput near the in-memory pipeline's.
func (s *Store) syncer() {
	defer close(s.syncerDone)
	for req := range s.syncCh {
		reqs := []syncReq{req}
		// Coalesce everything already queued (stop at the first barrier so
		// the writer's WAL-handle swap stays ordered).
		if req.barrier == nil {
		gather:
			for {
				select {
				case r, ok := <-s.syncCh:
					if !ok {
						break gather
					}
					reqs = append(reqs, r)
					if r.barrier != nil {
						break gather
					}
				default:
					break gather
				}
			}
		}
		// Run the effects in order, fsyncing lazily: the first effect that
		// requires durability pays one fsync certifying every record
		// written before this point; ordered-only effects ahead of it (a
		// proposal whose network flight can overlap the fsync) escape
		// immediately.
		synced := false
		for _, r := range reqs {
			for _, e := range r.effects {
				if !e.ordered && !synced {
					s.syncUpTo()
					synced = true
				}
				s.runEffect(e.f)
			}
			if r.barrier != nil {
				close(r.barrier)
			}
		}
		s.mu.Lock()
		s.inSync -= len(reqs)
		s.cond.Broadcast()
		s.mu.Unlock()
	}
}

// processBatch handles one drained batch. Frames between two flush points
// are written with one write call and no fsync; the segment's effects are
// handed to the syncer, which fsyncs before releasing them. A checkpoint
// op is a flush point: it waits for the syncer to drain (so the fsync of
// earlier effects ran against the old WAL handle), then swaps the WAL.
//
// Effect-less records (a decision whose replies were not requested, a
// captured certificate) are written but trigger no fsync of their own —
// they ride the next effectful fsync, or Barrier/Close. A crash in
// between loses only records nothing observable ever depended on, which
// is exactly the WAL contract.
func (s *Store) processBatch(batch []op) {
	i := 0
	for i < len(batch) {
		if batch[i].ckpt != nil {
			s.syncerBarrier()
			s.doCheckpoint(batch[i].ckpt)
			i++
			continue
		}
		// Collect the segment up to the next checkpoint op.
		j := i
		var frames []byte
		var effects []effectEntry
		durable := false
		nrecs := uint64(0)
		for j < len(batch) && batch[j].ckpt == nil {
			if batch[j].frame != nil {
				frames = append(frames, batch[j].frame...)
				nrecs++
			}
			if batch[j].effect != nil {
				effects = append(effects, effectEntry{f: batch[j].effect, ordered: batch[j].ordered})
				if !batch[j].ordered {
					durable = true
				}
			}
			j++
		}
		if s.mode == SyncAlways {
			// No amortization: write and fsync record by record, in order,
			// before any effect of the segment is handed over.
			for k := i; k < j; k++ {
				if batch[k].frame != nil {
					s.write(batch[k].frame, 1)
					s.syncNow()
				}
			}
		} else if len(frames) > 0 {
			s.write(frames, nrecs)
		}
		i = j
		if len(effects) > 0 {
			// Hand the effects to the syncer only when an fsync actually
			// stands between them and the outside world: SyncNone never
			// syncs, ordered-only segments need nothing but their place in
			// line, and when the syncer is idle with nothing unsynced
			// (SyncAlways after the per-record syncs above, SyncGroup in a
			// quiet moment) the effects can run right here — saving a
			// cross-goroutine hop on the latency chain.
			s.mu.Lock()
			direct := s.mode == SyncNone ||
				(s.inSync == 0 && (!durable || s.writeSeq == s.syncedSeq))
			if !direct {
				s.inSync++
			}
			s.mu.Unlock()
			if direct {
				for _, e := range effects {
					s.runEffect(e.f)
				}
			} else {
				s.syncCh <- syncReq{effects: effects}
			}
		}
	}
}

// syncUpTo fsyncs the WAL if records were written since the last fsync,
// certifying everything written so far. Syncer-stage only.
func (s *Store) syncUpTo() {
	s.mu.Lock()
	seq := s.writeSeq
	skip := s.mode == SyncNone || seq <= s.syncedSeq || s.err != nil || s.aborted
	wal := s.wal
	s.mu.Unlock()
	if skip || wal == nil {
		return
	}
	start := time.Now()
	if err := wal.Sync(); err != nil {
		s.fail(fmt.Errorf("storage: wal fsync: %w", err))
		return
	}
	s.recordSync(start)
	s.mu.Lock()
	if s.syncedSeq < seq {
		s.syncedSeq = seq
	}
	s.mu.Unlock()
}

// recordSync accounts one completed fsync: count, latency, and how many
// records it certified (the group-commit coalescing factor).
func (s *Store) recordSync(start time.Time) {
	d := time.Since(start)
	s.mSyncs.Inc()
	s.statSyncTime.Add(d.Nanoseconds())
	s.mFsyncLat.ObserveDuration(d)
	s.mu.Lock()
	covered := s.recsWritten - s.recsSynced
	s.recsSynced = s.recsWritten
	s.mu.Unlock()
	if covered > 0 {
		s.mCoalesce.Observe(covered)
	}
}

// syncNow fsyncs synchronously in the writer stage (SyncAlways only).
func (s *Store) syncNow() {
	s.mu.Lock()
	seq := s.writeSeq
	wal := s.wal
	bad := s.err != nil || s.aborted
	s.mu.Unlock()
	if bad || wal == nil {
		return
	}
	start := time.Now()
	if err := wal.Sync(); err != nil {
		s.fail(fmt.Errorf("storage: wal fsync: %w", err))
		return
	}
	s.recordSync(start)
	s.mu.Lock()
	if s.syncedSeq < seq {
		s.syncedSeq = seq
	}
	s.mu.Unlock()
}

// syncerBarrier waits until the syncer has processed every hand-off queued
// so far (their fsyncs ran against the current WAL handle).
func (s *Store) syncerBarrier() {
	br := make(chan struct{})
	s.mu.Lock()
	s.inSync++
	s.mu.Unlock()
	s.syncCh <- syncReq{barrier: br}
	<-br
}

// write appends bytes holding nrecs records to the WAL and bumps the write
// sequence the syncer certifies against. Errors are sticky. Writer-stage
// only.
func (s *Store) write(b []byte, nrecs uint64) {
	if s.failed() || s.wal == nil {
		return
	}
	s.fileMu.Lock()
	_, err := s.wal.Write(b)
	s.fileMu.Unlock()
	if err != nil {
		s.fail(fmt.Errorf("storage: wal write: %w", err))
		return
	}
	s.mWALBytes.Add(uint64(len(b)))
	s.mu.Lock()
	s.writeSeq++
	s.recsWritten += nrecs
	s.mu.Unlock()
}

// runEffect runs one effect unless the store has failed (a failed store
// must not expose effects whose records never became durable).
func (s *Store) runEffect(f func()) {
	if s.failed() {
		return
	}
	f()
}

// doCheckpoint durably installs a checkpoint op (see Checkpoint).
func (s *Store) doCheckpoint(op *checkpointOp) {
	if s.failed() || s.wal == nil {
		return
	}
	if err := writeSnapshotFile(s.dir, s.ns, op.cert, op.snap); err != nil {
		s.fail(fmt.Errorf("storage: snapshot: %w", err))
		return
	}
	// Rewrite the WAL with the surviving records: temp file, fsync,
	// rename over, directory fsync, then append to the new file.
	walPath := filepath.Join(s.dir, s.ns+walName)
	tmp := walPath + ".tmp"
	f, err := os.OpenFile(tmp, os.O_WRONLY|os.O_CREATE|os.O_TRUNC, 0o644)
	if err != nil {
		s.fail(err)
		return
	}
	var buf []byte
	for _, payload := range op.live {
		buf = AppendFrame(buf, payload)
	}
	if _, err := f.Write(buf); err != nil {
		_ = f.Close()
		s.fail(err)
		return
	}
	if err := f.Sync(); err != nil {
		_ = f.Close()
		s.fail(err)
		return
	}
	if err := f.Close(); err != nil {
		s.fail(err)
		return
	}
	if err := os.Rename(tmp, walPath); err != nil {
		s.fail(err)
		return
	}
	if err := syncDir(s.dir); err != nil {
		s.fail(err)
		return
	}
	old := s.wal
	wal, err := os.OpenFile(walPath, os.O_WRONLY|os.O_APPEND, 0o644)
	if err != nil {
		s.fail(err)
		return
	}
	_ = old.Close()
	s.mu.Lock()
	s.wal = wal
	s.syncedSeq = s.writeSeq // the rewrite fsync'd everything still live
	s.mu.Unlock()
	pruneSnapshots(s.dir, s.ns, op.cert.CP.Slot)
}

// failed reports whether the store must stop doing work: a sticky disk
// error, or an Abort (simulated power cut) that may land mid-batch.
func (s *Store) failed() bool {
	s.mu.Lock()
	defer s.mu.Unlock()
	return s.err != nil || s.aborted
}

func (s *Store) fail(err error) {
	s.mu.Lock()
	defer s.mu.Unlock()
	if s.err == nil {
		s.err = err
		s.lg.Errorf("storage: %s: %v (store disabled; effects withheld)", s.dir, err)
	}
}
