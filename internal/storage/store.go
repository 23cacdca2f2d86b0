package storage

import (
	"bytes"
	"encoding/binary"
	"errors"
	"fmt"
	"os"
	"path/filepath"
	"sync"
	"time"

	"repro/internal/msg"
	"repro/internal/obs"
	"repro/internal/types"
)

// SyncMode names the WAL fsync policy. Group commit is the only one: a
// replica that acks a vote it has not fsynced could lose it in a power cut
// and then equivocate. The type, ParseSyncMode and Config.Mode remain
// because the repository benchmark (benchmark/) compiles against them.
type SyncMode int

// SyncGroup is group commit: all records queued while the previous fsync was
// in flight are written and synced together — one fsync amortized over the
// whole batch. Effects (outgoing messages, client replies) are released after
// their batch is durable.
const SyncGroup SyncMode = 0

// ParseSyncMode parses a sync-mode name: "group", or "" for the same.
func ParseSyncMode(s string) (SyncMode, error) {
	if s != "" && s != "group" {
		return SyncGroup, fmt.Errorf("storage: unknown sync mode %q (group commit is the only mode)", s)
	}
	return SyncGroup, nil
}

// walName is the write-ahead log file inside a data directory (prefixed by
// the store's namespace, if any).
const walName = "wal.log"

// Config parameterizes a Store.
type Config struct {
	// Dir is the replica's data directory (created if missing). One
	// directory belongs to exactly one replica process.
	Dir string
	// Mode is the fsync policy; SyncGroup, the only one, is the zero value.
	Mode SyncMode
	// Namespace prefixes every file the store touches (the WAL and its
	// checkpoint temporary), so several stores — one per consensus group of
	// a replica process — share one directory without colliding. Stores with
	// distinct namespaces never read or delete each other's files. Empty
	// leaves the file names unprefixed (a store used on its own).
	Namespace string
	// Metrics, when set, exports the store's counters and fsync-latency
	// histogram under MetricsLabels (typically {group: "<k>"}). The store
	// counts either way — a nil registry hands out live, unexported
	// metrics.
	Metrics *obs.Registry
	// MetricsLabels are the constant labels of this store's series.
	MetricsLabels obs.Labels
	// Logger, when set, receives the store's (rare) diagnostics; nil logs
	// through the standard library logger with the historical text.
	Logger *obs.Logger
}

// VoteState is the recovered vote state of one log slot: every adopted-vote
// record persisted for the slot, oldest first — the last entry is the latest
// adopted proposal.
type VoteState struct {
	Acks []*msg.Propose
}

// RecoveredState is everything Open reconstructed from the WAL: the stable
// checkpoint heading it (if any) and the records above it, folded by slot.
type RecoveredState struct {
	// SnapshotCert and Snapshot are the recovered stable checkpoint; a nil
	// SnapshotCert means the WAL holds none.
	SnapshotCert *msg.CheckpointCert
	Snapshot     []byte
	// Decisions holds the decided slots above the snapshot.
	Decisions map[uint64]types.Decision
	// Votes holds the adopted-vote state of slots above the snapshot —
	// including slots that never decided before the crash.
	Votes map[uint64]*VoteState
}

// op is one unit of flusher work, processed strictly in queue order.
type op struct {
	frame  []byte        // a framed record to append, or nil
	effect func()        // an effect to run in queue order, or nil
	ckpt   *checkpointOp // a checkpoint install request, or nil
	// ordered marks an effect that requires only queue order, not
	// durability: it runs without waiting for an fsync of the records
	// before it. Used for messages that expose no replica state a crash
	// could lose (commit messages, checkpoint digests, state-transfer
	// serving) — they keep their place in the line but do not hold the
	// line up.
	ordered bool
}

// checkpointOp installs a stable checkpoint (see Checkpoint).
type checkpointOp struct {
	cert *msg.CheckpointCert
	snap []byte
}

// Store is one replica's durable state. All appends happen under the
// owning replica's mutex, so queue order is the replica's logical order;
// a single flusher goroutine writes, fsyncs, and releases effects in that
// order.
type Store struct {
	dir string
	ns  string

	mu       sync.Mutex
	rec      *RecoveredState // until Recovered hands it over
	cond     *sync.Cond
	queue    []op
	flushing bool
	closed   bool
	aborted  bool
	err      error
	wal      *os.File
	done     chan struct{}

	// head is the length of the snapshot frame heading the WAL (0 when it
	// has none): a checkpoint copies the old WAL's frames after it and
	// never re-reads the old snapshot. Flusher only, after Open.
	head int64

	// written counts the records written to the WAL, synced how many of
	// them an fsync (or a checkpoint's rewrite) has made durable. Only the
	// flusher advances them; effect callers read them under s.mu to decide
	// whether an effect must queue.
	written uint64
	synced  uint64

	// Registry-backed counters (see Config.Metrics).
	mRecords  *obs.Counter
	mBatches  *obs.Counter
	mSyncs    *obs.Counter
	mInline   *obs.Counter
	mWALBytes *obs.Counter
	mFsyncLat *obs.Histogram
	mCoalesce *obs.Histogram

	lg *obs.Logger
}

// Open creates or recovers a Store in cfg.Dir: it removes a checkpoint's
// leftover temporary, replays the WAL (truncating any torn tail in place),
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
		dir:  cfg.Dir,
		ns:   cfg.Namespace,
		done: make(chan struct{}),
		lg:   cfg.Logger,
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
	return s, nil
}

// recover loads the WAL into s.rec and opens it for appending, truncated
// to its last valid record.
func (s *Store) recover() error {
	walPath := filepath.Join(s.dir, s.ns+walName)
	// A temporary left by a checkpoint cut short never replaced the WAL,
	// which is still whole.
	if err := os.Remove(walPath + ".tmp"); err != nil && !os.IsNotExist(err) {
		return err
	}
	rec := &RecoveredState{
		Decisions: make(map[uint64]types.Decision),
		Votes:     make(map[uint64]*VoteState),
	}
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
	if len(recs) > 0 && recs[0].Kind == RecordSnapshot {
		s.head = walFrameHeader + int64(binary.LittleEndian.Uint32(buf))
	}
	// Clone everything retained: the decoded records alias the single WAL
	// read buffer, which must not stay pinned by long-lived replica state
	// (votes live until their slot decides, decisions until the next
	// stable checkpoint). Reserved certificate records are skipped.
	horizon := uint64(0) // records below this slot are covered by the snapshot
	for _, r := range recs {
		if r.Slot < horizon {
			continue
		}
		switch r.Kind {
		case RecordSnapshot:
			rec.SnapshotCert = r.SnapshotCert.Clone()
			rec.Snapshot = bytes.Clone(r.Snapshot)
			horizon = r.Slot + 1
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
		}
	}
	s.rec = rec
	wal, err := os.OpenFile(walPath, os.O_RDWR|os.O_CREATE|os.O_APPEND, 0o644)
	if err != nil {
		return err
	}
	s.wal = wal
	return nil
}

// Recovered hands over the state reconstructed at Open, once: the store
// keeps no reference to it, so the recovered snapshot bytes live only as
// long as the caller holds them (the replica installs them and lets go).
// Later calls return nil.
func (s *Store) Recovered() *RecoveredState {
	s.mu.Lock()
	defer s.mu.Unlock()
	rec := s.rec
	s.rec = nil
	return rec
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
// effects in queue order. A payload too long for a frame sets the sticky
// error: the record is not written and no effect runs from then on.
func (s *Store) Append(payload []byte, effects ...func()) {
	frame, err := appendFrame(nil, payload)
	s.mu.Lock()
	if s.closed {
		s.mu.Unlock()
		return
	}
	if err != nil {
		s.failLocked(fmt.Errorf("storage: append: %w", err))
		s.mu.Unlock()
		return
	}
	s.mRecords.Inc()
	s.queue = append(s.queue, op{frame: frame})
	for _, f := range effects {
		s.queue = append(s.queue, op{effect: f})
	}
	s.cond.Signal()
	s.mu.Unlock()
}

// busyLocked reports whether an effect must queue behind outstanding work:
// queued ops, a drain in flight or — unless the effect is ordered-only —
// written records not yet covered by an fsync. The caller holds s.mu.
func (s *Store) busyLocked(ordered bool) bool {
	if len(s.queue) > 0 || s.flushing {
		return true
	}
	return !ordered && s.written > s.synced
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

// Checkpoint durably installs a stable checkpoint: a new WAL holding the
// snapshot record and then every record of the old WAL whose slot is above
// the checkpoint replaces the old one in one atomic install. Ordered like
// everything else: records appended before this call land in the old WAL
// (and survive if above the checkpoint), records appended after it land in
// the new one.
func (s *Store) Checkpoint(cert *msg.CheckpointCert, snapshot []byte) {
	s.mu.Lock()
	if s.closed {
		s.mu.Unlock()
		return
	}
	s.queue = append(s.queue, op{ckpt: &checkpointOp{cert: cert, snap: snapshot}})
	s.cond.Signal()
	s.mu.Unlock()
}

// Barrier blocks until every op queued before the call has been processed
// (written, effects run) and until every written record is fsync'd. It
// returns the sticky error, if any.
func (s *Store) Barrier() error {
	s.mu.Lock()
	defer s.mu.Unlock()
	if !s.closed && s.busyLocked(false) {
		// A no-op durable effect: the flusher fsyncs before running it, so
		// the WAL handle is only ever synced from the flusher goroutine.
		s.queue = append(s.queue, op{effect: func() {}})
		s.cond.Signal()
	}
	for (len(s.queue) > 0 || s.flushing) && !s.aborted {
		s.cond.Wait()
	}
	return s.err
}

// Close drains the queue (remaining records are written and fsync'd, and
// their effects run), stops the flusher, and closes the WAL.
// Idempotent.
func (s *Store) Close() error {
	s.mu.Lock()
	if s.closed {
		s.mu.Unlock()
		<-s.done
		return nil
	}
	s.closed = true
	s.cond.Broadcast()
	s.mu.Unlock()
	<-s.done
	s.mu.Lock()
	defer s.mu.Unlock()
	if s.wal != nil {
		if s.err == nil && !s.aborted {
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
		return
	}
	s.closed = true
	s.aborted = true
	s.queue = nil
	s.cond.Broadcast()
	s.mu.Unlock()
	<-s.done
	s.mu.Lock()
	defer s.mu.Unlock()
	if s.wal != nil {
		_ = s.wal.Close()
		s.wal = nil
	}
}

// flusher is group commit's one loop: it drains the queue in order, writes
// each segment's frames, fsyncs, and runs the segment's effects. Everything
// appended while an fsync is in flight piles up in the queue and shares the
// next one — the amortization that keeps durable throughput near the
// in-memory pipeline's.
func (s *Store) flusher() {
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

// processBatch handles one drained batch. The frames between two checkpoint
// ops form a segment, written with one write call; the segment's effects
// then run in queue order, fsyncing lazily: the first effect that requires
// durability pays one fsync certifying every record written so far, and
// ordered-only effects ahead of it leave without waiting.
//
// Effect-less records (a decision whose replies were not requested, a
// captured certificate) are written but trigger no fsync of their own —
// they ride the next effectful fsync, or Barrier/Close. A crash in
// between loses only records nothing observable ever depended on, which
// is exactly the WAL contract.
func (s *Store) processBatch(batch []op) {
	for i := 0; i < len(batch); {
		if batch[i].ckpt != nil {
			s.doCheckpoint(batch[i].ckpt)
			i++
			continue
		}
		j := i
		var frames []byte
		nrecs := uint64(0)
		for ; j < len(batch) && batch[j].ckpt == nil; j++ {
			if batch[j].frame != nil {
				frames = append(frames, batch[j].frame...)
				nrecs++
			}
		}
		if nrecs > 0 {
			s.write(frames, nrecs)
		}
		synced := false
		for _, o := range batch[i:j] {
			if o.effect == nil {
				continue
			}
			if !o.ordered && !synced {
				s.syncUpTo()
				synced = true
			}
			s.runEffect(o.effect)
		}
		i = j
	}
}

// syncUpTo fsyncs the WAL if records were written since the last fsync,
// certifying everything written so far, and accounts the fsync: count,
// latency, and how many records it certified (the group-commit coalescing
// factor). Flusher only.
func (s *Store) syncUpTo() {
	s.mu.Lock()
	covered := s.written - s.synced
	skip := covered == 0 || s.err != nil || s.aborted
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
	s.mSyncs.Inc()
	s.mFsyncLat.ObserveDuration(time.Since(start))
	s.mCoalesce.Observe(covered)
	s.mu.Lock()
	s.synced += covered
	s.mu.Unlock()
}

// write appends bytes holding nrecs records to the WAL. Errors are sticky.
// Flusher only.
func (s *Store) write(b []byte, nrecs uint64) {
	if s.failed() || s.wal == nil {
		return
	}
	if _, err := s.wal.Write(b); err != nil {
		s.fail(fmt.Errorf("storage: wal write: %w", err))
		return
	}
	s.mWALBytes.Add(uint64(len(b)))
	s.mu.Lock()
	s.written += nrecs
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

// doCheckpoint durably installs a checkpoint op (see Checkpoint):
// temporary file, fsync, rename over the WAL, directory fsync, then append
// to the new file.
func (s *Store) doCheckpoint(op *checkpointOp) {
	if s.failed() || s.wal == nil {
		return
	}
	if err := s.installCheckpoint(op); err != nil {
		s.fail(fmt.Errorf("storage: checkpoint at slot %d: %w", op.cert.CP.Slot, err))
	}
}

// installCheckpoint builds the new WAL and installs it; the caller makes
// an error sticky. Flusher only.
func (s *Store) installCheckpoint(op *checkpointOp) error {
	st, err := s.wal.Stat()
	if err != nil {
		return err
	}
	old := make([]byte, st.Size()-s.head)
	if _, err := s.wal.ReadAt(old, s.head); err != nil {
		return err
	}
	payload := EncodeSnapshot(op.cert, op.snap)
	buf, err := appendFrame(make([]byte, 0, walFrameHeader+len(payload)+len(old)), payload)
	if err != nil {
		return err
	}
	head := int64(len(buf))
	if buf, err = framesAbove(buf, old, op.cert.CP.Slot); err != nil {
		return err
	}
	walPath := filepath.Join(s.dir, s.ns+walName)
	tmp := walPath + ".tmp"
	f, err := os.OpenFile(tmp, os.O_WRONLY|os.O_CREATE|os.O_TRUNC, 0o644)
	if err != nil {
		return err
	}
	if _, err := f.Write(buf); err != nil {
		_ = f.Close()
		return err
	}
	if err := f.Sync(); err != nil {
		_ = f.Close()
		return err
	}
	if err := f.Close(); err != nil {
		return err
	}
	if err := os.Rename(tmp, walPath); err != nil {
		return err
	}
	if err := syncDir(s.dir); err != nil {
		return err
	}
	wal, err := os.OpenFile(walPath, os.O_RDWR|os.O_APPEND, 0o644)
	if err != nil {
		return err
	}
	_ = s.wal.Close()
	s.mu.Lock()
	s.wal = wal
	s.synced = s.written // the install fsync'd every record it kept
	s.mu.Unlock()
	s.head = head
	return nil
}

// syncDir fsyncs a directory, making renames within it durable.
func syncDir(dir string) error {
	d, err := os.Open(dir)
	if err != nil {
		return err
	}
	err = d.Sync()
	if cerr := d.Close(); err == nil {
		err = cerr
	}
	return err
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
	s.failLocked(err)
}

// failLocked records err as the sticky error; the caller holds s.mu.
func (s *Store) failLocked(err error) {
	if s.err == nil {
		s.err = err
		s.lg.Errorf("storage: %s: %v (store disabled; effects withheld)", s.dir, err)
	}
}
