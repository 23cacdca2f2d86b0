package storage

import (
	"bytes"
	"os"
	"path/filepath"
	"sync"
	"testing"

	"repro/internal/msg"
	"repro/internal/obs"
	"repro/internal/sigcrypto"
	"repro/internal/types"
)

// testVote builds a plausible adopted-vote record (signatures are opaque
// bytes at this layer; the WAL neither signs nor verifies).
func testVote(view types.View, value string) *msg.Propose {
	return &msg.Propose{
		View: view,
		X:    types.Value(value),
		Tau:  sigcrypto.Signature{Signer: 1, Bytes: []byte("tau-" + value)},
	}
}

func testCert(view types.View, value string) *msg.CommitCert {
	return &msg.CommitCert{
		Value: types.Value(value),
		View:  view,
		Sigs: []sigcrypto.Signature{
			{Signer: 0, Bytes: []byte("s0")},
			{Signer: 2, Bytes: []byte("s2")},
		},
	}
}

func testCheckpointCert(slot uint64, hash string) *msg.CheckpointCert {
	return &msg.CheckpointCert{
		CP: types.Checkpoint{Slot: slot, StateHash: []byte(hash)},
		Sigs: []sigcrypto.Signature{
			{Signer: 0, Bytes: []byte("c0")},
			{Signer: 1, Bytes: []byte("c1")},
		},
	}
}

func openStore(t *testing.T, dir string) *Store {
	t.Helper()
	s, err := Open(Config{Dir: dir})
	if err != nil {
		t.Fatal(err)
	}
	return s
}

// openMetered opens a store that exports its counters to a fresh registry.
func openMetered(t *testing.T) (*Store, *obs.Registry) {
	t.Helper()
	reg := obs.NewRegistry()
	s, err := Open(Config{Dir: t.TempDir(), Metrics: reg})
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { _ = s.Close() })
	return s, reg
}

// walSyncs reads the store's fsync count and its coalescing histogram (one
// sample per fsync, the records it certified) from the registry.
func walSyncs(reg *obs.Registry) (syncs float64, samples uint64, records float64) {
	snap := reg.Snapshot()
	syncs, _ = snap.Value("fastbft_wal_syncs_total", nil)
	for _, m := range snap.Metrics {
		if m.Name == "fastbft_wal_coalesced_records" {
			samples, records = m.Count, m.Sum
		}
	}
	return syncs, samples, records
}

// holdFlusher appends a record whose effect parks the flusher until the
// returned release is called, and returns once the flusher is parked:
// everything queued meanwhile is drained as one batch.
func holdFlusher(t *testing.T, s *Store) (release func()) {
	t.Helper()
	held, gate := make(chan struct{}), make(chan struct{})
	s.Append(EncodeVote(0, testVote(1, "hold")), func() {
		close(held)
		<-gate
	})
	<-held
	return func() { close(gate) }
}

// TestGroupCommitOrderedEffectSkipsFsync: an ordered effect queued behind an
// unsynced record leaves without an fsync; the durable effect after it pays
// exactly one.
func TestGroupCommitOrderedEffectSkipsFsync(t *testing.T) {
	s, reg := openMetered(t)
	release := holdFlusher(t, s) // one fsync, for the holding record
	var ordered, durable float64
	s.Append(EncodeVote(1, testVote(1, "x")))
	s.OrderedEffect(func() { ordered, _, _ = walSyncs(reg) })
	s.Effect(func() { durable, _, _ = walSyncs(reg) })
	release()
	if err := s.Barrier(); err != nil {
		t.Fatal(err)
	}
	if ordered != 1 || durable != 2 {
		t.Fatalf("fsyncs seen by the ordered effect %v (want 1), by the durable effect %v (want 2)", ordered, durable)
	}
}

// TestGroupCommitCoalescesQueuedRecords: records appended while an fsync's
// effects hold the flusher share the next fsync — one fsync, one coalescing
// sample of all of them.
func TestGroupCommitCoalescesQueuedRecords(t *testing.T) {
	s, reg := openMetered(t)
	release := holdFlusher(t, s)
	syncs0, samples0, records0 := walSyncs(reg)
	for i := uint64(1); i <= 8; i++ {
		s.Append(EncodeVote(i, testVote(1, "x")), func() {})
	}
	release()
	if err := s.Barrier(); err != nil {
		t.Fatal(err)
	}
	syncs, samples, records := walSyncs(reg)
	if syncs-syncs0 != 1 || samples-samples0 != 1 || records-records0 != 8 {
		t.Fatalf("8 queued records took %v fsyncs with %d coalescing samples of %v records, want 1, 1, 8",
			syncs-syncs0, samples-samples0, records-records0)
	}
}

// TestGroupCommitCoalescingAfterCheckpoint: a checkpoint's WAL rewrite makes
// the records before it durable (or drops them), so the first fsync after it
// certifies only the records appended since.
func TestGroupCommitCoalescingAfterCheckpoint(t *testing.T) {
	s, reg := openMetered(t)
	for slot := uint64(0); slot < 8; slot++ {
		s.Append(EncodeDecision(slot, types.Decision{Value: types.Value("v"), View: 1, Path: types.FastPath}))
	}
	s.Checkpoint(testCheckpointCert(7, "h7"), []byte("snap-7"), nil)
	s.Append(EncodeVote(8, testVote(1, "x")), func() {})
	if err := s.Barrier(); err != nil {
		t.Fatal(err)
	}
	if syncs, samples, records := walSyncs(reg); syncs != 1 || samples != 1 || records != 1 {
		t.Fatalf("after a checkpoint: %v fsyncs with %d coalescing samples of %v records, want 1, 1, 1",
			syncs, samples, records)
	}
}

// TestRecordRoundTrip pins the payload codecs: every record kind survives
// encode → decode unchanged.
func TestRecordRoundTrip(t *testing.T) {
	vote := testVote(3, "value-a")
	rec, err := DecodeRecord(EncodeVote(7, vote))
	if err != nil {
		t.Fatal(err)
	}
	if rec.Kind != RecordVote || rec.Slot != 7 || !rec.Vote.X.Equal(vote.X) || rec.Vote.View != 3 {
		t.Fatalf("vote round trip: %+v", rec)
	}

	d := types.Decision{Value: types.Value("decided"), View: 2, Path: types.SlowPath}
	rec, err = DecodeRecord(EncodeDecision(9, d))
	if err != nil {
		t.Fatal(err)
	}
	if rec.Kind != RecordDecision || rec.Slot != 9 || !rec.Decision.Value.Equal(d.Value) ||
		rec.Decision.View != 2 || rec.Decision.Path != types.SlowPath {
		t.Fatalf("decision round trip: %+v", rec)
	}

	cc := testCert(4, "cert-value")
	rec, err = DecodeRecord(EncodeCert(11, cc))
	if err != nil {
		t.Fatal(err)
	}
	if rec.Kind != RecordCert || rec.Slot != 11 || !rec.Cert.Value.Equal(cc.Value) ||
		rec.Cert.View != 4 || len(rec.Cert.Sigs) != 2 {
		t.Fatalf("cert round trip: %+v", rec)
	}
}

// TestStoreRecoversAppendedRecords is the basic durability loop: append,
// close, reopen, and find everything folded by slot.
func TestStoreRecoversAppendedRecords(t *testing.T) {
	dir := t.TempDir()
	s := openStore(t, dir)
	s.Append(EncodeVote(1, testVote(1, "a")))
	s.Append(EncodeVote(1, testVote(2, "b"))) // later view supersedes
	s.Append(EncodeDecision(1, types.Decision{Value: types.Value("b"), View: 2, Path: types.SlowPath}))
	s.Append(EncodeCert(1, testCert(2, "b")))
	s.Append(EncodeVote(2, testVote(1, "c"))) // in-flight, undecided
	if err := s.Close(); err != nil {
		t.Fatal(err)
	}

	s = openStore(t, dir)
	defer func() { _ = s.Close() }()
	rec := s.Recovered()
	if rec.HasSnapshot {
		t.Fatal("unexpected snapshot in a fresh dir")
	}
	if d, ok := rec.Decisions[1]; !ok || !d.Value.Equal(types.Value("b")) {
		t.Fatalf("decision not recovered: %+v", rec.Decisions)
	}
	if cc := rec.Certs[1]; cc == nil || !cc.Value.Equal(types.Value("b")) {
		t.Fatal("cert not recovered")
	}
	vs := rec.Votes[1]
	if vs == nil || len(vs.Acks) != 2 || vs.Acks[1].View != 2 {
		t.Fatalf("vote history not recovered: %+v", vs)
	}
	if vs := rec.Votes[2]; vs == nil || len(vs.Acks) != 1 || !vs.Acks[0].X.Equal(types.Value("c")) {
		t.Fatal("in-flight vote not recovered")
	}
}

// TestEffectsRunInOrderAfterRecords: group commit must release effects in
// queue order, each only after the records before it were written.
func TestEffectsRunInOrderAfterRecords(t *testing.T) {
	dir := t.TempDir()
	s := openStore(t, dir)
	defer func() { _ = s.Close() }()

	var mu sync.Mutex
	var order []int
	log := func(i int) func() {
		return func() { mu.Lock(); order = append(order, i); mu.Unlock() }
	}
	for i := 0; i < 10; i++ {
		s.Append(EncodeVote(uint64(i), testVote(1, "x")), log(i))
	}
	s.Effect(log(10))
	if err := s.Barrier(); err != nil {
		t.Fatal(err)
	}
	mu.Lock()
	defer mu.Unlock()
	if len(order) != 11 {
		t.Fatalf("ran %d effects, want 11", len(order))
	}
	for i, v := range order {
		if v != i {
			t.Fatalf("effects out of order: %v", order)
		}
	}
}

// TestCheckpointTruncatesWALAndPrunesSnapshots: a checkpoint op writes the
// snapshot file, rewrites the WAL with only the live records, and removes
// older snapshots; recovery then starts from the snapshot.
func TestCheckpointTruncatesWALAndPrunesSnapshots(t *testing.T) {
	dir := t.TempDir()
	s := openStore(t, dir)
	for slot := uint64(0); slot < 8; slot++ {
		s.Append(EncodeDecision(slot, types.Decision{Value: types.Value("v"), View: 1, Path: types.FastPath}))
	}
	// First checkpoint at slot 3, then a newer one at slot 5.
	s.Checkpoint(testCheckpointCert(3, "h3"), []byte("snap-3"), nil)
	live := [][]byte{
		EncodeDecision(6, types.Decision{Value: types.Value("v"), View: 1, Path: types.FastPath}),
		EncodeDecision(7, types.Decision{Value: types.Value("v"), View: 1, Path: types.FastPath}),
		EncodeVote(8, testVote(1, "pending")),
	}
	s.Checkpoint(testCheckpointCert(5, "h5"), []byte("snap-5"), live)
	s.Append(EncodeDecision(8, types.Decision{Value: types.Value("w"), View: 1, Path: types.FastPath}))
	if err := s.Close(); err != nil {
		t.Fatal(err)
	}

	if _, err := os.Stat(filepath.Join(dir, snapName(3))); !os.IsNotExist(err) {
		t.Fatal("old snapshot not pruned")
	}
	s = openStore(t, dir)
	defer func() { _ = s.Close() }()
	rec := s.Recovered()
	if !rec.HasSnapshot || rec.SnapshotSlot != 5 || !bytes.Equal(rec.Snapshot, []byte("snap-5")) {
		t.Fatalf("snapshot not recovered: %+v", rec)
	}
	if rec.SnapshotCert == nil || !rec.SnapshotCert.CP.Equal(types.Checkpoint{Slot: 5, StateHash: []byte("h5")}) {
		t.Fatal("snapshot cert not recovered")
	}
	// Only the live records and the post-checkpoint append survive; the
	// pre-checkpoint decisions (slots 0..5) are gone.
	if len(rec.Decisions) != 3 {
		t.Fatalf("recovered %d decisions, want 3 (6,7,8): %+v", len(rec.Decisions), rec.Decisions)
	}
	for _, slot := range []uint64{6, 7, 8} {
		if _, ok := rec.Decisions[slot]; !ok {
			t.Fatalf("decision %d missing after truncation", slot)
		}
	}
	if vs := rec.Votes[8]; vs == nil || len(vs.Acks) != 1 {
		t.Fatal("live vote record lost in truncation")
	}
}

// TestTornWriteRecovery is the crash-consistency table: a WAL whose last
// record is truncated at every possible byte boundary, or corrupted at
// every possible byte, must recover exactly the records before it.
func TestTornWriteRecovery(t *testing.T) {
	full := []Record{}
	var wal []byte
	payloads := [][]byte{
		EncodeVote(1, testVote(1, "first")),
		EncodeDecision(1, types.Decision{Value: types.Value("first"), View: 1, Path: types.FastPath}),
		EncodeCert(1, testCert(1, "first")),
		EncodeVote(2, testVote(1, "second-longer-value-so-the-tail-spans-many-offsets")),
	}
	for _, p := range payloads {
		rec, err := DecodeRecord(p)
		if err != nil {
			t.Fatal(err)
		}
		full = append(full, rec)
		wal = AppendFrame(wal, p)
	}
	lastStart := len(wal) - walFrameHeader - len(payloads[len(payloads)-1])
	wantRecs := len(full) - 1

	check := func(t *testing.T, contents []byte, label string) {
		t.Helper()
		dir := t.TempDir()
		if err := os.WriteFile(filepath.Join(dir, walName), contents, 0o644); err != nil {
			t.Fatal(err)
		}
		s := openStore(t, dir)
		rec := s.Recovered()
		got := len(rec.Decisions)
		for _, vs := range rec.Votes {
			got += len(vs.Acks)
		}
		got += len(rec.Certs)
		if got != wantRecs {
			t.Fatalf("%s: recovered %d records, want %d", label, got, wantRecs)
		}
		if vs := rec.Votes[2]; vs != nil {
			t.Fatalf("%s: torn tail record leaked into recovery", label)
		}
		// The file must have been truncated back to the last valid record,
		// so appends continue from a clean boundary.
		st, err := os.Stat(filepath.Join(dir, walName))
		if err != nil {
			t.Fatal(err)
		}
		if st.Size() != int64(lastStart) {
			t.Fatalf("%s: WAL size %d after recovery, want %d", label, st.Size(), lastStart)
		}
		// And the store must stay appendable: a fresh record written after
		// recovery is itself recovered.
		s.Append(EncodeVote(9, testVote(1, "after-recovery")))
		if err := s.Close(); err != nil {
			t.Fatal(err)
		}
		s2 := openStore(t, dir)
		if vs := s2.Recovered().Votes[9]; vs == nil || len(vs.Acks) != 1 {
			t.Fatalf("%s: append after torn-tail recovery lost", label)
		}
		_ = s2.Close()
	}

	t.Run("truncated", func(t *testing.T) {
		// Every byte boundary inside the last frame (header + payload).
		for cut := lastStart; cut < len(wal); cut++ {
			check(t, wal[:cut], "cut at "+itoa(cut))
		}
	})
	t.Run("corrupted", func(t *testing.T) {
		// Every byte of the last frame flipped.
		for off := lastStart; off < len(wal); off++ {
			bad := append([]byte(nil), wal...)
			bad[off] ^= 0xFF
			check(t, bad, "flip at "+itoa(off))
		}
	})
}

func itoa(i int) string {
	if i == 0 {
		return "0"
	}
	var b [20]byte
	n := len(b)
	for i > 0 {
		n--
		b[n] = byte('0' + i%10)
		i /= 10
	}
	return string(b[n:])
}

// TestValidCRCBadRecordStopsScan: a frame whose CRC is intact but whose
// payload is not a valid record also stops recovery (framing after it is
// untrusted).
func TestValidCRCBadRecordStopsScan(t *testing.T) {
	var wal []byte
	wal = AppendFrame(wal, EncodeVote(1, testVote(1, "ok")))
	wal = AppendFrame(wal, []byte{0xEE, 0x01, 0x02}) // valid frame, junk record
	wal = AppendFrame(wal, EncodeVote(2, testVote(1, "after")))
	recs, off := scanWAL(wal)
	if len(recs) != 1 {
		t.Fatalf("scanned %d records, want 1", len(recs))
	}
	if off == int64(len(wal)) {
		t.Fatal("scan claimed the whole file valid past a junk record")
	}
}

// TestAbortDropsPendingEffects: Abort models a power cut — queued effects
// must never run afterwards.
func TestAbortDropsPendingEffects(t *testing.T) {
	dir := t.TempDir()
	s := openStore(t, dir)
	var mu sync.Mutex
	ran := 0
	for i := 0; i < 100; i++ {
		s.Append(EncodeVote(uint64(i), testVote(1, "x")), func() {
			mu.Lock()
			ran++
			mu.Unlock()
		})
	}
	s.Abort()
	mu.Lock()
	after := ran
	mu.Unlock()
	// Appending or scheduling effects after Abort is a no-op.
	called := false
	s.Effect(func() { called = true })
	s.Append(EncodeVote(200, testVote(1, "y")), func() { called = true })
	if called {
		t.Fatal("effect ran after Abort")
	}
	mu.Lock()
	if ran != after {
		t.Fatal("effects kept running after Abort")
	}
	mu.Unlock()

	// The store reopens cleanly regardless of where the cut landed.
	s2 := openStore(t, dir)
	_ = s2.Close()
}

// TestParseSyncMode pins the accepted spellings: group commit is the only
// mode, and the retired "none" and "always" are rejected, not mapped to it.
func TestParseSyncMode(t *testing.T) {
	for _, in := range []string{"", "group"} {
		if got, err := ParseSyncMode(in); err != nil || got != SyncGroup {
			t.Fatalf("ParseSyncMode(%q) = %v, %v", in, got, err)
		}
	}
	for _, in := range []string{"none", "always", "fsync"} {
		if _, err := ParseSyncMode(in); err == nil {
			t.Fatalf("ParseSyncMode(%q) accepted", in)
		}
	}
}

// TestSyncModesAllDurable: records appended without effects (which trigger
// no fsync of their own) survive a graceful close/reopen — Close syncs them.
func TestSyncModesAllDurable(t *testing.T) {
	t.Run("group", func(t *testing.T) {
		dir := t.TempDir()
		s := openStore(t, dir)
		for i := uint64(0); i < 5; i++ {
			s.Append(EncodeDecision(i, types.Decision{Value: types.Value("v"), View: 1, Path: types.FastPath}))
		}
		if err := s.Close(); err != nil {
			t.Fatal(err)
		}
		s2 := openStore(t, dir)
		if got := len(s2.Recovered().Decisions); got != 5 {
			t.Fatalf("recovered %d decisions, want 5", got)
		}
		_ = s2.Close()
	})
}
