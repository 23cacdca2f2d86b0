package storage

import (
	"bytes"
	"errors"
	"fmt"
	"os"
	"path/filepath"
	"strings"
	"sync"
	"testing"

	"repro/internal/msg"
	"repro/internal/obs"
	"repro/internal/sigcrypto"
	"repro/internal/types"
	"repro/internal/wire"
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

// certRecord renders a reserved certificate record as WALs written before
// the kind was retired hold it: the slot and a msg.Commit carrying a commit
// certificate for value in view.
func certRecord(slot uint64, view types.View, value string) []byte {
	cc := msg.CommitCert{
		Value: types.Value(value),
		View:  view,
		Sigs: []sigcrypto.Signature{
			{Signer: 0, Bytes: []byte("s0")},
			{Signer: 2, Bytes: []byte("s2")},
		},
	}
	return certRecordOf(slot, msg.Encode(&msg.Commit{View: view, X: cc.Value, CC: cc}))
}

// certRecordOf frames inner as the body of a reserved certificate record.
func certRecordOf(slot uint64, inner []byte) []byte {
	w := wire.NewWriter(len(inner) + 16)
	w.Uint8(uint8(RecordCert))
	w.Uvarint(slot)
	w.BytesField(inner)
	return w.Bytes()
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

// framed renders payloads as consecutive WAL frames.
func framed(payloads ...[]byte) []byte {
	var out []byte
	for _, p := range payloads {
		out, _ = appendFrame(out, p)
	}
	return out
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
	s.Checkpoint(testCheckpointCert(7, "h7"), []byte("snap-7"))
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
// encode → decode unchanged, and a reserved certificate record decodes to
// its slot.
func TestRecordRoundTrip(t *testing.T) {
	vote := testVote(3, "value-a")
	rec, err := DecodeRecord(EncodeVote(7, vote))
	if err != nil {
		t.Fatal(err)
	}
	if rec.Kind != RecordVote || rec.Slot != 7 || !rec.Vote.X.Equal(vote.X) || rec.Vote.View != 3 {
		t.Fatalf("vote round trip: %+v", rec)
	}

	for _, path := range []types.DecidePath{types.FastPath, types.SlowPath, types.TransferPath} {
		d := types.Decision{Value: types.Value("decided"), View: 2, Path: path}
		rec, err = DecodeRecord(EncodeDecision(9, d))
		if err != nil {
			t.Fatal(err)
		}
		if rec.Kind != RecordDecision || rec.Slot != 9 || !rec.Decision.Value.Equal(d.Value) ||
			rec.Decision.View != 2 || rec.Decision.Path != path {
			t.Fatalf("decision round trip: %+v", rec)
		}
	}
	if _, err := DecodeRecord(EncodeDecision(9, types.Decision{Value: types.Value("x"), Path: types.TransferPath + 1})); err == nil {
		t.Fatal("a decision record with an unknown path decoded")
	}

	rec, err = DecodeRecord(certRecord(11, 4, "cert-value"))
	if err != nil {
		t.Fatal(err)
	}
	if rec.Kind != RecordCert || rec.Slot != 11 {
		t.Fatalf("reserved cert record: %+v", rec)
	}

	ckpt := testCheckpointCert(13, "h13")
	rec, err = DecodeRecord(EncodeSnapshot(ckpt, []byte("snapshot-bytes")))
	if err != nil {
		t.Fatal(err)
	}
	if rec.Kind != RecordSnapshot || rec.Slot != 13 || !rec.SnapshotCert.CP.Equal(ckpt.CP) ||
		len(rec.SnapshotCert.Sigs) != 2 || !bytes.Equal(rec.Snapshot, []byte("snapshot-bytes")) {
		t.Fatalf("snapshot round trip: %+v", rec)
	}
}

// TestWALRecordReservedCertSkipped: a WAL written while replicas kept
// commit certificates holds certificate records between the others. The
// scan must read past them, not stop: a stop there would truncate the file
// and drop the votes after it, and a replica recovered without its votes
// could ack twice in one view. Recovery skips the certificate, keeps both
// votes and the decision, and truncates nothing.
func TestWALRecordReservedCertSkipped(t *testing.T) {
	dir := t.TempDir()
	wal := framed(
		EncodeVote(1, testVote(1, "a")),
		certRecord(1, 1, "a"),
		EncodeDecision(1, types.Decision{Value: types.Value("a"), View: 1, Path: types.SlowPath}),
		EncodeVote(2, testVote(1, "b")),
	)
	path := filepath.Join(dir, walName)
	if err := os.WriteFile(path, wal, 0o644); err != nil {
		t.Fatal(err)
	}
	s := openStore(t, dir)
	rec := s.Recovered()
	if err := s.Close(); err != nil {
		t.Fatal(err)
	}
	if d, ok := rec.Decisions[1]; !ok || !d.Value.Equal(types.Value("a")) {
		t.Fatalf("decision after the certificate record lost: %+v", rec.Decisions)
	}
	for slot, v := range map[uint64]string{1: "a", 2: "b"} {
		if vs := rec.Votes[slot]; vs == nil || len(vs.Acks) != 1 || !vs.Acks[0].X.Equal(types.Value(v)) {
			t.Fatalf("vote of slot %d lost: %+v", slot, vs)
		}
	}
	got, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(got, wal) {
		t.Fatalf("recovery rewrote the WAL: %d bytes, want the %d written", len(got), len(wal))
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
	s.Append(EncodeVote(2, testVote(1, "c"))) // in-flight, undecided
	if err := s.Close(); err != nil {
		t.Fatal(err)
	}

	s = openStore(t, dir)
	defer func() { _ = s.Close() }()
	rec := s.Recovered()
	if rec.SnapshotCert != nil {
		t.Fatal("unexpected snapshot in a fresh dir")
	}
	if d, ok := rec.Decisions[1]; !ok || !d.Value.Equal(types.Value("b")) {
		t.Fatalf("decision not recovered: %+v", rec.Decisions)
	}
	vs := rec.Votes[1]
	if vs == nil || len(vs.Acks) != 2 || vs.Acks[1].View != 2 {
		t.Fatalf("vote history not recovered: %+v", vs)
	}
	if vs := rec.Votes[2]; vs == nil || len(vs.Acks) != 1 || !vs.Acks[0].X.Equal(types.Value("c")) {
		t.Fatal("in-flight vote not recovered")
	}
	if again := s.Recovered(); again != nil {
		t.Fatal("the store kept its recovered state after handing it over")
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

// TestCheckpointKeepsExactlyRecordsAboveIt: a checkpoint replaces the WAL
// with the snapshot record followed by exactly the old WAL's frames whose
// slot is above the checkpoint, byte for byte and in append order — votes
// (of decided and of undecided slots) and decisions alike, including a
// decision that arrived without a vote (a state-transfer tail). The older
// checkpoint heading the old WAL is dropped, and so are reserved
// certificate records, above the checkpoint too; the data directory holds
// the one WAL file.
func TestCheckpointKeepsExactlyRecordsAboveIt(t *testing.T) {
	const c = 5
	dec := func(s uint64, v string) []byte {
		return EncodeDecision(s, types.Decision{Value: types.Value(v), View: 1, Path: types.FastPath})
	}
	var all, kept [][]byte
	add := func(p []byte, slot uint64) {
		all = append(all, p)
		if slot > c {
			kept = append(kept, p)
		}
	}
	for slot := uint64(0); slot <= c+1; slot++ { // slots ≤ c and c+1: vote, decision, cert
		v := "v" + itoa(int(slot))
		add(EncodeVote(slot, testVote(1, v)), slot)
		add(dec(slot, v), slot)
		all = append(all, certRecord(slot, 1, v)) // never kept
	}
	add(dec(c+2, "tail"), c+2) // learned through a state-transfer tail: a decision, no vote
	add(EncodeVote(c+3, testVote(1, "undecided")), c+3)
	add(EncodeVote(c+3, testVote(2, "undecided-2")), c+3)
	add(EncodeVote(c-1, testVote(3, "late-below")), c-1) // appended late, still at or below c

	dir := t.TempDir()
	s := openStore(t, dir)
	for i, p := range all {
		s.Append(p)
		if i == 6 {
			s.Checkpoint(testCheckpointCert(1, "h1"), []byte("snap-1"))
		}
	}
	cert := testCheckpointCert(c, "h5")
	s.Checkpoint(cert, []byte("snap-5"))
	after := EncodeVote(c+4, testVote(1, "after"))
	s.Append(after)
	if err := s.Close(); err != nil {
		t.Fatal(err)
	}

	want := framed(append(append([][]byte{EncodeSnapshot(cert, []byte("snap-5"))}, kept...), after)...)
	got, err := os.ReadFile(filepath.Join(dir, walName))
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(got, want) {
		t.Fatalf("WAL after the checkpoint holds\n%s\nwant\n%s", recordList(got), recordList(want))
	}
	entries, err := os.ReadDir(dir)
	if err != nil {
		t.Fatal(err)
	}
	if len(entries) != 1 {
		t.Fatalf("data dir holds %d files, want only %s", len(entries), walName)
	}

	s = openStore(t, dir)
	defer func() { _ = s.Close() }()
	rec := s.Recovered()
	if rec.SnapshotCert == nil || !rec.SnapshotCert.CP.Equal(cert.CP) || !bytes.Equal(rec.Snapshot, []byte("snap-5")) {
		t.Fatalf("checkpoint not recovered: %+v", rec)
	}
	if len(rec.Decisions) != 2 || len(rec.Votes) != 3 {
		t.Fatalf("recovered %d decisions, %d vote slots; want 2, 3",
			len(rec.Decisions), len(rec.Votes))
	}
	if vs := rec.Votes[c+3]; vs == nil || len(vs.Acks) != 2 || vs.Acks[1].View != 2 {
		t.Fatalf("undecided slot's vote history lost: %+v", vs)
	}
}

// recordList names the records of a WAL image, kind@slot, in order.
func recordList(wal []byte) string {
	recs, _ := scanWAL(wal)
	var b strings.Builder
	for _, r := range recs {
		fmt.Fprintf(&b, " %s@%d", r.Kind, r.Slot)
	}
	return b.String()
}

// TestCheckpointSnapshotAboveMessageLimitRecovers: a snapshot larger than
// one protocol message (wire.MaxBytes) — state transfer ships it in pieces
// — survives a checkpoint and a reopen with its certificate and its exact
// bytes, and so do the records above it.
func TestCheckpointSnapshotAboveMessageLimitRecovers(t *testing.T) {
	snap := make([]byte, 9<<20)
	for i := range snap {
		snap[i] = byte(i * 7)
	}
	dir := t.TempDir()
	s := openStore(t, dir)
	s.Append(EncodeDecision(4, types.Decision{Value: types.Value("v"), View: 1, Path: types.FastPath}))
	cert := testCheckpointCert(3, "h3")
	s.Checkpoint(cert, snap)
	if err := s.Close(); err != nil {
		t.Fatal(err)
	}
	s = openStore(t, dir)
	defer func() { _ = s.Close() }()
	rec := s.Recovered()
	if rec.SnapshotCert == nil || !rec.SnapshotCert.CP.Equal(cert.CP) {
		t.Fatalf("a %d-byte snapshot's certificate was not recovered", len(snap))
	}
	if !bytes.Equal(rec.Snapshot, snap) {
		t.Fatalf("recovered %d snapshot bytes, want the %d checkpointed ones", len(rec.Snapshot), len(snap))
	}
	if _, ok := rec.Decisions[4]; !ok || len(rec.Decisions) != 1 {
		t.Fatalf("records above the checkpoint: %+v", rec.Decisions)
	}
}

// TestRecoverRemovesHalfWrittenCheckpoint: a crash in the middle of a
// checkpoint leaves a partial temporary WAL next to the old one. Open
// removes it, and the old WAL recovers in full.
func TestRecoverRemovesHalfWrittenCheckpoint(t *testing.T) {
	dir := t.TempDir()
	s := openStore(t, dir)
	s.Append(EncodeVote(1, testVote(1, "a")))
	s.Append(EncodeDecision(1, types.Decision{Value: types.Value("a"), View: 1, Path: types.FastPath}))
	s.Append(EncodeVote(2, testVote(1, "b")))
	if err := s.Close(); err != nil {
		t.Fatal(err)
	}
	full := framed(EncodeSnapshot(testCheckpointCert(1, "h1"), []byte("snap-1")), EncodeVote(2, testVote(1, "b")))
	tmp := filepath.Join(dir, walName+".tmp")
	if err := os.WriteFile(tmp, full[:len(full)/2], 0o644); err != nil {
		t.Fatal(err)
	}

	s = openStore(t, dir)
	defer func() { _ = s.Close() }()
	if _, err := os.Stat(tmp); !os.IsNotExist(err) {
		t.Fatalf("half-written checkpoint %s survived Open (stat: %v)", tmp, err)
	}
	rec := s.Recovered()
	if rec.SnapshotCert != nil || len(rec.Decisions) != 1 || len(rec.Votes) != 2 {
		t.Fatalf("old WAL not recovered in full: snapshot %v, %d decisions, %d vote slots",
			rec.SnapshotCert != nil, len(rec.Decisions), len(rec.Votes))
	}
}

// TestWALRecordTooLongSetsStickyError: a record whose length a frame header
// cannot carry (the limit is lowered here; in production it is 4 GiB) is
// never written as a frame recovery would misread — the store sets its
// sticky error and releases no effect, whether the record is appended or
// is a checkpoint's snapshot record. The WAL keeps what came before.
func TestWALRecordTooLongSetsStickyError(t *testing.T) {
	small := EncodeDecision(1, types.Decision{Value: types.Value("v"), View: 1, Path: types.FastPath})
	defer func(old uint64) { maxFramePayload = old }(maxFramePayload)
	maxFramePayload = uint64(len(small))

	for _, tc := range []struct {
		name string
		long func(s *Store)
	}{
		{"append", func(s *Store) {
			s.Append(EncodeVote(2, testVote(1, "a value too long for the lowered frame limit")))
		}},
		{"checkpoint", func(s *Store) {
			s.Checkpoint(testCheckpointCert(1, "h1"), []byte("a snapshot too long for the lowered frame limit"))
		}},
	} {
		t.Run(tc.name, func(t *testing.T) {
			dir := t.TempDir()
			s := openStore(t, dir)
			s.Append(small)
			if err := s.Barrier(); err != nil {
				t.Fatal(err)
			}
			tc.long(s)
			ran := false
			s.Effect(func() { ran = true })
			if err := s.Barrier(); !errors.Is(err, errFrameTooLong) {
				t.Fatalf("Barrier = %v, want the sticky %v", err, errFrameTooLong)
			}
			if ran {
				t.Fatal("an effect ran after the store refused a record")
			}
			_ = s.Close()
			got, err := os.ReadFile(filepath.Join(dir, walName))
			if err != nil {
				t.Fatal(err)
			}
			if !bytes.Equal(got, framed(small)) {
				t.Fatalf("WAL holds %d bytes, want only the %d-byte frame before the refused record", len(got), len(framed(small)))
			}
		})
	}
}

// TestTornWriteRecovery is the crash-consistency table: a WAL — plain, or
// headed by a checkpoint's snapshot record — whose last record is
// truncated at every possible byte boundary, or corrupted at every
// possible byte, must recover the snapshot and exactly the records before
// the torn one.
func TestTornWriteRecovery(t *testing.T) {
	records := [][]byte{
		EncodeVote(1, testVote(1, "first")),
		EncodeDecision(1, types.Decision{Value: types.Value("first"), View: 1, Path: types.FastPath}),
		certRecord(1, 1, "first"), // reserved: read past, not recovered
		EncodeVote(2, testVote(1, "second-longer-value-so-the-tail-spans-many-offsets")),
	}
	wantRecs := len(records) - 2
	heads := map[string][][]byte{
		"plain":           nil,
		"snapshot-headed": {EncodeSnapshot(testCheckpointCert(0, "h0"), []byte("snap-0"))},
	}

	check := func(t *testing.T, contents []byte, lastStart int, hasSnap bool, label string) {
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
		if got != wantRecs {
			t.Fatalf("%s: recovered %d records, want %d", label, got, wantRecs)
		}
		if (rec.SnapshotCert != nil) != hasSnap || hasSnap && !bytes.Equal(rec.Snapshot, []byte("snap-0")) {
			t.Fatalf("%s: recovered snapshot %q (certificate: %v), want one: %v",
				label, rec.Snapshot, rec.SnapshotCert != nil, hasSnap)
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
	// tear runs check on every variant of each WAL shape that damage makes
	// of its last frame, which starts at lastStart.
	tear := func(t *testing.T, damage func(wal []byte, lastStart int) map[string][]byte) {
		for name, head := range heads {
			wal := framed(append(head, records...)...)
			lastStart := len(wal) - walFrameHeader - len(records[len(records)-1])
			for label, contents := range damage(wal, lastStart) {
				check(t, contents, lastStart, head != nil, name+": "+label)
			}
		}
	}

	t.Run("truncated", func(t *testing.T) {
		// Every byte boundary inside the last frame (header + payload).
		tear(t, func(wal []byte, lastStart int) map[string][]byte {
			out := map[string][]byte{}
			for cut := lastStart; cut < len(wal); cut++ {
				out["cut at "+itoa(cut)] = wal[:cut]
			}
			return out
		})
	})
	t.Run("corrupted", func(t *testing.T) {
		// Every byte of the last frame flipped.
		tear(t, func(wal []byte, lastStart int) map[string][]byte {
			out := map[string][]byte{}
			for off := lastStart; off < len(wal); off++ {
				bad := append([]byte(nil), wal...)
				bad[off] ^= 0xFF
				out["flip at "+itoa(off)] = bad
			}
			return out
		})
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
	wal := framed(
		EncodeVote(1, testVote(1, "ok")),
		[]byte{0xEE, 0x01, 0x02}, // valid frame, junk record
		EncodeVote(2, testVote(1, "after")),
	)
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
