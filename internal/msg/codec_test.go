package msg

import (
	"runtime"
	"strings"
	"testing"
	"testing/quick"

	"repro/internal/quorum"
	"repro/internal/sigcrypto"
	"repro/internal/types"
)

var testCfg = types.Config{N: 4, F: 1, T: 1}

func testScheme() sigcrypto.Scheme { return sigcrypto.NewHMAC(testCfg.N, 7) }

func sampleProgressCert(s sigcrypto.Scheme, x types.Value, v types.View) *ProgressCert {
	d := CertAckDigest(x, v)
	sigs := []sigcrypto.Signature{
		s.Signer(0).Sign(d),
		s.Signer(2).Sign(d),
	}
	return &ProgressCert{Value: x.Clone(), View: v, Sigs: sigs}
}

func sampleCommitCert(s sigcrypto.Scheme, x types.Value, v types.View) *CommitCert {
	d := AckDigest(x, v)
	sigs := []sigcrypto.Signature{
		s.Signer(0).Sign(d),
		s.Signer(1).Sign(d),
		s.Signer(2).Sign(d),
	}
	return &CommitCert{Value: x.Clone(), View: v, Sigs: sigs}
}

func roundTrip(t *testing.T, m Message) Message {
	t.Helper()
	buf := Encode(m)
	if buf == nil {
		t.Fatal("encode returned nil")
	}
	out, err := Decode(buf)
	if err != nil {
		t.Fatalf("decode %s: %v", m.Kind(), err)
	}
	if out.Kind() != m.Kind() || out.InView() != m.InView() {
		t.Fatalf("kind/view mismatch after round trip: %s/%s vs %s/%s",
			out.Kind(), out.InView(), m.Kind(), m.InView())
	}
	// Re-encoding must be byte-identical (canonical encoding matters for
	// signatures).
	buf2 := Encode(out)
	if string(buf) != string(buf2) {
		t.Fatalf("%s: non-canonical encoding", m.Kind())
	}
	return out
}

func TestRoundTripAllKinds(t *testing.T) {
	s := testScheme()
	x := types.Value("value")
	pc := sampleProgressCert(s, x, 2)
	cc := sampleCommitCert(s, x, 2)
	vote := VoteRecord{Value: x, View: 2, Cert: pc, Tau: s.Signer(2).Sign(ProposeDigest(x, 2)), CC: cc}
	sv := SignedVote{Voter: 1, Vote: vote, Phi: s.Signer(1).Sign(VoteDigest(vote, 3))}

	msgs := []Message{
		&Propose{View: 1, X: x, Cert: nil, Tau: s.Signer(1).Sign(ProposeDigest(x, 1))},
		&Propose{View: 3, X: x, Cert: sampleProgressCert(s, x, 3), Tau: s.Signer(3).Sign(ProposeDigest(x, 3))},
		&Ack{View: 2, X: x},
		&AckSig{View: 2, X: x, Phi: s.Signer(0).Sign(AckDigest(x, 2))},
		&Vote{View: 3, SV: sv},
		&Vote{View: 3, SV: SignedVote{Voter: 0, Vote: NilVote(), Phi: s.Signer(0).Sign(VoteDigest(NilVote(), 3))}},
		&CertRequest{View: 3, X: x, Votes: []SignedVote{sv}},
		&CertAck{View: 3, X: x, Phi: s.Signer(2).Sign(CertAckDigest(x, 3))},
		&Commit{View: 2, X: x, CC: *cc},
		&Wish{View: 9},
		&Raw{View: 4, Proto: ProtoPBFT, Sub: 2, X: x, Payload: []byte{1, 2, 3}},
		&Checkpoint{CP: sampleCheckpoint(), Phi: s.Signer(1).Sign(CheckpointDigest(sampleCheckpoint()))},
		&FetchState{From: 41},
		&StateSnapshot{},
		&StateSnapshot{
			Cert:   *sampleCheckpointCert(s),
			Total:  14,
			Offset: 0,
			Data:   []byte("snapshot-bytes"),
			Tail:   []TailDecision{{Slot: 17, Value: x}, {Slot: 18, Value: x}},
		},
		&StateSnapshot{Tail: []TailDecision{{Slot: 17, Value: x}}},
	}
	for _, m := range msgs {
		roundTrip(t, m)
	}
}

// TestKindNumbersArePinned: kind bytes are persisted (Request bytes live in
// WALs and snapshots) and exchanged between versions, so a kind keeps its
// number for good and a retired number stays unused: a frame of a retired
// kind (15–17) is refused as unknown, even with the body it once carried.
func TestKindNumbersArePinned(t *testing.T) {
	want := map[Kind]uint8{
		KindPropose: 1, KindAck: 2, KindAckSig: 3, KindVote: 4, KindCertRequest: 5,
		KindCertAck: 6, KindCommit: 7, KindWish: 8, KindRaw: 9, KindCheckpoint: 10,
		KindFetchState: 11, KindStateSnapshot: 12, KindRequest: 13, KindReply: 14,
	}
	for k, n := range want {
		if uint8(k) != n {
			t.Errorf("%s is kind %d, want %d", k, uint8(k), n)
		}
	}
	retired := [][]byte{
		{15},
		{16, 2, 0, 7}, // view 2, slots 0..7
		{17, 2, 0},    // view 2, no entries
	}
	for _, f := range retired {
		if _, err := Decode(f); err == nil || !strings.Contains(err.Error(), "unknown kind") {
			t.Errorf("retired kind %d: Decode err = %v, want unknown kind", f[0], err)
		}
	}
}

func TestDecodeRejectsUnknownKind(t *testing.T) {
	if _, err := Decode([]byte{0xEE}); err == nil {
		t.Fatal("expected error for unknown kind")
	}
	if _, err := Decode(nil); err == nil {
		t.Fatal("expected error for empty buffer")
	}
}

// TestDecodeBoundsClaimedCounts: a slice count the frame cannot back with
// bytes is refused before anything is allocated for it. Decoding runs under
// the replica lock, so a few-byte frame claiming 65 535 votes or signatures
// must not cost megabytes of allocation first.
func TestDecodeBoundsClaimedCounts(t *testing.T) {
	frames := []struct {
		name string
		buf  []byte
	}{
		// kind, view 1, empty value, vote count 65 535
		{"certreq", []byte{byte(KindCertRequest), 1, 0, 0xff, 0xff, 0x03}},
		// kind, view 1, empty value, certificate (empty value, view 1,
		// signature count 65 535)
		{"commit", []byte{byte(KindCommit), 1, 0, 0, 1, 0xff, 0xff, 0x03}},
	}
	for _, f := range frames {
		if _, err := Decode(f.buf); err == nil {
			t.Fatalf("%s: truncated frame decoded", f.name)
		}
		const runs = 20
		var before, after runtime.MemStats
		runtime.ReadMemStats(&before)
		for i := 0; i < runs; i++ {
			_, _ = Decode(f.buf)
		}
		runtime.ReadMemStats(&after)
		if per := (after.TotalAlloc - before.TotalAlloc) / runs; per > 4096 {
			t.Fatalf("%s: decoding a %d-byte frame allocated %d bytes", f.name, len(f.buf), per)
		}
	}
}

func TestDecodeRejectsTrailingBytes(t *testing.T) {
	buf := Encode(&Wish{View: 1})
	if _, err := Decode(append(buf, 0)); err == nil {
		t.Fatal("expected error for trailing bytes")
	}
}

func TestDecodeNeverPanics(t *testing.T) {
	if err := quick.Check(func(garbage []byte) bool {
		_, _ = Decode(garbage)
		return true
	}, &quick.Config{MaxCount: 2000}); err != nil {
		t.Fatal(err)
	}
}

func TestDecodeTruncations(t *testing.T) {
	// Every strict prefix of a valid encoding must fail to decode (no
	// message is a prefix of another — required for framing safety).
	s := testScheme()
	x := types.Value("v")
	cc := sampleCommitCert(s, x, 2)
	buf := Encode(&Commit{View: 2, X: x, CC: *cc})
	for i := 0; i < len(buf); i++ {
		if _, err := Decode(buf[:i]); err == nil {
			t.Fatalf("prefix of length %d decoded successfully", i)
		}
	}
}

func TestProgressCertVerify(t *testing.T) {
	s := testScheme()
	th := quorum.New(testCfg)
	ver := s.Verifier()
	x := types.Value("x")

	pc := sampleProgressCert(s, x, 2)
	if !pc.Verify(ver, th) {
		t.Fatal("valid certificate rejected")
	}
	if !pc.VerifyFor(ver, th, x, 2) {
		t.Fatal("VerifyFor rejected matching (x, v)")
	}
	if pc.VerifyFor(ver, th, types.Value("y"), 2) {
		t.Fatal("certificate accepted for wrong value")
	}
	if pc.VerifyFor(ver, th, x, 3) {
		t.Fatal("certificate accepted for wrong view")
	}
	// View 1: nil certificate required, non-nil rejected.
	if !(*ProgressCert)(nil).VerifyFor(ver, th, x, 1) {
		t.Fatal("nil certificate must authorize view 1")
	}
	if pc.VerifyFor(ver, th, x, 1) {
		t.Fatal("non-nil certificate must not be required in view 1")
	}
	if (*ProgressCert)(nil).VerifyFor(ver, th, x, 2) {
		t.Fatal("nil certificate must not authorize view 2")
	}

	// Too few signatures.
	short := &ProgressCert{Value: x, View: 2, Sigs: pc.Sigs[:1]}
	if short.Verify(ver, th) {
		t.Fatal("certificate with f signatures accepted")
	}
	// Duplicate signers must not count twice.
	dup := &ProgressCert{Value: x, View: 2, Sigs: []sigcrypto.Signature{pc.Sigs[0], pc.Sigs[0]}}
	if dup.Verify(ver, th) {
		t.Fatal("duplicate signer counted twice")
	}
	// Wrong digest.
	bad := sampleProgressCert(s, types.Value("other"), 2)
	bad.Value = x
	if bad.Verify(ver, th) {
		t.Fatal("certificate over wrong digest accepted")
	}
}

func TestCommitCertVerify(t *testing.T) {
	s := testScheme()
	th := quorum.New(testCfg)
	ver := s.Verifier()
	x := types.Value("x")

	cc := sampleCommitCert(s, x, 2)
	if !cc.Verify(ver, th) {
		t.Fatal("valid commit certificate rejected")
	}
	short := &CommitCert{Value: x, View: 2, Sigs: cc.Sigs[:2]}
	if short.Verify(ver, th) {
		t.Fatal("commit certificate below ⌈(n+f+1)/2⌉ accepted")
	}
	var nilCC *CommitCert
	if nilCC.Verify(ver, th) {
		t.Fatal("nil commit certificate accepted")
	}
	if nilCC.Clone() != nil {
		t.Fatal("nil clone must stay nil")
	}
}

func TestDigestDomainSeparation(t *testing.T) {
	x := types.Value("x")
	v := types.View(3)
	digests := [][]byte{
		ProposeDigest(x, v),
		AckDigest(x, v),
		CertAckDigest(x, v),
		VoteDigest(NilVote(), v),
		CheckpointDigest(types.Checkpoint{Slot: 3, StateHash: x}),
	}
	for i := range digests {
		for j := i + 1; j < len(digests); j++ {
			if string(digests[i]) == string(digests[j]) {
				t.Fatalf("digest domains %d and %d collide", i, j)
			}
		}
	}
	if string(ProposeDigest(x, 1)) == string(ProposeDigest(x, 2)) {
		t.Fatal("digest ignores view")
	}
	if string(ProposeDigest(types.Value("a"), v)) == string(ProposeDigest(types.Value("b"), v)) {
		t.Fatal("digest ignores value")
	}
}
