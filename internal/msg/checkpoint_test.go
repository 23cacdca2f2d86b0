package msg

import (
	"testing"

	"repro/internal/quorum"
	"repro/internal/sigcrypto"
	"repro/internal/types"
)

func sampleCheckpoint() types.Checkpoint {
	return types.Checkpoint{Slot: 16, StateHash: []byte("0123456789abcdef0123456789abcdef")}
}

func sampleCheckpointCert(s sigcrypto.Scheme) *CheckpointCert {
	cp := sampleCheckpoint()
	d := CheckpointDigest(cp)
	return &CheckpointCert{
		CP:   cp,
		Sigs: []sigcrypto.Signature{s.Signer(1).Sign(d), s.Signer(3).Sign(d)},
	}
}

func TestCheckpointCertVerify(t *testing.T) {
	s := testScheme()
	th := quorum.New(testCfg)
	ver := s.Verifier()

	cert := sampleCheckpointCert(s)
	if !cert.Verify(ver, th) {
		t.Fatal("valid checkpoint certificate rejected")
	}
	// Below CertQuorum (f+1 = 2).
	short := &CheckpointCert{CP: cert.CP, Sigs: cert.Sigs[:1]}
	if short.Verify(ver, th) {
		t.Fatal("checkpoint certificate with f signatures accepted")
	}
	// Duplicate signers must not count twice.
	dup := &CheckpointCert{CP: cert.CP, Sigs: []sigcrypto.Signature{cert.Sigs[0], cert.Sigs[0]}}
	if dup.Verify(ver, th) {
		t.Fatal("duplicate signer counted twice")
	}
	// A certificate over one checkpoint must not verify for another.
	other := cert.Clone()
	other.CP.Slot++
	if other.Verify(ver, th) {
		t.Fatal("certificate accepted for wrong slot")
	}
	wrongHash := cert.Clone()
	wrongHash.CP.StateHash = []byte("ffffffffffffffffffffffffffffffff")
	if wrongHash.Verify(ver, th) {
		t.Fatal("certificate accepted for wrong state hash")
	}
	var nilCert *CheckpointCert
	if nilCert.Verify(ver, th) {
		t.Fatal("nil checkpoint certificate accepted")
	}
	if nilCert.Clone() != nil {
		t.Fatal("nil clone must stay nil")
	}
}

func TestCheckpointEqualClone(t *testing.T) {
	cp := sampleCheckpoint()
	cl := cp.Clone()
	if !cp.Equal(cl) {
		t.Fatal("clone differs from original")
	}
	cl.StateHash[0] ^= 0xFF
	if cp.Equal(cl) {
		t.Fatal("clone aliases original state hash")
	}
	if cp.Equal(types.Checkpoint{Slot: cp.Slot + 1, StateHash: cp.StateHash}) {
		t.Fatal("checkpoints with different slots compare equal")
	}
}

// TestSnapshotChunkCodecRoundTrip pins the wire form of one piece of a
// streamed state-transfer snapshot.
func TestSnapshotChunkCodecRoundTrip(t *testing.T) {
	s := testScheme()
	in := &StateSnapshot{
		Cert:   *sampleCheckpointCert(s),
		Total:  1 << 20,
		Offset: 4096,
		Data:   []byte("one chunk of a large snapshot"),
	}
	buf := Encode(in)
	m, err := Decode(buf)
	if err != nil {
		t.Fatal(err)
	}
	out, ok := m.(*StateSnapshot)
	if !ok {
		t.Fatalf("decoded %T", m)
	}
	if !out.Cert.CP.Equal(in.Cert.CP) || len(out.Cert.Sigs) != len(in.Cert.Sigs) ||
		out.Total != in.Total || out.Offset != in.Offset || string(out.Data) != string(in.Data) {
		t.Fatalf("round trip mismatch: %+v", out)
	}
	// Strictness: trailing bytes are rejected.
	if _, err := Decode(append(buf, 0)); err == nil {
		t.Fatal("trailing byte accepted")
	}
}
