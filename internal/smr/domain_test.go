package smr

import (
	"testing"

	"repro/internal/msg"
	"repro/internal/quorum"
	"repro/internal/sigcrypto"
	"repro/internal/transport"
	"repro/internal/types"
)

// TestSigningDomainsAreDisjoint: a signature minted in one signing domain
// verifies there and nowhere else — not under another group's domain for the
// same slot, not under another slot's domain in the same group, not under
// the group's log-wide (checkpoint) domain, and not under the bare scheme.
// Group 0 is a row like any other. This is the property that kills
// cross-group and cross-slot replay of acks, votes, and certificates.
func TestSigningDomainsAreDisjoint(t *testing.T) {
	cfg := types.Generalized(1, 1)
	scheme := sigcrypto.NewHMAC(cfg.N, 9)
	digest := msg.AckDigest(types.Value("decided-value"), 1)

	type domain struct {
		name string
		salt []byte // nil = the bare scheme
	}
	for _, g := range []uint64{0, 1, 3, 200} {
		for _, s := range []uint64{0, 7, ctrlSlot} {
			others := []domain{
				{"another group, same slot", slotDomain(g+1, s)},
				{"same group, another slot", slotDomain(g, s+1)},
				{"swapped group and slot", slotDomain(s, g)},
				{"the group's log-wide domain", logDomain(g)},
				{"another group's log-wide domain", logDomain(g + 1)},
				{"the bare scheme", nil},
			}
			for _, minted := range []domain{
				{"slot domain", slotDomain(g, s)},
				{"log-wide domain", logDomain(g)},
			} {
				sig := domainSigner{inner: scheme.Signer(2), salt: minted.salt}.Sign(digest)
				if !(domainVerifier{inner: scheme.Verifier(), salt: minted.salt}).Verify(digest, sig) {
					t.Fatalf("g=%d s=%d: %s signature rejected in its own domain", g, s, minted.name)
				}
				for _, o := range others {
					if string(o.salt) == string(minted.salt) {
						continue // the log-wide row meets itself
					}
					ver := sigcrypto.Verifier(domainVerifier{inner: scheme.Verifier(), salt: o.salt})
					if o.salt == nil {
						ver = scheme.Verifier()
					}
					if ver.Verify(digest, sig) {
						t.Fatalf("g=%d s=%d: %s signature verified under %s", g, s, minted.name, o.name)
					}
				}
			}
		}
	}

	// The same holds one level up: a commit certificate assembled in slot
	// 3's domain cannot authenticate slot 9 — what stops a Byzantine
	// state-transfer responder from relabeling a certified decision.
	x, v := types.Value("decided-value"), types.View(1)
	var sigs []sigcrypto.Signature
	for p := 0; p < 3; p++ {
		sigs = append(sigs, SlotSigner(scheme.Signer(types.ProcessID(p)), 0, 3).Sign(msg.AckDigest(x, v)))
	}
	cc := &msg.CommitCert{Value: x, View: v, Sigs: sigs}
	th := quorum.New(cfg)
	if !cc.Verify(domainVerifier{inner: scheme.Verifier(), salt: slotDomain(0, 3)}, th) {
		t.Fatal("genuine certificate rejected in its own slot domain")
	}
	if cc.Verify(domainVerifier{inner: scheme.Verifier(), salt: slotDomain(0, 9)}, th) {
		t.Fatal("slot-3 certificate verified in slot 9's domain: cross-slot replay possible")
	}
}

// TestVerifyMemoStaysInItsSlot: a consensus instance answers a signature it
// has already verified from memory, so that memory must not outlive its
// signing domain. Slot 2's instance verifies three AckSigs and commits; the
// certificate they make, replayed as Commits in slot 5, does not decide
// slot 5, while the same Commits in slot 2 decide it. A memo shared by the
// replica's instances and keyed on the unsalted digest would decide both.
func TestVerifyMemoStaysInItsSlot(t *testing.T) {
	cfg := types.Generalized(1, 1) // n = 4, CommitQuorum 3
	scheme := sigcrypto.NewHMAC(cfg.N, 11)
	net := transport.NewMemNetwork(cfg.N, 0)
	defer net.Close()
	r, err := NewReplica(Config{
		Cluster: cfg, Self: 0,
		Signer: scheme.Signer(0), Verifier: scheme.Verifier(),
		Transport: net.Transport(0), App: NewKVStore(),
	})
	if err != nil {
		t.Fatal(err)
	}
	if err := r.Start(); err != nil {
		t.Fatal(err)
	}
	defer r.Close()

	const s, other = 2, 5
	x, v := types.Value("x"), types.View(1)
	cc := msg.CommitCert{Value: x, View: v}
	for p := types.ProcessID(1); p <= 3; p++ {
		phi := SlotSigner(scheme.Signer(p), 0, s).Sign(msg.AckDigest(x, v))
		cc.Sigs = append(cc.Sigs, phi)
		r.onPayload(p, envelope(0, s, &msg.AckSig{View: v, X: x, Phi: phi}))
	}
	commit := &msg.Commit{View: v, X: x, CC: cc}
	for p := types.ProcessID(1); p <= 3; p++ {
		r.onPayload(p, envelope(0, other, commit))
	}
	if _, ok := r.Decided(other); ok {
		t.Fatalf("slot %d decided on slot %d's certificate", other, s)
	}
	for p := types.ProcessID(1); p <= 3; p++ {
		r.onPayload(p, envelope(0, s, commit))
	}
	if d, ok := r.Decided(s); !ok || !d.Value.Equal(x) {
		t.Fatalf("slot %d did not decide on its own certificate: %v %v", s, d, ok)
	}
}

// TestReplicaDropsFramesOfOtherGroups: a replica sitting directly on a raw
// transport (no mux in front of it) drops a frame addressed to another group
// and a frame with a truncated header, and accepts the identical message
// under its own group. A relayed request passes the admission check of
// HandleRequest: one addressed to another group, or with no operation, is
// not queued even under this group's frame header.
func TestReplicaDropsFramesOfOtherGroups(t *testing.T) {
	cfg := types.Generalized(1, 1)
	scheme := sigcrypto.NewHMAC(cfg.N, 10)
	net := transport.NewMemNetwork(cfg.N, 0)
	defer net.Close()
	const group = 2
	r, err := NewReplica(Config{
		Cluster: cfg, Self: 0, Group: group,
		Signer: scheme.Signer(0), Verifier: scheme.Verifier(),
		Transport: net.Transport(0), App: NewKVStore(),
	})
	if err != nil {
		t.Fatal(err)
	}
	if err := r.Start(); err != nil {
		t.Fatal(err)
	}
	defer r.Close()

	req := &msg.Request{Client: "c", Seq: 1, Op: EncodeKV(KVCommand{Op: OpSet, Key: "k", Value: "v"}), Group: group}
	for _, frame := range [][]byte{
		envelope(group+1, ctrlSlot, req), // another group's relay
		envelope(0, ctrlSlot, req),       // group 0 is not a wildcard
		{0x82},                           // truncated group uvarint
		{group},                          // header ends before the slot
		envelope(group, ctrlSlot, &msg.Request{Client: "c", Seq: 1, Op: req.Op, Group: group + 1}),
		envelope(group, ctrlSlot, &msg.Request{Client: "c", Seq: 1, Group: group}),
	} {
		r.onPayload(1, frame)
		if n := r.PendingCount(); n != 0 {
			t.Fatalf("frame %x queued %d commands", frame, n)
		}
	}
	r.onPayload(1, envelope(group, ctrlSlot, req))
	if n := r.PendingCount(); n != 1 {
		t.Fatalf("own-group relay queued %d commands, want 1", n)
	}
}
