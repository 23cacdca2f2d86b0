package smr

import (
	"fmt"
	"testing"
	"time"

	"repro/internal/msg"
	"repro/internal/types"
)

// withSmallSnapshotPieces shrinks the state-transfer piece size so a
// modest KV state is streamed in several pieces, as production streams
// snapshots past 1 MiB.
func withSmallSnapshotPieces(t *testing.T, chunk int) {
	t.Helper()
	old := snapChunkSize
	snapChunkSize = chunk
	t.Cleanup(func() { snapChunkSize = old })
}

// TestChunkedSnapshotCatchUp re-runs the crashed-replica catch-up with a
// stable snapshot larger than one StateSnapshot piece: the responder must
// stream it in several pieces and the restarted replica must reassemble,
// digest-verify, and restore it.
func TestChunkedSnapshotCatchUp(t *testing.T) {
	withSmallSnapshotPieces(t, 300)
	cfg := types.Generalized(1, 1)
	const interval = 4
	// A fixed delay keeps each link FIFO, which chunk reassembly relies on
	// (as it does on TCP); a lost or reordered chunk costs a fetch retry.
	g := newSimGroup(t, cfg, 91, groupOpts{delta: time.Millisecond, interval: interval})
	reps, stores := g.reps, g.stores
	crashed := types.ProcessID(cfg.N - 1)

	// Values sized so the composite snapshot dwarfs the shrunken piece
	// size, forcing multiple pieces.
	pad := make([]byte, 200)
	for i := range pad {
		pad[i] = byte('a' + i%26)
	}
	bigOps := func(from, to int) {
		for i := from; i < to; i++ {
			cmd := EncodeKV(KVCommand{Op: OpSet, Client: "c", Seq: uint64(i),
				Key: fmt.Sprintf("k%d", i), Value: fmt.Sprintf("v%d-%s", i, pad)})
			if err := submit(reps[0], sessionID(i), 1, cmd); err != nil {
				t.Fatal(err)
			}
		}
	}

	bigOps(0, 4)
	g.run(10*time.Second, g.applied(4), "phase-1 application")

	g.crash(crashed)
	const phase2 = 4 + 3*interval + 4
	for i := 4; i < phase2; i++ {
		bigOps(i, i+1)
		g.run(10*time.Second, func() bool {
			return stores[0].AppliedOps() >= uint64(i+1)
		}, "phase-2 paced application")
	}
	g.run(10*time.Second, func() bool {
		cp, ok := reps[0].StableCheckpoint()
		return ok && cp.Slot >= 2*interval
	}, "survivors to advance their stable checkpoint")

	// Confirm the premise: the survivors' stable snapshot really does not
	// fit one piece, so it ships in several.
	reps[0].mu.Lock()
	snapLen := len(reps[0].stableSnap)
	reps[0].mu.Unlock()
	if snapLen <= snapChunkSize {
		t.Fatalf("test premise broken: stable snapshot %d bytes fits the %d-byte piece size", snapLen, snapChunkSize)
	}

	restarted := g.reboot(crashed)
	if err := restarted.Start(); err != nil {
		t.Fatal(err)
	}
	freshStore := stores[crashed]

	const totalOps = phase2 + 6
	bigOps(phase2, totalOps)
	g.run(30*time.Second, func() bool {
		return stores[0].AppliedOps() >= totalOps && freshStore.AppliedOps() >= totalOps
	}, "restarted replica to catch up through chunked state transfer")

	for i := 0; i < totalOps; i++ {
		key := fmt.Sprintf("k%d", i)
		want, ok := stores[0].Get(key)
		if !ok {
			t.Fatalf("survivor lost key %s", key)
		}
		if got, ok := freshStore.Get(key); !ok || got != want {
			t.Fatalf("restarted replica: %s present=%v, mismatch", key, ok)
		}
	}
	cp, ok := restarted.StableCheckpoint()
	if !ok || cp.Slot < 2*interval {
		t.Fatalf("restarted replica did not adopt a checkpoint past the outage (ok=%v slot=%d)", ok, cp.Slot)
	}
}

// TestSnapshotChunkReassemblyRejectsHostileChunks drives the reassembly
// handler directly with adversarial inputs: chunks must be ignored unless
// a fetch is outstanding, the first chunk must carry a verifying
// certificate, offsets must be contiguous, size claims sane, and a
// completed reassembly whose digest does not match the certificate must
// not restore anything.
func TestSnapshotChunkReassemblyRejectsHostileChunks(t *testing.T) {
	cfg := types.Generalized(1, 1)
	g := newSimGroup(t, cfg, 92, groupOpts{interval: 4})
	r, stores := g.reps[0], g.stores
	before := stores[0].AppliedOps()

	chunk := func(slot uint64, hash []byte, total, off uint64, data []byte) *msg.StateSnapshot {
		return &msg.StateSnapshot{
			Cert:   msg.CheckpointCert{CP: types.Checkpoint{Slot: slot, StateHash: hash}},
			Total:  total,
			Offset: off,
			Data:   data,
		}
	}

	r.mu.Lock()
	// No fetch outstanding: dropped outright.
	r.onStateSnapshotLocked(1, chunk(100, []byte("h"), 10, 0, []byte("xxxxx")))
	if r.chunkAsm != nil {
		r.mu.Unlock()
		t.Fatal("chunk buffered without an outstanding fetch")
	}
	// Pretend a fetch is outstanding from here on.
	r.fetchAt = r.applyPtr + 1
	// Unsigned certificate: no buffering.
	r.onStateSnapshotLocked(1, chunk(100, []byte("h"), 10, 0, []byte("xxxxx")))
	if r.chunkAsm != nil {
		r.mu.Unlock()
		t.Fatal("chunk buffered under an unverifiable certificate")
	}
	// Absurd size claims: rejected before any allocation.
	r.onStateSnapshotLocked(1, chunk(100, []byte("h"), maxSnapshotBytes+1, 0, []byte("x")))
	r.onStateSnapshotLocked(1, chunk(100, []byte("h"), 4, 3, []byte("xx"))) // overruns Total
	if r.chunkAsm != nil {
		r.mu.Unlock()
		t.Fatal("over-limit chunk buffered")
	}
	// Non-zero offset with no assembly in progress: dropped.
	r.onStateSnapshotLocked(1, chunk(100, []byte("h"), 10, 5, []byte("xxxxx")))
	if r.chunkAsm != nil {
		r.mu.Unlock()
		t.Fatal("mid-stream chunk started an assembly")
	}
	r.fetchAt = 0
	r.mu.Unlock()

	if stores[0].AppliedOps() != before {
		t.Fatal("hostile chunks changed application state")
	}
}
