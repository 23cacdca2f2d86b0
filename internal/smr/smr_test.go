package smr

import (
	"fmt"
	"testing"
	"time"

	"repro/internal/types"
)

// The functional tests below run under seeded random message delays: the
// interleaving is arbitrary, and the same on every run.
const testJitter = 2 * time.Millisecond

func TestSMRReplicatesCommands(t *testing.T) {
	cfg := types.Generalized(1, 1)
	g := newSimGroup(t, cfg, 1, groupOpts{jitter: testJitter})
	reps, stores := g.reps, g.stores

	const ops = 10
	for i := 0; i < ops; i++ {
		cmd := EncodeKV(KVCommand{
			Op: OpSet, Client: "c0", Seq: uint64(i),
			Key: fmt.Sprintf("k%d", i), Value: fmt.Sprintf("v%d", i),
		})
		for _, r := range reps {
			if err := submit(r, sessionID(i), 1, cmd); err != nil {
				t.Fatal(err)
			}
		}
	}
	g.run(10*time.Second, g.applied(ops), "all replicas to apply all commands")

	for i, st := range stores {
		for k := 0; k < ops; k++ {
			key := fmt.Sprintf("k%d", k)
			v, ok := st.Get(key)
			if !ok || v != fmt.Sprintf("v%d", k) {
				t.Fatalf("replica %d: %s=%q (present=%v)", i, key, v, ok)
			}
		}
	}
	// All replicas applied identical logs: same slot count, same contents.
	want := reps[0].AppliedCount()
	for i, r := range reps {
		if r.AppliedCount() != want {
			t.Fatalf("replica %d applied %d slots, replica 0 applied %d", i, r.AppliedCount(), want)
		}
		// Fault-free, every slot decided in view 1: no view change counted.
		if vc := g.viewChanges(types.ProcessID(i)); vc != 0 {
			t.Fatalf("replica %d counted %v view changes in a fault-free run", i, vc)
		}
	}
}

func TestSMRDeduplicatesResubmittedCommands(t *testing.T) {
	cfg := types.Generalized(1, 1)
	g := newSimGroup(t, cfg, 2, groupOpts{jitter: testJitter})
	reps, stores := g.reps, g.stores

	cmd := EncodeKV(KVCommand{Op: OpSet, Client: "c1", Seq: 7, Key: "x", Value: "1"})
	for i := 0; i < 5; i++ { // submit the same request repeatedly everywhere
		for _, r := range reps {
			if err := submit(r, "c1", 7, cmd); err != nil {
				t.Fatal(err)
			}
		}
	}
	g.run(10*time.Second, g.applied(1), "command application")
	g.net.Advance(100 * time.Millisecond) // let any duplicate slots drain
	for i, st := range stores {
		if st.AppliedOps() != 1 {
			t.Fatalf("replica %d applied %d ops, want exactly 1", i, st.AppliedOps())
		}
	}
}

func TestSMRDelete(t *testing.T) {
	cfg := types.Generalized(1, 1)
	g := newSimGroup(t, cfg, 3, groupOpts{jitter: testJitter})
	reps, stores := g.reps, g.stores

	set := EncodeKV(KVCommand{Op: OpSet, Client: "c", Seq: 1, Key: "k", Value: "v"})
	del := EncodeKV(KVCommand{Op: OpDel, Client: "c", Seq: 2, Key: "k"})
	for _, r := range reps {
		if err := submit(r, "c", 1, set); err != nil {
			t.Fatal(err)
		}
	}
	g.run(10*time.Second, g.applied(1), "set")
	for _, r := range reps {
		if err := submit(r, "c", 2, del); err != nil {
			t.Fatal(err)
		}
	}
	g.run(10*time.Second, g.applied(2), "del")
	for i, st := range stores {
		if _, ok := st.Get("k"); ok {
			t.Fatalf("replica %d: key survived delete", i)
		}
	}
}

func TestKVCodecRoundTrip(t *testing.T) {
	in := KVCommand{Op: OpSet, Client: "client-9", Seq: 42, Key: "key", Value: "value"}
	out, err := DecodeKV(EncodeKV(in))
	if err != nil {
		t.Fatal(err)
	}
	if out != in {
		t.Fatalf("round trip mismatch: %+v vs %+v", out, in)
	}
	if _, err := DecodeKV(Command("junk")); err == nil {
		t.Fatal("expected decode error for junk")
	}
}

func TestBatchCodecRoundTrip(t *testing.T) {
	cmds := []Command{Command("a"), Command("bb"), Command("ccc")}
	out, err := DecodeBatch(EncodeBatch(cmds))
	if err != nil {
		t.Fatal(err)
	}
	if len(out) != len(cmds) {
		t.Fatalf("len=%d", len(out))
	}
	for i := range cmds {
		if !out[i].Equal(cmds[i]) {
			t.Fatalf("batch element %d mismatch", i)
		}
	}
	if _, err := DecodeBatch(Command("garbage-not-a-batch-xxxxxxxx")); err == nil {
		t.Fatal("garbage decoded as batch")
	}
	if _, err := DecodeBatch(nil); err == nil {
		t.Fatal("empty value decoded as batch")
	}
}

func TestSMRBatchingAppliesAllCommandsInFewerSlots(t *testing.T) {
	cfg := types.Generalized(1, 1)
	g := newSimGroup(t, cfg, 21, groupOpts{jitter: testJitter, maxBatch: 16})
	reps, stores := g.reps, g.stores

	const ops = 32
	for i := 0; i < ops; i++ {
		cmd := EncodeKV(KVCommand{Op: OpSet, Client: "b", Seq: uint64(i),
			Key: fmt.Sprintf("bk%d", i), Value: "v"})
		if err := submit(reps[0], sessionID(i), 1, cmd); err != nil {
			t.Fatal(err)
		}
	}
	g.run(10*time.Second, g.applied(ops), "batched application")
	// Batching must compress the log: far fewer slots than commands.
	slots := reps[0].AppliedCount()
	if slots >= ops {
		t.Fatalf("batching ineffective: %d slots for %d commands", slots, ops)
	}
	for i, st := range stores {
		if st.AppliedOps() != ops {
			t.Fatalf("replica %d applied %d ops", i, st.AppliedOps())
		}
	}
}

func TestSMROverlappingBatchesStayIdempotent(t *testing.T) {
	// Submit the same commands through two replicas with batching: every
	// command must be applied exactly once even if it lands in two batches.
	cfg := types.Generalized(1, 1)
	g := newSimGroup(t, cfg, 22, groupOpts{jitter: testJitter, maxBatch: 8})
	reps, stores := g.reps, g.stores

	const ops = 8
	for i := 0; i < ops; i++ {
		cmd := EncodeKV(KVCommand{Op: OpSet, Client: "dup", Seq: uint64(i),
			Key: fmt.Sprintf("dk%d", i), Value: "v"})
		if err := submit(reps[0], sessionID(i), 1, cmd); err != nil {
			t.Fatal(err)
		}
		if err := submit(reps[2], sessionID(i), 1, cmd); err != nil {
			t.Fatal(err)
		}
	}
	g.run(10*time.Second, g.applied(ops), "idempotent application")
	g.net.Advance(100 * time.Millisecond)
	for i, st := range stores {
		if st.AppliedOps() != ops {
			t.Fatalf("replica %d applied %d ops, want exactly %d", i, st.AppliedOps(), ops)
		}
	}
}
