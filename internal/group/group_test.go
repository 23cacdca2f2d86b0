package group

import (
	"fmt"
	"os"
	"path/filepath"
	"strings"
	"testing"
	"time"

	"repro/internal/msg"
	"repro/internal/sigcrypto"
	"repro/internal/smr"
	"repro/internal/storage"
	"repro/internal/transport"
	"repro/internal/types"
)

func TestRotationAndNamespace(t *testing.T) {
	if Rotation(0, 4) != 0 || Rotation(1, 4) != 1 || Rotation(5, 4) != 1 {
		t.Fatal("rotation is group mod n")
	}
	if Namespace(0) != "g0-" || Namespace(3) != "g3-" {
		t.Fatalf("namespaces = %q, %q", Namespace(0), Namespace(3))
	}
	// Logical/physical must be inverse bijections for every group.
	for g := 0; g < 4; g++ {
		rot := Rotation(g, 4)
		for p := types.ProcessID(0); p < 4; p++ {
			if physical(logical(p, rot, 4), rot, 4) != p {
				t.Fatalf("group %d: identity rotation is not a bijection at %d", g, p)
			}
		}
	}
}

// TestRotatedSigningIdentity: the signing wrappers only rotate identities
// (the signing domain is the SMR layer's business). A signature carries the
// group's logical identifier, verifies when mapped back through the same
// rotation, and fails under another rotation — there the logical identifier
// names a different physical key.
func TestRotatedSigningIdentity(t *testing.T) {
	const n = 4
	scheme := sigcrypto.NewHMAC(n, 7)
	digest := []byte("domain-salted digest bytes")
	for rot := types.ProcessID(0); rot < n; rot++ {
		const phys = types.ProcessID(2)
		self := logical(phys, rot, n)
		sig := (&groupSigner{inner: scheme.Signer(phys), self: self}).Sign(digest)
		if sig.Signer != self {
			t.Fatalf("rotation %d: signature attributed to %d, want logical %d", rot, sig.Signer, self)
		}
		if !(&groupVerifier{inner: scheme.Verifier(), rot: rot, n: n}).Verify(digest, sig) {
			t.Fatalf("rotation %d: own signature rejected", rot)
		}
		if (&groupVerifier{inner: scheme.Verifier(), rot: (rot + 1) % n, n: n}).Verify(digest, sig) {
			t.Fatalf("rotation %d: signature verified under another rotation", rot)
		}
	}
	bad := sigcrypto.Signature{Signer: n, Bytes: []byte("x")}
	if (&groupVerifier{inner: scheme.Verifier(), rot: 1, n: n}).Verify(digest, bad) {
		t.Fatal("out-of-range signer accepted")
	}
}

// shardedProc is one OS process's worth of a deployment in a test: all
// groups of one physical replica over one transport and one data directory.
type shardedProc struct {
	groups []*Group
	stores []*smr.KVStore
}

// bootProc boots every group of one process behind a GroupMux over tr — or,
// with raw set (one shard only), directly on tr with no mux in between.
func bootProc(t *testing.T, cfg types.Config, scheme sigcrypto.Scheme, shards int,
	self types.ProcessID, dir string, tr transport.Transport, raw bool) *shardedProc {
	t.Helper()
	proc := &shardedProc{}
	mux := transport.NewGroupMux(tr, shards)
	for g := 0; g < shards; g++ {
		gtr := mux.View(g)
		if raw {
			gtr = tr
		}
		store := smr.NewKVStore()
		grp, err := New(Config{
			Cluster:            cfg,
			Index:              g,
			Shards:             shards,
			Self:               self,
			Signer:             scheme.Signer(self),
			Verifier:           scheme.Verifier(),
			Transport:          gtr,
			App:                store,
			WindowSize:         4,
			CheckpointInterval: 4,
			DataDir:            dir,
			SyncMode:           storage.SyncGroup,
		})
		if err != nil {
			t.Fatal(err)
		}
		proc.groups = append(proc.groups, grp)
		proc.stores = append(proc.stores, store)
	}
	for _, grp := range proc.groups {
		if err := grp.Start(); err != nil {
			t.Fatal(err)
		}
	}
	return proc
}

// TestMultiGroupCrashRecovery is the sharded durability drill: a process
// hosting every group over ONE data directory is power-cut mid-deployment,
// the cluster keeps committing in all groups meanwhile, and the process
// recovers all of its groups from that single directory — catching up on
// what it missed, applying every command exactly once, and never
// contradicting its own pre-crash votes in any group.
func TestMultiGroupCrashRecovery(t *testing.T) {
	cfg := types.Generalized(1, 1) // n = 4
	const shards = 2
	scheme := sigcrypto.NewHMAC(cfg.N, 42)
	net := transport.NewMemNetwork(cfg.N, 0)
	defer func() { _ = net.Close() }()
	base := t.TempDir()
	dirs := make([]string, cfg.N)
	procs := make([]*shardedProc, cfg.N)
	for i := 0; i < cfg.N; i++ {
		dirs[i] = filepath.Join(base, fmt.Sprintf("proc-%d", i))
		procs[i] = bootProc(t, cfg, scheme, shards, types.ProcessID(i), dirs[i], net.Transport(types.ProcessID(i)), false)
	}
	alive := func() []int { return []int{0, 1, 2, 3} }

	applied := make([]uint64, shards) // commands decided per group so far
	write := func(g int, k, v string, via int) {
		t.Helper()
		// Writes are not awaited one by one, so each is its own session.
		err := procs[via].groups[g].Replica().HandleRequest(&msg.Request{
			Client: types.ClientID(fmt.Sprintf("w%d", applied[g])), Seq: 1, Group: uint64(g),
			Op: smr.EncodeKV(smr.KVCommand{Op: smr.OpSet, Key: k, Value: v}),
		}, nil)
		if err != nil {
			t.Fatal(err)
		}
		applied[g]++
	}
	waitApplied := func(who []int) {
		t.Helper()
		deadline := time.Now().Add(time.Minute)
		for {
			done := true
			for _, p := range who {
				for g := 0; g < shards; g++ {
					if procs[p].stores[g].AppliedOps() < applied[g] {
						done = false
					}
				}
			}
			if done {
				return
			}
			if time.Now().After(deadline) {
				for _, p := range who {
					for g := 0; g < shards; g++ {
						t.Logf("proc %d group %d: applied %d of %d", p, g, procs[p].stores[g].AppliedOps(), applied[g])
					}
				}
				t.Fatal("timeout waiting for replication")
			}
			time.Sleep(2 * time.Millisecond)
		}
	}

	// Phase 1: all alive, traffic in every group.
	for i := 0; i < 6; i++ {
		for g := 0; g < shards; g++ {
			write(g, fmt.Sprintf("g%d-pre-%d", g, i), fmt.Sprintf("v%d", i), i%cfg.N)
		}
	}
	waitApplied(alive())

	// One directory, two namespaces: both groups' WALs live side by side.
	entries, err := os.ReadDir(dirs[3])
	if err != nil {
		t.Fatal(err)
	}
	found := map[string]bool{}
	for _, e := range entries {
		for g := 0; g < shards; g++ {
			if strings.HasPrefix(e.Name(), fmt.Sprintf("g%d-", g)) {
				found[fmt.Sprintf("g%d-", g)] = true
			}
		}
	}
	for g := 0; g < shards; g++ {
		if !found[fmt.Sprintf("g%d-", g)] {
			t.Fatalf("no namespaced files for group %d in %s", g, dirs[3])
		}
	}

	// Phase 2: power-cut process 3 — every group at once, mid-deployment.
	// Group leaders are processes 1 and 2, so both groups keep a live
	// leader and a full n-t quorum among the survivors.
	for _, grp := range procs[3].groups {
		grp.Abort()
	}
	_ = net.Restart(3)
	for i := 0; i < 6; i++ {
		for g := 0; g < shards; g++ {
			write(g, fmt.Sprintf("g%d-down-%d", g, i), fmt.Sprintf("v%d", i), i%3)
		}
	}
	waitApplied([]int{0, 1, 2})

	// Phase 3: recover process 3 from its single data directory.
	procs[3] = bootProc(t, cfg, scheme, shards, 3, dirs[3], net.Restart(3), false)
	for g := 0; g < shards; g++ {
		write(g, fmt.Sprintf("g%d-post", g), "back", 3)
	}
	waitApplied(alive())

	// Every process, every group: exactly-once (no recovered command was
	// re-applied) and byte-identical state.
	for p := 0; p < cfg.N; p++ {
		for g := 0; g < shards; g++ {
			if n := procs[p].stores[g].AppliedOps(); n != applied[g] {
				t.Fatalf("proc %d group %d applied %d commands, want exactly %d", p, g, n, applied[g])
			}
			if v, ok := procs[p].stores[g].Get(fmt.Sprintf("g%d-down-3", g)); !ok || v != "v3" {
				t.Fatalf("proc %d group %d missed a command decided while proc 3 was down: %q %v", p, g, v, ok)
			}
			if v, ok := procs[p].stores[g].Get(fmt.Sprintf("g%d-post", g)); !ok || v != "back" {
				t.Fatalf("proc %d group %d: post-recovery write lost: %q %v", p, g, v, ok)
			}
		}
	}
	for p := 0; p < cfg.N; p++ {
		for _, grp := range procs[p].groups {
			_ = grp.Close()
		}
	}
}

// TestRawTransportAndMuxViewInteroperate: a frame is bit-identical whether
// its replica sits behind a mux view or directly on the transport, so a
// one-group cluster mixing both compositions decides and applies together.
func TestRawTransportAndMuxViewInteroperate(t *testing.T) {
	cfg := types.Generalized(1, 1) // n = 4
	scheme := sigcrypto.NewHMAC(cfg.N, 43)
	net := transport.NewMemNetwork(cfg.N, 0)
	defer func() { _ = net.Close() }()
	procs := make([]*shardedProc, cfg.N)
	for i := range procs {
		p := types.ProcessID(i)
		procs[i] = bootProc(t, cfg, scheme, 1, p, "", net.Transport(p), i%2 == 1)
		defer procs[i].groups[0].Close()
	}
	const ops = 6
	for i := 0; i < ops; i++ {
		err := procs[i%cfg.N].groups[0].Replica().HandleRequest(&msg.Request{
			Client: types.ClientID(fmt.Sprintf("c%d", i)), Seq: 1,
			Op: smr.EncodeKV(smr.KVCommand{Op: smr.OpSet, Key: fmt.Sprintf("k%d", i), Value: "v"}),
		}, nil)
		if err != nil {
			t.Fatal(err)
		}
	}
	deadline := time.Now().Add(30 * time.Second)
	for _, proc := range procs {
		for proc.stores[0].AppliedOps() < ops {
			if time.Now().After(deadline) {
				t.Fatal("timeout: mixed raw/mux cluster did not apply the workload")
			}
			time.Sleep(2 * time.Millisecond)
		}
	}
}
