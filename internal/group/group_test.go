package group

import (
	"fmt"
	"os"
	"path/filepath"
	"slices"
	"strings"
	"sync"
	"testing"
	"time"

	"repro/internal/msg"
	"repro/internal/obs"
	"repro/internal/quorum"
	"repro/internal/sigcrypto"
	"repro/internal/smr"
	"repro/internal/storage"
	"repro/internal/transport"
	"repro/internal/types"
)

func TestNamespace(t *testing.T) {
	if Namespace(0) != "g0-" || Namespace(3) != "g3-" {
		t.Fatalf("namespaces = %q, %q", Namespace(0), Namespace(3))
	}
}

// TestNewRejectsInvalidCluster: a cluster that was never validated (n = 0
// here) is a construction error, not a divide by zero in the leader-shift
// arithmetic.
func TestNewRejectsInvalidCluster(t *testing.T) {
	if _, err := New(Config{Shards: 1}); err == nil {
		t.Fatal("zero-value cluster accepted")
	}
	net := transport.NewMemNetwork(4, 0)
	defer func() { _ = net.Close() }()
	_, err := New(Config{
		Cluster: types.Config{N: 3, F: 1, T: 1}, Index: 1, Shards: 2,
		Transport: net.Transport(0), App: smr.NewKVStore(),
	})
	if err == nil {
		t.Fatal("cluster below the resilience bound accepted")
	}
}

// TestDefaultBaseTimeout: a group built with a zero BaseTimeout — as every
// caller that sets none builds it — gets the one replica default, 500ms,
// which before any decide is the suspicion delay itself.
func TestDefaultBaseTimeout(t *testing.T) {
	net := transport.NewMemNetwork(4, 0)
	defer func() { _ = net.Close() }()
	scheme := sigcrypto.NewHMAC(4, 1)
	reg := obs.NewRegistry()
	g, err := New(Config{
		Cluster: types.Generalized(1, 1), Index: 0, Shards: 1,
		Signer: scheme.Signer(0), Verifier: scheme.Verifier(),
		Transport: net.Transport(0), App: smr.NewKVStore(), Metrics: reg,
	})
	if err != nil {
		t.Fatal(err)
	}
	defer func() { _ = g.Close() }()
	if got := reg.Snapshot().Sum("fastbft_regime_timeout_seconds", nil); got != 0.5 {
		t.Fatalf("suspicion delay %vs with a zero BaseTimeout, want the 0.5s default", got)
	}
}

// frameLog records every frame the tapped processes receive, with the
// sender their transport authenticated.
type frameLog struct {
	mu     sync.Mutex
	frames []loggedFrame
}

type loggedFrame struct {
	from    types.ProcessID
	payload []byte
}

type tappedTransport struct {
	transport.Transport
	log *frameLog
}

func (l *frameLog) tap(tr transport.Transport) transport.Transport {
	return &tappedTransport{Transport: tr, log: l}
}

func (t *tappedTransport) SetHandler(h transport.Handler) {
	t.Transport.SetHandler(func(from types.ProcessID, payload []byte) {
		t.log.mu.Lock()
		t.log.frames = append(t.log.frames, loggedFrame{from: from, payload: append([]byte(nil), payload...)})
		t.log.mu.Unlock()
		h(from, payload)
	})
}

// check walks the log and asserts, for every frame of every group, that the
// identifiers inside it are the processes themselves: a proposal comes from
// and is signed by the leader of its view under the group's schedule
// (process (v+g) mod n), an ack signature is the sender's own and verifies
// under the cluster verifier, and a commit certificate verifies under the
// cluster verifier. It returns the number of verified commit certificates
// and the proposers seen, per group and view.
func (l *frameLog) check(t *testing.T, cfg types.Config, ver sigcrypto.Verifier) (certs map[uint64]int, proposers map[uint64]map[types.View]types.ProcessID) {
	t.Helper()
	l.mu.Lock()
	defer l.mu.Unlock()
	th := quorum.New(cfg)
	certs = make(map[uint64]int)
	proposers = make(map[uint64]map[types.View]types.ProcessID)
	for _, fr := range l.frames {
		g, s, m, ok := smr.OpenEnvelope(fr.payload)
		if !ok {
			t.Fatalf("undecodable frame from %s", fr.from)
		}
		// The slot's signing domain over the cluster's own verifier:
		// nothing translates the signer in between.
		sv := smr.SlotVerifier(ver, g, s)
		switch m := m.(type) {
		case *msg.Propose:
			want := types.ProcessID((uint64(m.View) + g) % uint64(cfg.N))
			if fr.from != want || m.Tau.Signer != want {
				t.Fatalf("group %d slot %d %s: proposal from %s signed by %s, want leader %s", g, s, m.View, fr.from, m.Tau.Signer, want)
			}
			if !sv.Verify(msg.ProposeDigest(m.X, m.View), m.Tau) {
				t.Fatalf("group %d slot %d: proposal signature does not verify under the cluster verifier", g, s)
			}
			if proposers[g] == nil {
				proposers[g] = make(map[types.View]types.ProcessID)
			}
			proposers[g][m.View] = fr.from
		case *msg.AckSig:
			if m.Phi.Signer != fr.from || !sv.Verify(msg.AckDigest(m.X, m.View), m.Phi) {
				t.Fatalf("group %d slot %d: ack signature by %s sent by %s does not verify as the sender's", g, s, m.Phi.Signer, fr.from)
			}
		case *msg.Commit:
			if !m.CC.Verify(sv, th) {
				t.Fatalf("group %d slot %d: commit certificate from %s does not verify under the cluster verifier", g, s, fr.from)
			}
			certs[g]++
		}
	}
	return certs, proposers
}

// TestOneIdentifierSpaceAcrossGroups: four groups over four processes. The
// groups differ in who leads, never in who a process is — every reply names
// the process that produced it, every proposal is the (1+g) mod n leader's
// own, and every signature and commit certificate on the wire verifies under
// the cluster's plain verifier.
func TestOneIdentifierSpaceAcrossGroups(t *testing.T) {
	cfg := types.Generalized(1, 1) // n = 4
	const shards = 4
	scheme := sigcrypto.NewHMAC(cfg.N, 44)
	net := transport.NewMemNetwork(cfg.N, 0)
	defer func() { _ = net.Close() }()
	var log frameLog
	procs := make([]*shardedProc, cfg.N)
	for i := range procs {
		p := types.ProcessID(i)
		procs[i] = bootProc(t, cfg, scheme, shards, p, "", log.tap(net.Transport(p)), false)
	}
	var mu sync.Mutex
	replied := make([]int, shards)
	var misattributed []string
	for g := 0; g < shards; g++ {
		req := &msg.Request{
			Client: types.ClientID(fmt.Sprintf("c%d", g)), Seq: 1, Group: uint64(g),
			Op: smr.EncodeKV(smr.KVCommand{Op: smr.OpSet, Key: fmt.Sprintf("k%d", g), Value: "v"}),
		}
		for i, proc := range procs {
			p, g := types.ProcessID(i), g
			err := proc.groups[g].Replica().HandleRequest(req, func(rep *msg.Reply) {
				mu.Lock()
				defer mu.Unlock()
				replied[g]++
				if rep.Replica != p || rep.Group != uint64(g) {
					misattributed = append(misattributed,
						fmt.Sprintf("process %s group %d replied as replica %s group %d", p, g, rep.Replica, rep.Group))
				}
			})
			if err != nil {
				t.Fatal(err)
			}
		}
	}
	deadline := time.Now().Add(30 * time.Second)
	for {
		mu.Lock()
		done := true
		for _, r := range replied {
			done = done && r == cfg.N
		}
		mu.Unlock()
		if done {
			break
		}
		if time.Now().After(deadline) {
			t.Fatalf("timeout: replies per group %v, want %d each", replied, cfg.N)
		}
		time.Sleep(2 * time.Millisecond)
	}
	for _, proc := range procs {
		for _, grp := range proc.groups {
			_ = grp.Close()
		}
	}
	if len(misattributed) > 0 {
		t.Fatal(strings.Join(misattributed, "; "))
	}
	certs, proposers := log.check(t, cfg, scheme.Verifier())
	for g := uint64(0); g < shards; g++ {
		if want := types.ProcessID((1 + g) % uint64(cfg.N)); proposers[g][1] != want {
			t.Fatalf("group %d: view-1 proposer %s, want %s", g, proposers[g][1], want)
		}
		if certs[g] == 0 {
			t.Fatalf("group %d: no commit certificate crossed the wire", g)
		}
	}
}

// TestShiftedGroupViewChange: group 1's view-1 leader, process 2, never
// comes up. The group must time it out and decide under process 3, the
// leader of view 2 — (2+g) mod n, not the paper's process 2 — which
// exercises the shifted schedule through window fill, vote routing and
// grafting. Group 0, led by process 1, is undisturbed.
func TestShiftedGroupViewChange(t *testing.T) {
	cfg := types.Generalized(1, 1) // n = 4
	const shards, silent = 2, types.ProcessID(2)
	scheme := sigcrypto.NewHMAC(cfg.N, 45)
	net := transport.NewMemNetwork(cfg.N, 0)
	defer func() { _ = net.Close() }()
	var log frameLog
	procs := make(map[types.ProcessID]*shardedProc)
	for i := 0; i < cfg.N; i++ {
		if p := types.ProcessID(i); p != silent {
			procs[p] = bootProc(t, cfg, scheme, shards, p, "", log.tap(net.Transport(p)), false)
		}
	}
	for g := 0; g < shards; g++ {
		req := &msg.Request{
			Client: types.ClientID(fmt.Sprintf("c%d", g)), Seq: 1, Group: uint64(g),
			Op: smr.EncodeKV(smr.KVCommand{Op: smr.OpSet, Key: fmt.Sprintf("k%d", g), Value: "v"}),
		}
		for _, proc := range procs { // a client submits to every replica
			if err := proc.groups[g].Replica().HandleRequest(req, nil); err != nil {
				t.Fatal(err)
			}
		}
	}
	deadline := time.Now().Add(30 * time.Second)
	for p, proc := range procs {
		for g := 0; g < shards; g++ {
			for proc.stores[g].AppliedOps() < 1 {
				if time.Now().After(deadline) {
					t.Fatalf("timeout: process %s group %d applied nothing", p, g)
				}
				time.Sleep(2 * time.Millisecond)
			}
		}
	}
	// View 2 unless a scheduling hiccup timed that out too; whichever view
	// decided, its proposer is the shifted schedule's leader (log.check).
	var decidedIn types.View
	for p, proc := range procs {
		d, ok := proc.groups[1].Replica().Decided(0)
		if !ok || d.View < 2 {
			t.Fatalf("process %s group 1: slot 0 decided %v in %s, want a view past the silent leader's", p, ok, d.View)
		}
		decidedIn = d.View
		for _, grp := range proc.groups {
			_ = grp.Close()
		}
	}
	_, proposers := log.check(t, cfg, scheme.Verifier())
	if got := proposers[1][2]; got != 3 {
		t.Fatalf("group 1 view 2 led by %s, want process 3", got)
	}
	if _, ok := proposers[1][decidedIn]; !ok {
		t.Fatalf("group 1 decided in %s without a proposal in it", decidedIn)
	}
	if _, ok := proposers[1][1]; ok {
		t.Fatal("the silent leader's view produced a proposal")
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
	checkpointed := 0
	for _, grp := range procs[3].groups {
		if _, ok := grp.Replica().StableCheckpoint(); ok {
			checkpointed++
		}
	}
	for p := 0; p < cfg.N; p++ {
		for _, grp := range procs[p].groups {
			_ = grp.Close()
		}
	}
	// The recovered process's directory holds one file per group, its WAL
	// (the stable checkpoint is the WAL's first record): no snapshot files,
	// no checkpoint temporaries.
	if checkpointed != shards {
		t.Fatalf("%d of %d groups of the recovered process hold a stable checkpoint; the file listing needs every group to have installed one", checkpointed, shards)
	}
	entries, err = os.ReadDir(dirs[3])
	if err != nil {
		t.Fatal(err)
	}
	var names []string
	for _, e := range entries {
		names = append(names, e.Name())
	}
	if want := []string{"g0-wal.log", "g1-wal.log"}; !slices.Equal(names, want) {
		t.Fatalf("data dir holds %v, want exactly %v", names, want)
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
