// Command fastbft-cluster runs a real multi-replica consensus cluster over
// authenticated TCP on this machine: n replicas decide a value, then a
// replicated key-value store executes a write workload, reporting
// throughput and latency.
//
// Usage:
//
//	fastbft-cluster -f 1 -t 1            # n = 4 replicas
//	fastbft-cluster -f 2 -t 1 -ops 500   # n = 7 replicas, 500 KV writes
//	fastbft-cluster -f 1 -t 1 -procs     # one OS process per replica,
//	                                     # served to a networked TCP client,
//	                                     # with a replica crash mid-workload
//	fastbft-cluster -f 1 -t 1 -procs -byz garbage
//	                                     # one replica process runs the
//	                                     # garbage adversary (docs/THREAT_MODEL.md)
//	fastbft-cluster -f 1 -t 1 -procs -byz equivocate
//	                                     # the view-1 leader process equivocates
//	                                     # on one slot, then goes silent
//	fastbft-cluster -f 1 -t 1 -procs -leaderkill
//	                                     # kill -9 the view-1 leader process
//	                                     # mid-workload and bound the recovery
//	fastbft-cluster -f 1 -t 1 -procs -shards 2
//	                                     # every replica process hosts two
//	                                     # consensus groups over one transport
//	                                     # and one data dir; the client routes
//	                                     # each key to its group's leader
//
// With -procs, the KV phase spawns one child process per replica (this same
// binary, re-executed in replica mode). Each child binds a replica-to-replica
// listener and a client-facing listener, keeps a durable data directory
// (write-ahead log + checkpoint snapshots), the parent distributes the peer
// address table over the children's stdin, and then drives the workload as a
// real external client: one OS process executing commands against replicas in
// other OS processes over TCP, confirmed by f+1 matching replies per write.
// Mid-workload, one replica process is kill -9'd, later restarted from its
// data directory at its old addresses, and then a different replica is
// killed — leaving exactly n−f alive, so continued progress proves the
// recovered replica rejoined consensus.
package main

import (
	"bufio"
	"encoding/json"
	"flag"
	"fmt"
	"io"
	"net/http"
	"os"
	"os/exec"
	"path/filepath"
	"strconv"
	"strings"
	"time"

	fastbft "repro"
	"repro/internal/byz"
	"repro/internal/msg"
	"repro/internal/obs"
	"repro/internal/quorum"
	"repro/internal/sigcrypto"
	"repro/internal/smr"
	"repro/internal/transport"
	"repro/internal/types"
)

// byzKVBatch builds a well-formed single-command batch — a real client
// request an honest replica would happily execute — for adversaries whose
// equivocating branches must both be valid values.
func byzKVBatch(client string, seq uint64) fastbft.Value {
	op := smr.EncodeKV(smr.KVCommand{
		Op: smr.OpSet, Client: client, Seq: seq,
		Key: client + "-key", Value: client + "-value",
	})
	req := &msg.Request{Client: types.ClientID(client), Seq: seq, Op: op}
	return smr.EncodeBatch([]smr.Command{smr.Command(msg.Encode(req))})
}

// replicaEnv marks a process as a replica child of a -procs run. It is
// checked before anything else so the same binary (or test binary, via
// TestMain) serves both roles.
const replicaEnv = "FASTBFT_CLUSTER_REPLICA"

func main() {
	if os.Getenv(replicaEnv) == "1" {
		if err := replicaMain(os.Args[1:]); err != nil {
			fmt.Fprintln(os.Stderr, "fastbft-cluster replica:", err)
			os.Exit(1)
		}
		return
	}
	if err := run(os.Args[1:]); err != nil {
		fmt.Fprintln(os.Stderr, "fastbft-cluster:", err)
		os.Exit(1)
	}
}

func run(args []string) error {
	fs := flag.NewFlagSet("fastbft-cluster", flag.ContinueOnError)
	f := fs.Int("f", 1, "Byzantine faults tolerated")
	t := fs.Int("t", 1, "fast-path fault threshold (1..f)")
	ops := fs.Int("ops", 200, "KV write operations for the throughput phase")
	procs := fs.Bool("procs", false, "run the KV phase as one OS process per replica, serving a networked client")
	timeout := fs.Duration("timeout", 2*time.Minute, "hard deadline for the multi-process phase (-procs)")
	seed := fs.Int64("seed", 1, "deterministic key seed shared with the replica processes (-procs)")
	byzName := fs.String("byz", "", "corrupt one replica process with the named adversary (requires -procs); see docs/THREAT_MODEL.md. Known: garbage, equivocate")
	leaderKill := fs.Bool("leaderkill", false, "kill -9 the view-1 leader process mid-workload and bound the recovery (requires -procs)")
	shards := fs.Int("shards", 1, "consensus groups per replica process; keys are hash-partitioned and group leaders spread across processes")
	if err := fs.Parse(args); err != nil {
		return err
	}
	if *shards < 1 {
		return fmt.Errorf("-shards %d: need at least one consensus group", *shards)
	}
	if *shards > 1 && (*byzName != "" || *leaderKill) {
		// The adversary driver and the leader-kill recovery bound both
		// reason about the single view-1 leader; a sharded deployment has
		// one leader per group.
		return fmt.Errorf("-shards > 1 cannot combine with -byz or -leaderkill")
	}
	if *byzName != "" {
		if !*procs {
			return fmt.Errorf("-byz requires -procs (the adversary is its own OS process)")
		}
		if *byzName != "garbage" && *byzName != "equivocate" {
			return fmt.Errorf("unknown adversary %q (known: garbage, equivocate)", *byzName)
		}
	}
	if *leaderKill {
		if !*procs {
			return fmt.Errorf("-leaderkill requires -procs (the leader must be its own OS process to kill)")
		}
		if *byzName != "" {
			return fmt.Errorf("-leaderkill and -byz are mutually exclusive (both spend the fault budget on process %d)", byzProcID)
		}
	}
	cfg := fastbft.GeneralizedConfig(*f, *t)
	fmt.Printf("cluster: %s (paper minimum for f=%d, t=%d)\n", cfg, *f, *t)
	if *byzName != "" {
		// With a corrupted replica the single-shot warm-up makes no sense
		// (its process slot would have to play honest); go straight to the
		// adversarial multi-process phase.
		fmt.Printf("byzantine: replica process %d runs the %q adversary\n", byzProcID, *byzName)
		return runMultiProcess(cfg, *f, *t, *ops, *seed, *timeout, *byzName, false, 1)
	}
	if *leaderKill {
		// The drill's whole point is losing the leader; skip the warm-up
		// consensus round so the workload starts against a full cluster.
		fmt.Printf("leaderkill: replica process %d (the view-1 leader) will be kill -9'd mid-workload\n", byzProcID)
		return runMultiProcess(cfg, *f, *t, *ops, *seed, *timeout, "", true, 1)
	}

	// Phase 1: single-shot consensus over TCP.
	keys, err := fastbft.GenerateKeys(cfg.N)
	if err != nil {
		return err
	}
	nodes := make([]*fastbft.Node, cfg.N)
	addrs := make([]string, cfg.N)
	decided := make(chan fastbft.Decision, cfg.N)
	for i := 0; i < cfg.N; i++ {
		n, err := fastbft.NewNode(fastbft.NodeConfig{
			Cluster:    cfg,
			Self:       fastbft.ProcessID(i),
			Keys:       keys,
			ListenAddr: "127.0.0.1:0",
			Input:      fastbft.Value(fmt.Sprintf("proposal-from-p%d", i+1)),
			OnDecide:   func(d fastbft.Decision) { decided <- d },
		})
		if err != nil {
			return err
		}
		nodes[i] = n
		addrs[i] = n.Addr()
	}
	start := time.Now()
	for _, n := range nodes {
		if err := n.SetPeers(addrs); err != nil {
			return err
		}
		if err := n.Start(); err != nil {
			return err
		}
	}
	var first fastbft.Decision
	for i := 0; i < cfg.N; i++ {
		select {
		case d := <-decided:
			if i == 0 {
				first = d
			}
			if !d.Value.Equal(first.Value) {
				return fmt.Errorf("disagreement: %s vs %s", d.Value, first.Value)
			}
		case <-time.After(30 * time.Second):
			return fmt.Errorf("timeout: %d of %d replicas decided", i, cfg.N)
		}
	}
	fmt.Printf("consensus: all %d replicas decided %s in view %s via the %s path (%.1fms wall clock)\n",
		cfg.N, first.Value, first.View, first.Path, float64(time.Since(start).Microseconds())/1000)
	for _, n := range nodes {
		_ = n.Close()
	}

	if *procs {
		return runMultiProcess(cfg, *f, *t, *ops, *seed, *timeout, "", false, *shards)
	}
	return runSingleProcess(cfg, *ops, *shards)
}

// runSingleProcess is the in-process KV phase: every replica in this
// process, driven by one closed-loop client session over in-process
// handles.
func runSingleProcess(cfg fastbft.Config, ops, shards int) error {
	keys, err := fastbft.GenerateKeys(cfg.N)
	if err != nil {
		return err
	}
	reps := make([]*fastbft.KVReplica, cfg.N)
	addrs := make([]string, cfg.N)
	for i := 0; i < cfg.N; i++ {
		r, err := fastbft.NewKVReplica(fastbft.KVReplicaConfig{
			Cluster:    cfg,
			Self:       fastbft.ProcessID(i),
			Keys:       keys,
			ListenAddr: "127.0.0.1:0",
			Shards:     shards,
		})
		if err != nil {
			return err
		}
		reps[i] = r
		addrs[i] = r.Addr()
	}
	defer func() {
		for _, r := range reps {
			_ = r.Close()
		}
	}()
	for _, r := range reps {
		if err := r.SetPeers(addrs); err != nil {
			return err
		}
		if err := r.Start(); err != nil {
			return err
		}
	}
	cl, err := fastbft.NewKVClient("cluster-client", 0, reps...)
	if err != nil {
		return err
	}
	defer func() { _ = cl.Close() }()
	// Name every replica: the stuck one is rarely the first.
	progress := func() string {
		per := make([]string, len(reps))
		for p, r := range reps {
			regime := r.Metrics().Snapshot().Sum("fastbft_regime_timeouts_total", nil)
			per[p] = fmt.Sprintf("replica %d applied %d (%.0f regime timeouts)", p, r.AppliedOps(), regime)
		}
		return strings.Join(per, ", ")
	}
	deadline := time.Now().Add(2 * time.Minute)
	// A write that never confirms is retransmitted forever; closing the
	// session at the deadline fails it instead.
	watchdog := time.AfterFunc(time.Until(deadline), func() { _ = cl.Close() })
	defer watchdog.Stop()
	start := time.Now()
	for i := 0; i < ops; i++ {
		key, val := fmt.Sprintf("key-%d", i), fmt.Sprintf("value-%d", i)
		if res, err := cl.Set(key, val); err != nil || res != val {
			return fmt.Errorf("kv write %d of %d confirmed %q (%v): %s", i, ops, res, err, progress())
		}
	}
	// A write confirms on f+1 replies; every replica — including one left
	// out of the fast quorums — must still catch up on every write.
	for _, r := range reps {
		for r.AppliedOps() < uint64(ops) {
			if time.Now().After(deadline) {
				return fmt.Errorf("kv timeout: not every replica applied all %d ops: %s", ops, progress())
			}
			time.Sleep(time.Millisecond)
		}
	}
	elapsed := time.Since(start)
	fmt.Printf("kv store: %d replicated writes on %d replicas, each applied by every replica, in %.2fs (%.0f ops/s)\n",
		ops, cfg.N, elapsed.Seconds(), float64(ops)/elapsed.Seconds())
	return nil
}

// child is one spawned replica process and the pipes the parent drives it
// through.
type child struct {
	cmd   *exec.Cmd
	stdin io.WriteCloser
	out   *bufio.Scanner
}

// drillCkptInterval is the checkpoint interval of the multi-process
// cluster, far below the replica default so that a drill of a few dozen ops
// crosses several checkpoints: the restarted replica catches up on what it
// missed while dead through a stable checkpoint, and the children's WALs are
// truncated.
const drillCkptInterval = 8

// byzProcID is the process the -byz adversary corrupts: the leader of view 1
// of every log slot, so its attacks land on the fast path rather than on
// slots it could never propose in.
const byzProcID = 1

// byzGarbageSlots is how many log slots the "garbage" adversary drives to a
// malformed decision. The parent requires exactly this many on the
// fastbft_malformed_batches_total series of every correct replica process.
const byzGarbageSlots = 2

// gateWait bounds how long the parent polls a replica process's metrics
// endpoint for the drill's gates: decisions keep landing for a moment after
// the client's last confirmation.
const gateWait = 15 * time.Second

// leaderKillRecoveryBound caps how long the cluster may take to confirm the
// first write after the view-1 leader is kill -9'd. With the windowed view
// change and the 150ms base timeout the drill runs with, recovery is one
// regime suspicion plus a view change — hundreds of milliseconds; the bound
// leaves generous slack for loaded CI machines while still catching a
// regression to per-slot 500ms stalls compounding across the window.
const leaderKillRecoveryBound = 15 * time.Second

// runMultiProcess is the networked KV phase: one OS process per replica
// (each durable, with its own data directory), the parent process acting
// as a real external client over TCP. The crash drill: a third of the way
// in, one replica process is killed outright (kill -9 — no flush, no
// goodbye); at two thirds it is restarted from its data directory at its
// old addresses, and a *different* replica is killed. From then on only
// n−f replicas are alive, so every further confirmed write proves the
// recovered replica rejoined consensus for real — progress is impossible
// without it.
// With byzName non-empty there is no crash drill — the fault budget is spent
// on replica byzProcID, which runs the named adversary instead of an honest
// replica. The workload then proves liveness under active Byzantine behavior
// (every write still confirmed by f+1 correct replicas), and the parent
// requires the adversary's footprint (the malformed-batch counter) to be
// exactly what the attack dictates — evidence the malformed decisions were
// counted, logged, and skipped rather than silently lost — plus at least one
// regime-timer suspicion, evidence the workload really rode the windowed
// view change.
// With leaderKill set the drill instead kill -9's the view-1 leader process
// (byzProcID — the leader of view 1 of every slot) a third of the way in,
// never restarts it, times how long the next write takes to confirm, fails
// if recovery exceeds leaderKillRecoveryBound, and requires a regime
// suspicion on every survivor.
// Every honest child binds an HTTP introspection endpoint, the parent's
// only view of its counters: halfway through the workload the parent
// scrapes each live child's JSON snapshot (asserting the staged-latency
// histograms, fsync/coalescing instruments, per-kind message counters, and
// view-change counters are really being populated), and at the end it polls
// each live child's snapshot for the drill's gates (see awaitGates).
func runMultiProcess(cfg fastbft.Config, f, t, ops int, seed int64, timeout time.Duration, byzName string, leaderKill bool, shards int) error {
	exe, err := os.Executable()
	if err != nil {
		return err
	}
	dataRoot, err := os.MkdirTemp("", "fastbft-cluster-data-")
	if err != nil {
		return err
	}
	defer func() { _ = os.RemoveAll(dataRoot) }()
	deadline := time.Now().Add(timeout)
	children := make([]*child, cfg.N)
	killAll := func() {
		for _, c := range children {
			if c != nil && c.cmd.Process != nil {
				_ = c.cmd.Process.Kill()
			}
		}
	}
	defer func() {
		killAll()
		for _, c := range children {
			if c != nil {
				_ = c.cmd.Wait()
			}
		}
	}()
	// spawn launches the replica-child process i. addr/clientAddr pin the
	// listen addresses (a restarted replica must come back where its peers
	// expect it); empty strings let the OS pick.
	spawn := func(i int, addr, clientAddr string) (*child, error) {
		if addr == "" {
			addr, clientAddr = "127.0.0.1:0", "127.0.0.1:0"
		}
		cargs := []string{
			"-self", strconv.Itoa(i),
			"-f", strconv.Itoa(f),
			"-t", strconv.Itoa(t),
			"-seed", strconv.FormatInt(seed, 10),
			"-ckpt", strconv.Itoa(drillCkptInterval),
			"-addr", addr,
			"-clientaddr", clientAddr,
			"-datadir", filepath.Join(dataRoot, fmt.Sprintf("replica-%d", i)),
			"-shards", strconv.Itoa(shards),
		}
		if byzName != "" && i == byzProcID {
			cargs = append(cargs, "-byz", byzName)
		} else if byzName != "" || leaderKill {
			// A corrupted or killed view-1 leader leaves client commands to
			// the windowed view change: a short timer keeps the drill brisk
			// and makes failover latency about the mechanism, not the
			// default 500ms budget.
			cargs = append(cargs, "-basetimeout", "150ms")
		}
		cmd := exec.Command(exe, cargs...)
		cmd.Env = append(os.Environ(), replicaEnv+"=1")
		cmd.Stderr = os.Stderr
		stdin, err := cmd.StdinPipe()
		if err != nil {
			return nil, err
		}
		stdout, err := cmd.StdoutPipe()
		if err != nil {
			return nil, err
		}
		if err := cmd.Start(); err != nil {
			return nil, err
		}
		return &child{cmd: cmd, stdin: stdin, out: bufio.NewScanner(stdout)}, nil
	}
	for i := 0; i < cfg.N; i++ {
		c, err := spawn(i, "", "")
		if err != nil {
			return err
		}
		children[i] = c
	}
	// Watchdog: whatever goes wrong below — a child that never reports, a
	// client that never settles — killing the children unblocks every read
	// and bounds the phase by the -timeout flag. Armed only now, after the
	// spawn loop fully published the children slice it iterates.
	watchdog := time.AfterFunc(time.Until(deadline), killAll)
	defer watchdog.Stop()

	// Collect each child's bound addresses, distribute the peer table, wait
	// for every replica to come up. An honest child reports its metrics
	// endpoint as a third ADDRS field; the adversary child has no replica and
	// so no registry.
	peerAddrs := make([]string, cfg.N)
	clientAddrs := make([]string, cfg.N)
	metricsAddrs := make([]string, cfg.N)
	for i, c := range children {
		fields, err := c.expect("ADDRS", 2)
		if err != nil {
			return fmt.Errorf("replica process %d: %w", i, err)
		}
		peerAddrs[i], clientAddrs[i] = fields[0], fields[1]
		if len(fields) > 2 {
			metricsAddrs[i] = fields[2]
		}
	}
	peerLine := "PEERS " + strings.Join(peerAddrs, " ") + "\n"
	ready := func(i int) error {
		if _, err := io.WriteString(children[i].stdin, peerLine); err != nil {
			return fmt.Errorf("replica process %d: %w", i, err)
		}
		if _, err := children[i].expect("READY", 0); err != nil {
			return fmt.Errorf("replica process %d: %w", i, err)
		}
		return nil
	}
	for i := range children {
		if err := ready(i); err != nil {
			return err
		}
	}
	fmt.Printf("spawned %d replica processes x %d consensus groups (data dirs under %s), client listeners at %s\n",
		cfg.N, shards, dataRoot, strings.Join(clientAddrs, " "))

	// The parent is now nothing but a client: it holds no replica handles,
	// only the address book and the cluster's public identities.
	keys := fastbft.GenerateTestKeys(cfg.N, seed)
	cl, err := fastbft.NewShardedKVNetworkClient("cluster-client", 500*time.Millisecond, cfg, keys, clientAddrs, shards)
	if err != nil {
		return err
	}
	defer func() { _ = cl.Close() }()

	// Both drill victims avoid process byzProcID, the view-1 leader of an
	// unsharded run (t=1 keeps the fast path available with one fault). In a
	// sharded run group leaders spread across processes, so a victim may
	// lead one of the groups — that group's writes then ride the windowed
	// view change, which only sharpens the drill.
	crash1 := cfg.N - 1
	crash2 := cfg.N - 2
	killAt := ops / 3
	restartAt := 2 * ops / 3
	leaderKillAt := -1
	if byzName != "" {
		// No crash drill: the fault budget is spent on the adversary.
		killAt, restartAt = -1, -1
	}
	if leaderKill {
		// No restart-and-shift drill either: the one fault is the leader.
		killAt, restartAt = -1, -1
		leaderKillAt = ops / 3
	}
	var leaderKillRecovery time.Duration
	start := time.Now()
	for i := 0; i < ops; i++ {
		switch i {
		case killAt:
			if err := children[crash1].cmd.Process.Kill(); err != nil {
				return fmt.Errorf("killing replica process %d: %w", crash1, err)
			}
			_ = children[crash1].cmd.Wait()
			fmt.Printf("crash: killed replica process %d after %d writes\n", crash1, i)
		case restartAt:
			// The replica comes back from its data directory, at the same
			// addresses its peers still dial.
			c, err := spawn(crash1, peerAddrs[crash1], clientAddrs[crash1])
			if err != nil {
				return fmt.Errorf("restarting replica process %d: %w", crash1, err)
			}
			children[crash1] = c
			fields, err := c.expect("ADDRS", 2)
			if err != nil {
				return fmt.Errorf("restarted replica %d: %w", crash1, err)
			}
			if fields[0] != peerAddrs[crash1] || fields[1] != clientAddrs[crash1] {
				return fmt.Errorf("restarted replica %d bound %v, want its old addresses", crash1, fields)
			}
			// The peer/client addresses are pinned; the metrics endpoint is
			// ephemeral and rebinds wherever the OS puts it.
			if len(fields) > 2 {
				metricsAddrs[crash1] = fields[2]
			}
			if err := ready(crash1); err != nil {
				return err
			}
			fmt.Printf("recovery: restarted replica process %d from its data dir after %d writes\n", crash1, i)
			// With the recovered replica back, lose a different one: from
			// here on progress requires the restarted replica to vote.
			if err := children[crash2].cmd.Process.Kill(); err != nil {
				return fmt.Errorf("killing replica process %d: %w", crash2, err)
			}
			_ = children[crash2].cmd.Wait()
			fmt.Printf("crash: killed replica process %d — further progress needs the recovered replica\n", crash2)
		}
		if i == ops/2 {
			// Halfway in, scrape every live replica's introspection endpoint
			// and require the instruments to be visibly working: in the
			// default drill crash1 is dead between killAt and restartAt; in
			// the adversarial/leader-kill drills process byzProcID either has
			// no endpoint or has been killed.
			skip := crash1
			if byzName != "" || leaderKill {
				skip = byzProcID
			}
			scraped := 0
			for p, maddr := range metricsAddrs {
				if p == skip || maddr == "" {
					continue
				}
				if err := scrapeMidWorkload(maddr, p, shards); err != nil {
					return fmt.Errorf("mid-workload metrics scrape: %w", err)
				}
				scraped++
			}
			fmt.Printf("metrics: scraped %d live replica endpoints after %d writes; stage-latency histograms through %q, fsync+coalescing instruments, and per-kind message counters all populated\n",
				scraped, i, "replied")
		}
		var leaderKilledAt time.Time
		if i == leaderKillAt {
			if err := children[byzProcID].cmd.Process.Kill(); err != nil {
				return fmt.Errorf("killing leader process %d: %w", byzProcID, err)
			}
			_ = children[byzProcID].cmd.Wait()
			leaderKilledAt = time.Now()
			fmt.Printf("leaderkill: kill -9'd the view-1 leader (replica process %d) after %d writes\n", byzProcID, i)
		}
		key, val := fmt.Sprintf("key-%d", i), fmt.Sprintf("value-%d", i)
		res, err := cl.Set(key, val)
		if err != nil {
			return fmt.Errorf("networked write %d: %w", i, err)
		}
		if res != val {
			return fmt.Errorf("networked write %d: confirmed %q, want %q", i, res, val)
		}
		if i == leaderKillAt {
			leaderKillRecovery = time.Since(leaderKilledAt)
			fmt.Printf("leaderkill: first write after the kill confirmed in %.0fms\n",
				float64(leaderKillRecovery.Microseconds())/1000)
			if leaderKillRecovery > leaderKillRecoveryBound {
				return fmt.Errorf("leader-kill recovery took %s, want <= %s", leaderKillRecovery, leaderKillRecoveryBound)
			}
		}
		if time.Now().After(deadline) {
			return fmt.Errorf("multi-process phase exceeded -timeout %s", timeout)
		}
	}
	elapsed := time.Since(start)
	switch {
	case byzName != "":
		fmt.Printf("networked kv: %d writes from an external client process, each confirmed by f+1 correct replicas over TCP, with replica process %d running the %q adversary throughout (%.2fs, %.0f ops/s)\n",
			ops, byzProcID, byzName, elapsed.Seconds(), float64(ops)/elapsed.Seconds())
		// Every correct replica must have decided, counted, and skipped
		// exactly the malformed slots the adversary drove (the equivocator's
		// branches are well-formed batches, so its count is zero), and
		// every one must have suspected the silent leader at least once —
		// the workload's liveness came through the windowed view change.
		wantMalformed := 0
		if byzName == "garbage" {
			wantMalformed = byzGarbageSlots
		}
		return awaitGates(metricsAddrs, byzProcID, wantMalformed, true)
	case leaderKill:
		fmt.Printf("networked kv: %d writes from an external client process, each confirmed by f+1 replicas over TCP, with the view-1 leader kill -9'd a third of the way in and never restarted (%.2fs, %.0f ops/s, %.0fms leader failover)\n",
			ops, elapsed.Seconds(), float64(ops)/elapsed.Seconds(),
			float64(leaderKillRecovery.Microseconds())/1000)
		// Two thirds of the workload committed without the view-1 leader,
		// which is impossible unless the windowed view change carried it.
		return awaitGates(metricsAddrs, byzProcID, 0, true)
	}
	fmt.Printf("networked kv: %d writes from an external client process, each confirmed by f+1 replicas over TCP, with replica %d kill -9'd and restarted from its data dir and replica %d crashed after it (%.2fs, %.0f ops/s)\n",
		ops, crash1, crash2, elapsed.Seconds(), float64(ops)/elapsed.Seconds())
	return awaitGates(metricsAddrs, crash2, 0, false)
}

// expect reads lines from the child until one starts with the given tag,
// requiring at least argc fields after it.
func (c *child) expect(tag string, argc int) ([]string, error) {
	for c.out.Scan() {
		fields := strings.Fields(c.out.Text())
		if len(fields) > 0 && fields[0] == tag {
			if len(fields)-1 < argc {
				return nil, fmt.Errorf("%s line carries %d fields, want %d", tag, len(fields)-1, argc)
			}
			return fields[1:], nil
		}
	}
	if err := c.out.Err(); err != nil {
		return nil, err
	}
	return nil, fmt.Errorf("replica exited before %s", tag)
}

// awaitGates polls the metrics endpoint of every replica process except
// skip until its registry, summed over its groups, shows a decided slot,
// exactly wantMalformed malformed batches and, with wantRegime, at least one
// regime suspicion. It fails the drill on the first process that misses its
// gates for gateWait.
func awaitGates(metricsAddrs []string, skip, wantMalformed int, wantRegime bool) error {
	for p, addr := range metricsAddrs {
		if p == skip {
			continue
		}
		if addr == "" {
			return fmt.Errorf("replica process %d reported no metrics endpoint", p)
		}
		rep := obs.Labels{"replica": strconv.Itoa(p)}
		deadline := time.Now().Add(gateWait)
		for {
			snap, err := fetchSnapshot(addr)
			if err != nil {
				return fmt.Errorf("replica process %d: %w", p, err)
			}
			decided := snap.Sum("fastbft_slots_decided_total", rep)
			malformed := snap.Sum("fastbft_malformed_batches_total", rep)
			regime := snap.Sum("fastbft_regime_timeouts_total", rep)
			var miss string
			switch {
			case decided == 0:
				miss = "no decided slots"
			case malformed != float64(wantMalformed):
				miss = fmt.Sprintf("%.0f malformed batches, want %d", malformed, wantMalformed)
			case wantRegime && regime < 1:
				miss = "no regime suspicions; the drill should have forced the windowed view change"
			}
			if miss == "" {
				fmt.Printf("replica process %d: decided=%.0f malformed=%.0f regime=%.0f applied=%.0f\n", p,
					decided, malformed, regime, snap.Sum("fastbft_commands_applied_total", rep))
				break
			}
			if time.Now().After(deadline) {
				return fmt.Errorf("replica process %d: %s", p, miss)
			}
			time.Sleep(20 * time.Millisecond)
		}
	}
	return nil
}

// fetchSnapshot scrapes one replica's JSON metrics snapshot over HTTP.
func fetchSnapshot(addr string) (*obs.Snapshot, error) {
	cli := &http.Client{Timeout: 5 * time.Second}
	resp, err := cli.Get("http://" + addr + "/metrics.json")
	if err != nil {
		return nil, err
	}
	defer func() { _ = resp.Body.Close() }()
	if resp.StatusCode != http.StatusOK {
		return nil, fmt.Errorf("metrics endpoint %s: HTTP %d", addr, resp.StatusCode)
	}
	var snap obs.Snapshot
	if err := json.NewDecoder(resp.Body).Decode(&snap); err != nil {
		return nil, fmt.Errorf("metrics endpoint %s: %w", addr, err)
	}
	return &snap, nil
}

// scrapeMidWorkload requires replica proc's snapshot to show the
// observability layer fully live mid-drill: the staged request tracer has
// carried batches all the way to "replied", the WAL recorded real fsyncs and
// their coalescing factor, protocol messages are being counted per kind,
// frames crossed the wire, and the regime-timeout/view-change counters are
// exported. It checks presence per group and activity summed over groups —
// under hash partitioning a group may legitimately be quiet at the halfway
// mark.
func scrapeMidWorkload(addr string, proc, shards int) error {
	snap, err := fetchSnapshot(addr)
	if err != nil {
		return err
	}
	rep := strconv.Itoa(proc)
	decided := snap.Sum("fastbft_slots_decided_total", obs.Labels{"replica": rep})
	var fsyncs, replied uint64
	for g := 0; g < shards; g++ {
		gl := obs.Labels{"group": strconv.Itoa(g), "replica": rep}
		c, _ := snap.HistCount("fastbft_fsync_seconds", gl)
		fsyncs += c
		for _, st := range []string{"proposed", "ackquorum", "decided", "applied", "durable", "replied"} {
			sl := obs.Labels{"group": gl["group"], "replica": rep, "stage": st}
			n, ok := snap.HistCount("fastbft_stage_seconds", sl)
			if !ok {
				return fmt.Errorf("replica %d group %d: stage histogram %q missing", proc, g, st)
			}
			if st == "replied" {
				replied += n
			}
		}
		for _, name := range []string{
			"fastbft_wal_coalesced_records",
			"fastbft_regime_timeouts_total",
			"fastbft_view_changes_total",
		} {
			if !snap.Has(name, gl) {
				return fmt.Errorf("replica %d group %d: metric %q missing", proc, g, name)
			}
		}
		if !snap.Has("fastbft_messages_in_total", obs.Labels{"group": gl["group"], "replica": rep, "kind": "propose"}) {
			return fmt.Errorf("replica %d group %d: per-kind message counters missing", proc, g)
		}
	}
	if decided == 0 {
		return fmt.Errorf("replica %d: no decided slots on the metrics endpoint mid-workload", proc)
	}
	if replied == 0 {
		return fmt.Errorf("replica %d: stage histogram never reached %q", proc, "replied")
	}
	if fsyncs == 0 {
		return fmt.Errorf("replica %d: no fsyncs observed despite a durable data dir", proc)
	}
	if v, _ := snap.Value("fastbft_net_frames_in_total", obs.Labels{"replica": rep}); v == 0 {
		return fmt.Errorf("replica %d: no inbound frames counted at the transport", proc)
	}
	return nil
}

// replicaMain is the child role of a -procs run: one KV replica with a
// replica-to-replica listener and a client-facing listener, coordinated with
// the parent over stdin/stdout (ADDRS out, PEERS in, READY out, EOF to stop).
func replicaMain(args []string) error {
	fs := flag.NewFlagSet("fastbft-cluster-replica", flag.ContinueOnError)
	self := fs.Int("self", 0, "this replica's process ID")
	f := fs.Int("f", 1, "Byzantine faults tolerated")
	t := fs.Int("t", 1, "fast-path fault threshold")
	seed := fs.Int64("seed", 1, "deterministic key seed shared with the parent")
	ckpt := fs.Uint64("ckpt", 0, "checkpoint interval (0 = replica default (128))")
	addr := fs.String("addr", "127.0.0.1:0", "replica-to-replica listen address (pinned on restart)")
	clientAddr := fs.String("clientaddr", "127.0.0.1:0", "client-facing listen address (pinned on restart)")
	dataDir := fs.String("datadir", "", "data directory for the write-ahead log and snapshots (empty = in-memory)")
	baseTimeout := fs.Duration("basetimeout", 0, "per-slot view-1 timer (0 = the replica default)")
	byzName := fs.String("byz", "", "run the named adversary instead of an honest replica")
	shards := fs.Int("shards", 1, "consensus groups hosted by this process")
	if err := fs.Parse(args); err != nil {
		return err
	}
	cfg := fastbft.GeneralizedConfig(*f, *t)
	if *byzName != "" {
		return byzReplicaMain(cfg, fastbft.ProcessID(*self), *seed, *addr, *clientAddr, *byzName)
	}
	keys := fastbft.GenerateTestKeys(cfg.N, *seed)
	r, err := fastbft.NewKVReplica(fastbft.KVReplicaConfig{
		Cluster:            cfg,
		Self:               fastbft.ProcessID(*self),
		Keys:               keys,
		ListenAddr:         *addr,
		ClientListenAddr:   *clientAddr,
		CheckpointInterval: *ckpt,
		DataDir:            *dataDir,
		BaseTimeout:        *baseTimeout,
		Shards:             *shards,
		MetricsAddr:        "127.0.0.1:0",
	})
	if err != nil {
		return err
	}
	defer func() { _ = r.Close() }()
	// The third ADDRS field is the metrics endpoint, the parent's only view
	// of this replica's counters.
	fmt.Printf("ADDRS %s %s %s\n", r.Addr(), r.ClientAddr(), r.MetricsAddr())

	in := bufio.NewScanner(os.Stdin)
	for in.Scan() {
		fields := strings.Fields(in.Text())
		if len(fields) == 0 || fields[0] != "PEERS" {
			continue
		}
		if len(fields)-1 != cfg.N {
			return fmt.Errorf("PEERS line carries %d addresses, want %d", len(fields)-1, cfg.N)
		}
		if err := r.SetPeers(fields[1:]); err != nil {
			return err
		}
		if err := r.Start(); err != nil {
			return err
		}
		fmt.Println("READY")
		break
	}
	// Serve until the parent closes our stdin (or kills us).
	for in.Scan() {
	}
	return in.Err()
}

// byzReplicaMain is the corrupted-replica role of a -procs -byz run: the
// same stdio coordination protocol as an honest child (ADDRS out, PEERS in,
// READY out, EOF to stop), but the process slot is driven by a byz.Driver
// running the named adversarial behavior over a real authenticated TCP
// endpoint, with the process's real cluster key. The client-facing address
// is served by a real authenticated listener whose handler discards every
// request unanswered — the corrupted replica proves its identity to clients
// and then stonewalls them, so the f+1 matching-reply rule must be met by
// correct replicas alone.
func byzReplicaMain(cfg fastbft.Config, self fastbft.ProcessID, seed int64, addr, clientAddr, name string) error {
	var behavior byz.Behavior
	switch name {
	case "garbage":
		behavior = &byz.GarbageProposer{Slots: byzGarbageSlots}
	case "equivocate":
		// Split the correct replicas so neither equivocating branch can
		// commit in view 1 (GroupA one short of the commit quorum) while
		// both branches stay visible to the view change's selection. Both
		// values are well-formed single-command batches: whichever branch
		// the selection adopts must execute, so the correct replicas'
		// malformed counters stay zero.
		th := quorum.New(cfg)
		var correct []fastbft.ProcessID
		for i := 0; i < cfg.N; i++ {
			if p := fastbft.ProcessID(i); p != self {
				correct = append(correct, p)
			}
		}
		nA := th.CommitQuorum() - 1
		nB := len(correct) - nA
		if nA >= th.FastQuorum() || nA < th.SelectionQuorum() || nB >= th.SelectionQuorum() {
			return fmt.Errorf("equivocate needs a split below the commit quorum on both branches; n=%d gives groups of %d and %d", cfg.N, nA, nB)
		}
		groupA := make(map[fastbft.ProcessID]bool, nA)
		for _, p := range correct[:nA] {
			groupA[p] = true
		}
		behavior = &byz.SlotEquivocator{
			Slot:   0,
			ValueA: byzKVBatch("equivocate-a", 1),
			ValueB: byzKVBatch("equivocate-b", 1),
			GroupA: groupA,
		}
	default:
		return fmt.Errorf("unknown adversary %q", name)
	}
	scheme := sigcrypto.NewEd25519Deterministic(cfg.N, seed)
	tr, err := transport.NewTCP(transport.TCPConfig{
		Self:       self,
		N:          cfg.N,
		ListenAddr: addr,
		Signer:     scheme.Signer(self),
		Verifier:   scheme.Verifier(),
	})
	if err != nil {
		return err
	}
	ln, err := transport.NewClientListener(transport.ClientListenerConfig{
		Self:       self,
		ListenAddr: clientAddr,
		Signer:     scheme.Signer(self),
		Handler:    func(*msg.Request, func(*msg.Reply)) error { return nil },
	})
	if err != nil {
		_ = tr.Close()
		return err
	}
	defer func() { _ = ln.Close() }()
	if err := ln.Start(); err != nil {
		_ = tr.Close()
		return err
	}
	drv, err := byz.NewDriver(byz.DriverConfig{
		Cluster:   cfg,
		Self:      self,
		Signer:    scheme.Signer(self),
		Verifier:  scheme.Verifier(),
		Transport: tr,
		Behavior:  behavior,
	})
	if err != nil {
		_ = tr.Close()
		return err
	}
	defer func() { _ = drv.Close() }()
	fmt.Printf("ADDRS %s %s\n", tr.Addr(), ln.Addr())

	in := bufio.NewScanner(os.Stdin)
	for in.Scan() {
		fields := strings.Fields(in.Text())
		if len(fields) == 0 || fields[0] != "PEERS" {
			continue
		}
		if len(fields)-1 != cfg.N {
			return fmt.Errorf("PEERS line carries %d addresses, want %d", len(fields)-1, cfg.N)
		}
		if err := tr.SetPeers(fields[1:]); err != nil {
			return err
		}
		if err := drv.Start(); err != nil {
			return err
		}
		fmt.Println("READY")
		break
	}
	for in.Scan() {
	}
	return in.Err()
}
