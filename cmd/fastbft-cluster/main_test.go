package main

import (
	"fmt"
	"os"
	"testing"
)

// TestMain lets the test binary play the replica-child role of a -procs
// run: when the parent (a test in this same binary) spawns os.Executable()
// with the replica environment marker set, we dispatch straight into
// replicaMain instead of running the test suite.
func TestMain(m *testing.M) {
	if os.Getenv(replicaEnv) == "1" {
		if err := replicaMain(os.Args[1:]); err != nil {
			fmt.Fprintln(os.Stderr, "fastbft-cluster replica:", err)
			os.Exit(1)
		}
		os.Exit(0)
	}
	os.Exit(m.Run())
}

func TestRunSmallCluster(t *testing.T) {
	if testing.Short() {
		t.Skip("spawns a real TCP cluster")
	}
	if err := run([]string{"-f", "1", "-t", "1", "-ops", "20"}); err != nil {
		t.Fatal(err)
	}
}

// TestRunMultiProcessCluster is the end-to-end acceptance run of the
// networked client protocol and the durability subsystem: a client in this
// OS process executes commands against n replicas running as separate OS
// processes over TCP. Mid-workload one replica process is kill -9'd; it is
// later restarted from its data directory at its old addresses, and a
// different replica is killed — from then on only n−f replicas are alive,
// so every further confirmed write (f+1 matching replies) proves the
// recovered replica rejoined consensus from disk. The parent scrapes each
// live child's introspection endpoint mid-workload and requires decided
// slots and no malformed batch on every survivor's endpoint at the end.
func TestRunMultiProcessCluster(t *testing.T) {
	if testing.Short() {
		t.Skip("spawns one OS process per replica")
	}
	if err := run([]string{"-f", "1", "-t", "1", "-procs", "-ops", "18", "-timeout", "90s"}); err != nil {
		t.Fatal(err)
	}
}

// TestRunMultiProcessShardedMetrics is the CI scraping test of the
// observability layer at full width: every replica process hosts two
// consensus groups, binds an HTTP introspection endpoint, and mid-workload
// the parent requires each live endpoint to serve populated per-group
// stage-latency histograms (proposed through replied), fsync latency and
// coalescing instruments, per-kind protocol message counters, transport
// frame counters, and the regime-timeout/view-change series — then reads
// its end-of-drill gates from the same endpoints, summed over both groups.
func TestRunMultiProcessShardedMetrics(t *testing.T) {
	if testing.Short() {
		t.Skip("spawns one OS process per replica")
	}
	if err := run([]string{"-f", "1", "-t", "1", "-procs", "-shards", "2", "-ops", "24", "-timeout", "90s"}); err != nil {
		t.Fatal(err)
	}
}

// TestRunMultiProcessByzantine runs the multi-process cluster with replica
// process 1 — the leader of view 1 of every slot — replaced by the garbage
// adversary from internal/byz (see docs/THREAT_MODEL.md): it drives the
// first log slots to decide a non-batch value, over real authenticated TCP,
// in its own OS process. The run passes only if every networked client write
// is still confirmed by f+1 correct replicas (liveness under an active
// Byzantine leader) and every correct replica process's metrics endpoint
// shows exactly the attacked number of malformed batches (the decisions were
// counted, logged, and skipped — not silently lost, not applied).
func TestRunMultiProcessByzantine(t *testing.T) {
	if testing.Short() {
		t.Skip("spawns one OS process per replica")
	}
	if err := run([]string{"-f", "1", "-t", "1", "-procs", "-byz", "garbage", "-ops", "12", "-timeout", "90s"}); err != nil {
		t.Fatal(err)
	}
}

// TestRunMultiProcessEquivocate runs the multi-process cluster with the
// view-1 leader process replaced by the slot equivocator: it proposes one
// well-formed batch to part of the cluster and a different one to the rest
// — neither branch reaching the commit quorum — then stonewalls. The run
// passes only if the client workload stays live (the stranded slot and
// every client command resolve through the windowed view change: each
// correct replica's endpoint must show at least one regime suspicion) and
// no correct replica counts a malformed batch — both equivocating branches
// are valid values, so whichever one the view change's selection adopts
// executes cleanly.
func TestRunMultiProcessEquivocate(t *testing.T) {
	if testing.Short() {
		t.Skip("spawns one OS process per replica")
	}
	if err := run([]string{"-f", "1", "-t", "1", "-procs", "-byz", "equivocate", "-ops", "12", "-timeout", "90s"}); err != nil {
		t.Fatal(err)
	}
}

// TestRunMultiProcessLeaderKill runs the leader-failure drill: the view-1
// leader process is kill -9'd a third of the way into the workload and
// never restarted, so every further confirmed write rides the windowed view
// change. The run bounds the failover (time from the kill to the next
// confirmed write) and requires each survivor's endpoint to show regime
// suspicions.
func TestRunMultiProcessLeaderKill(t *testing.T) {
	if testing.Short() {
		t.Skip("spawns one OS process per replica")
	}
	if err := run([]string{"-f", "1", "-t", "1", "-procs", "-leaderkill", "-ops", "18", "-timeout", "90s"}); err != nil {
		t.Fatal(err)
	}
}

func TestRunRejectsBadParameters(t *testing.T) {
	if err := run([]string{"-f", "0"}); err == nil {
		t.Fatal("expected error for f=0")
	}
	if err := run([]string{"-f", "1", "-t", "2"}); err == nil {
		t.Fatal("expected error for t > f")
	}
	if err := run([]string{"-f", "1", "-t", "1", "-byz", "equivocate"}); err == nil {
		t.Fatal("expected error for -byz without -procs")
	}
	if err := run([]string{"-f", "1", "-t", "1", "-leaderkill"}); err == nil {
		t.Fatal("expected error for -leaderkill without -procs")
	}
	if err := run([]string{"-f", "1", "-t", "1", "-procs", "-leaderkill", "-byz", "garbage"}); err == nil {
		t.Fatal("expected error for -leaderkill with -byz")
	}
}
