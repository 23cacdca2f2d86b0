// Replicated key-value store: seven real replicas (f=2, t=1) over
// authenticated TCP on localhost, executing a write workload through the
// replicated state machine and reading it back from every replica — the
// state-machine-replication use case the paper's introduction motivates.
//
// Run with:
//
//	go run ./examples/kvstore             # client over in-process handles
//	go run ./examples/kvstore -network    # client over the replicas'
//	                                      # client-facing TCP listeners
//	go run ./examples/kvstore -datadir /tmp/kv  # durable replicas: every
//	                                      # replica keeps a write-ahead log
//	                                      # and snapshots under its own
//	                                      # subdirectory and recovers its
//	                                      # state from it across restarts
//	go run ./examples/kvstore -shards 2   # every replica hosts two consensus
//	                                      # groups; keys are hash-partitioned
//	                                      # and the client routes each write
//	                                      # to its key's group
//
// In -network mode every replica additionally binds a client-facing TCP
// listener, and the client session reaches the cluster the way a real
// external client would: dialing each replica's listener, authenticating it
// through the signed handshake, and exchanging length-prefixed canonical
// Request/Reply frames.
package main

import (
	"flag"
	"fmt"
	"log"
	"os"
	"path/filepath"
	"time"

	fastbft "repro"
)

func main() {
	network := flag.Bool("network", false, "serve the client over TCP client listeners instead of in-process handles")
	dataDir := flag.String("datadir", "", "base directory for durable replica state (empty = in-memory)")
	shards := flag.Int("shards", 1, "consensus groups per replica; keys are hash-partitioned across them")
	flag.Parse()
	if err := run(*network, *dataDir, *shards); err != nil {
		log.Fatal(err)
	}
}

func run(network bool, dataDir string, shards int) error {
	cfg := fastbft.GeneralizedConfig(2, 1) // n = 7
	mode := "in-process client handles"
	if network {
		mode = "networked TCP client"
	}
	if dataDir != "" {
		mode += ", durable data dirs under " + dataDir
	}
	mode += fmt.Sprintf(", %d consensus group(s) per replica", shards)
	fmt.Printf("starting %s replicated KV store over TCP (%s)\n", cfg, mode)

	// Durable state is only meaningful under stable identities: a restarted
	// replica verifies its recovered checkpoint certificate against the
	// cluster keys, so -datadir pins deterministic demo keys across runs
	// (a real deployment distributes persistent keys out of band).
	var keys *fastbft.Keys
	var err error
	if dataDir != "" {
		keys = fastbft.GenerateTestKeys(cfg.N, 42)
	} else {
		keys, err = fastbft.GenerateKeys(cfg.N)
		if err != nil {
			return err
		}
	}
	reps := make([]*fastbft.KVReplica, cfg.N)
	addrs := make([]string, cfg.N)
	clientAddrs := make([]string, cfg.N)
	for i := 0; i < cfg.N; i++ {
		rcfg := fastbft.KVReplicaConfig{
			Cluster:    cfg,
			Self:       fastbft.ProcessID(i),
			Keys:       keys,
			ListenAddr: "127.0.0.1:0",
			Shards:     shards,
		}
		if network {
			rcfg.ClientListenAddr = "127.0.0.1:0"
		}
		if dataDir != "" {
			// Durability pairs with checkpointing: the WAL is truncated at
			// every stable checkpoint, and a restarted replica recovers
			// from its snapshot plus the log after it.
			rcfg.DataDir = filepath.Join(dataDir, fmt.Sprintf("replica-%d", i))
			rcfg.CheckpointInterval = 8
		}
		r, err := fastbft.NewKVReplica(rcfg)
		if err != nil {
			return err
		}
		reps[i] = r
		addrs[i] = r.Addr()
		clientAddrs[i] = r.ClientAddr()
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

	// Write through an external client session: the client assigns
	// sequence numbers, retransmits on timeout, and returns each result
	// once f+1 replicas confirm it. Replicas deduplicate by (client, seq),
	// so retransmitted requests execute exactly once. In -network mode the
	// session runs over TCP against the client-facing listeners. The id
	// carries the process id: a session's sequence numbering is forever
	// (and with -datadir it survives replica restarts), so each run needs
	// a fresh identity.
	clientID := fmt.Sprintf("demo-client-%d", os.Getpid())
	var cl *fastbft.KVClient
	if network {
		cl, err = fastbft.NewShardedKVNetworkClient(clientID, 0, cfg, keys, clientAddrs, shards)
	} else {
		cl, err = fastbft.NewKVClient(clientID, 0, reps...)
	}
	if err != nil {
		return err
	}
	defer func() { _ = cl.Close() }()
	writes := map[string]string{
		"color":  "green",
		"fruit":  "kiwi",
		"planet": "mars",
		"tree":   "oak",
	}
	for k, v := range writes {
		res, err := cl.Set(k, v)
		if err != nil {
			return err
		}
		if res != v {
			return fmt.Errorf("client write %s: confirmed %q, want %q", k, res, v)
		}
	}
	fmt.Printf("client session %q: %d writes confirmed by f+1 replicas each\n",
		clientID, cl.Seq())

	// Wait for every replica to apply every write.
	deadline := time.Now().Add(time.Minute)
	for {
		done := true
		for _, r := range reps {
			if r.AppliedOps() < uint64(len(writes)) {
				done = false
				break
			}
		}
		if done {
			break
		}
		if time.Now().After(deadline) {
			return fmt.Errorf("timeout waiting for replication")
		}
		time.Sleep(5 * time.Millisecond)
	}

	// Every replica serves every key.
	for i, r := range reps {
		for k, want := range writes {
			got, ok := r.Get(k)
			if !ok || got != want {
				return fmt.Errorf("replica %d: %s=%q, want %q", i, k, got, want)
			}
		}
	}
	fmt.Printf("all %d replicas applied %d writes consistently\n", cfg.N, len(writes))
	for k, v := range writes {
		fmt.Printf("  %s = %s\n", k, v)
	}
	return nil
}
