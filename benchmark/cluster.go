package main

import (
	"fmt"
	"net"
	"os"
	"path/filepath"
	"strings"
	"time"

	fastbft "repro"
	"repro/internal/obs"
)

// clientTimeout is one retransmission round of a client session.
const clientTimeout = time.Second

// node is what the driver needs from one replica process. The untraced runs
// use *fastbft.KVReplica; the traced run assembles the same stack from the
// internal packages with span-recording wrappers (see traced.go).
type node interface {
	Addr() string
	ClientAddr() string
	SetPeers(addrs []string) error
	Start() error
	Close() error
	Get(key string) (string, bool)
	AppliedOps() uint64
	Metrics() *fastbft.MetricsRegistry
}

// session is one client session: one request in flight at a time.
type session interface {
	Set(key, value string) (string, error)
	Delete(key string) (string, error)
	Close() error
}

// cluster is one booted deployment: n replicas (nil where never started)
// in this process, reachable over loopback TCP.
type cluster struct {
	w           workload
	cfg         fastbft.Config
	keySeed     int64
	nodes       []node
	clientAddrs []string
	dataRoot    string
	tr          *tracer // nil when tracing is off
}

// leaderOf is the process leading group 0 in view 1 of an n-process
// cluster: logical process 1, which group 0 does not rotate.
func leaderOf(n int) int { return 1 % n }

// leader is the cluster's group-0 leader.
func (c *cluster) leader() int { return leaderOf(c.cfg.N) }

// live returns the started, not yet closed replicas.
func (c *cluster) live() []node {
	var out []node
	for _, nd := range c.nodes {
		if nd != nil {
			out = append(out, nd)
		}
	}
	return out
}

// refusedAddr returns a loopback address nothing listens on, so dialing it
// fails at once — the face a crashed process shows its peers.
func refusedAddr() (string, error) {
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		return "", err
	}
	addr := ln.Addr().String()
	return addr, ln.Close()
}

// boot builds, connects and starts the workload's cluster with fresh data
// directories under dataRoot. With a tracer the replicas are the traced
// assembly; without, they come from the public constructor.
func boot(w workload, keySeed int64, dataRoot string, tr *tracer) (*cluster, error) {
	c := &cluster{
		w: w, cfg: fastbft.GeneralizedConfig(w.f, w.t), keySeed: keySeed,
		dataRoot: dataRoot, tr: tr,
	}
	n := c.cfg.N
	c.nodes = make([]node, n)
	c.clientAddrs = make([]string, n)
	peers := make([]string, n)
	dead := make(map[int]bool, len(w.dead))
	for _, d := range w.dead {
		dead[d] = true
	}
	fail := func(err error) (*cluster, error) {
		c.close()
		return nil, err
	}
	for i := 0; i < n; i++ {
		if dead[i] {
			continue
		}
		dir := ""
		if w.durable {
			dir = filepath.Join(dataRoot, fmt.Sprintf("r%d", i))
			if err := os.MkdirAll(dir, 0o755); err != nil {
				return fail(err)
			}
		}
		nd, err := c.newNode(i, dir)
		if err != nil {
			return fail(fmt.Errorf("replica %d: %w", i, err))
		}
		c.nodes[i] = nd
		peers[i] = nd.Addr()
		c.clientAddrs[i] = nd.ClientAddr()
	}
	for i := range peers {
		if !dead[i] {
			continue
		}
		var err error
		if peers[i], err = refusedAddr(); err != nil {
			return fail(err)
		}
		if c.clientAddrs[i], err = refusedAddr(); err != nil {
			return fail(err)
		}
	}
	for _, nd := range c.live() {
		if err := nd.SetPeers(peers); err != nil {
			return fail(err)
		}
	}
	for _, nd := range c.live() {
		if err := nd.Start(); err != nil {
			return fail(err)
		}
	}
	return c, nil
}

// newNode builds replica i (not yet started).
func (c *cluster) newNode(i int, dataDir string) (node, error) {
	if c.tr != nil {
		return newTracedNode(c, i, dataDir)
	}
	return fastbft.NewKVReplica(fastbft.KVReplicaConfig{
		Cluster:            c.cfg,
		Self:               fastbft.ProcessID(i),
		Keys:               fastbft.GenerateTestKeys(c.cfg.N, c.keySeed),
		ListenAddr:         "127.0.0.1:0",
		ClientListenAddr:   "127.0.0.1:0",
		WindowSize:         windowSize,
		MaxBatch:           c.w.maxBatch,
		CheckpointInterval: checkpointInterval,
		DataDir:            dataDir,
		SyncMode:           "group",
		Shards:             c.w.shards,
		Logger:             quietLogger(),
	})
}

// newSession opens client session number s against the cluster.
func (c *cluster) newSession(s int) (session, error) {
	id := fmt.Sprintf("bench-%02d", s)
	if c.tr != nil {
		return newTracedSession(c, id)
	}
	return fastbft.NewShardedKVNetworkClient(id, clientTimeout, c.cfg,
		fastbft.GenerateTestKeys(c.cfg.N, c.keySeed), c.clientAddrs, c.w.shards)
}

// describe renders every live replica's progress gauges, for the error of a
// cluster that did not converge.
func (c *cluster) describe() string {
	var b strings.Builder
	for i, nd := range c.nodes {
		if nd == nil {
			continue
		}
		snap := nd.Metrics().Snapshot()
		fmt.Fprintf(&b, "  replica %d: applied_ops=%d", i, nd.AppliedOps())
		for _, name := range []string{
			"fastbft_slots_decided_total", "fastbft_applied_slots", "fastbft_pending_commands",
			"fastbft_inflight_commands", "fastbft_window_occupancy", "fastbft_view_changes_total",
			"fastbft_regime_timeouts_total",
		} {
			fmt.Fprintf(&b, " %s=%v", strings.TrimPrefix(name, "fastbft_"), sumValue(snap, name, nil))
		}
		b.WriteByte('\n')
	}
	return b.String()
}

// kill closes replica i for good and returns when it has stopped.
func (c *cluster) kill(i int) error {
	nd := c.nodes[i]
	c.nodes[i] = nil
	return nd.Close()
}

// close stops every live replica and removes the data directories.
func (c *cluster) close() {
	for i, nd := range c.nodes {
		if nd != nil {
			_ = nd.Close() // shutting down; the run's result is already taken
			c.nodes[i] = nil
		}
	}
	if c.dataRoot != "" {
		_ = os.RemoveAll(c.dataRoot) // scratch space; a leftover is harmless
	}
}

// quietLogger keeps the replicas' informational events out of the output
// and sends errors to standard error.
func quietLogger() *fastbft.Logger {
	return obs.NewLogger(func(_ obs.Level, line string) {
		fmt.Fprintln(os.Stderr, line)
	}, obs.LevelError)
}
