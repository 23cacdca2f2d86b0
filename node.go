package fastbft

import (
	"fmt"
	"strconv"
	"time"

	"repro/internal/client"
	"repro/internal/core"
	"repro/internal/group"
	"repro/internal/msg"
	"repro/internal/node"
	"repro/internal/obs"
	"repro/internal/smr"
	"repro/internal/storage"
	"repro/internal/transport"
	"repro/internal/types"
)

// Re-exported observability types (see internal/obs): every KVReplica owns a
// Metrics registry; MetricsAddr exposes it over HTTP.
type (
	// MetricsRegistry is the replica's metrics registry.
	MetricsRegistry = obs.Registry
	// MetricsSnapshot is a point-in-time registry export.
	MetricsSnapshot = obs.Snapshot
	// Logger is a leveled, structured event logger.
	Logger = obs.Logger
)

// NodeConfig parameterizes a real (TCP) consensus node.
type NodeConfig struct {
	// Cluster is the resilience configuration.
	Cluster Config
	// Self is this node's process identifier.
	Self ProcessID
	// Keys holds the cluster identities (same Keys value on every node).
	Keys *Keys
	// ListenAddr is this node's listen address, e.g. "127.0.0.1:7001" or
	// "127.0.0.1:0".
	ListenAddr string
	// Peers lists every node's address, indexed by process ID. It may be
	// nil at construction and supplied with SetPeers before Start.
	Peers []string
	// Input is this node's proposal.
	Input Value
	// OnDecide is invoked once when the node decides.
	OnDecide func(Decision)
	// BaseTimeout is the view-1 timer (500ms if zero, the default every
	// replica shares).
	BaseTimeout time.Duration
}

// Node is one real consensus process: a deterministic protocol state
// machine driven over authenticated TCP.
type Node struct {
	runner *node.Runner
	tr     *transport.TCPTransport
	proc   *core.Process
}

// NewNode builds a node and binds its listener (so its Addr is known before
// Start).
func NewNode(cfg NodeConfig) (*Node, error) {
	if err := cfg.Cluster.Validate(); err != nil {
		return nil, err
	}
	if cfg.Keys == nil || cfg.Keys.N() != cfg.Cluster.N {
		return nil, fmt.Errorf("fastbft: keys for %d processes required", cfg.Cluster.N)
	}
	tr, err := transport.NewTCP(transport.TCPConfig{
		Self:       cfg.Self,
		N:          cfg.Cluster.N,
		ListenAddr: cfg.ListenAddr,
		Peers:      cfg.Peers,
		Signer:     cfg.Keys.scheme.Signer(cfg.Self),
		Verifier:   cfg.Keys.scheme.Verifier(),
	})
	if err != nil {
		return nil, err
	}
	proc, err := core.NewProcess(cfg.Cluster, cfg.Self,
		cfg.Keys.scheme.Signer(cfg.Self), cfg.Keys.scheme.Verifier(),
		cfg.Input, cfg.BaseTimeout)
	if err != nil {
		_ = tr.Close()
		return nil, err
	}
	n := &Node{tr: tr, proc: proc}
	n.runner = node.NewRunner(node.Wall, proc, tr, func(d types.Decision) {
		if cfg.OnDecide != nil {
			cfg.OnDecide(d)
		}
	})
	return n, nil
}

// Addr returns the bound listen address.
func (n *Node) Addr() string { return n.tr.Addr() }

// SetPeers installs the cluster address table; call before Start when the
// table was not passed in NodeConfig.
func (n *Node) SetPeers(addrs []string) error { return n.tr.SetPeers(addrs) }

// Start begins participating in consensus.
func (n *Node) Start() error { return n.runner.Start() }

// Close stops the node.
func (n *Node) Close() error { return n.runner.Close() }

// Decided returns the decision, if reached.
func (n *Node) Decided() (Decision, bool) { return n.proc.Decided() }

// ---------------------------------------------------------------------------
// Replicated key-value store
// ---------------------------------------------------------------------------

// KVReplicaConfig parameterizes a replicated key-value store node.
type KVReplicaConfig struct {
	// Cluster is the resilience configuration.
	Cluster Config
	// Self is this replica's process identifier.
	Self ProcessID
	// Keys holds the cluster identities.
	Keys *Keys
	// ListenAddr is this replica's listen address.
	ListenAddr string
	// Peers lists every replica's address (may be set later via SetPeers).
	Peers []string
	// ClientListenAddr, when non-empty, additionally binds a client-facing
	// TCP listener — separate from the replica-to-replica listener — serving
	// networked clients: signed-handshake replica authentication,
	// length-prefixed canonical Request/Reply framing, per-connection read
	// deadlines and frame-size limits. Dial it with NewKVNetworkClient.
	// Empty keeps the replica reachable by in-process handles only.
	ClientListenAddr string
	// BaseTimeout caps the leader-suspicion (regime) timer and seeds it
	// before any decide latency has been observed (500ms if zero). The
	// effective timer shrinks toward a small multiple of the observed
	// decide latency.
	BaseTimeout time.Duration
	// WindowSize bounds how many log slots may run consensus concurrently
	// (default 8). The replica pipelines replication across the window —
	// each live slot proposes a disjoint chunk of the pending commands —
	// while commands are still applied strictly in slot order. 1 disables
	// pipelining (one consensus round-trip per batch).
	WindowSize int
	// MaxBatch is the maximum number of pending commands packed into one
	// slot proposal (default 1, i.e. no batching). The leader proposes a
	// full batch at once, and a partial one only while none of its
	// proposals is in flight: under load, requests gather while a slot is
	// in flight and leave together when it decides.
	MaxBatch int
	// OnCommit, if set, observes every decided log slot, in slot order. Like
	// HandleRequest's onReply it runs on one of the replica's own goroutines,
	// outside its lock: it may call back into the replica and must not block.
	OnCommit func(slot uint64, cmd []byte)
	// CheckpointInterval is the checkpoint period (zero means the replica
	// default, 128): every CheckpointInterval applied slots the replica
	// emits a signed checkpoint; a quorum-certified checkpoint prunes the
	// log below it and serves state transfer to lagging replicas.
	CheckpointInterval uint64
	// DataDir, when non-empty, makes the replica durable: it keeps a
	// CRC-framed, fsync'd write-ahead log (adopted votes persisted before
	// acks leave the process, decisions before replies go out) in this
	// directory, one file per consensus group, and recovers its pre-crash
	// state from it at construction — a replica kill -9'd mid-window
	// restarts from its data directory alone and rejoins consensus without
	// equivocating against its own earlier votes. At every stable
	// checkpoint the WAL is replaced, in one atomic install, by one headed
	// by the checkpoint's snapshot and holding only the records above it.
	// One directory belongs to exactly one replica. Empty keeps the
	// replica purely in-memory.
	DataDir string
	// SyncMode names the WAL fsync policy when DataDir is set. Group commit
	// (one fsync amortized over every record queued while the previous
	// fsync was in flight) is the only policy: "" and "group" select it,
	// anything else is an error.
	SyncMode string
	// Shards is the number of independent consensus groups the replica
	// process hosts (default 1). The keyspace is hash-partitioned across
	// the groups (see smr.ShardOf): every process is a member of all groups
	// over one shared replica-to-replica transport, one client listener,
	// and one data directory (per-group file namespaces), and each group's
	// steady-state leader sits on a different process — group g leads from
	// process (1+g) mod n — so leader work parallelizes across the cluster.
	// One shard is the same composition with a single group, group 0. Every
	// process of a cluster must configure the same value.
	Shards int
	// MetricsAddr, when non-empty, binds a per-replica HTTP introspection
	// endpoint (e.g. "127.0.0.1:0") serving /metrics (Prometheus text),
	// /metrics.json (a JSON snapshot), and /debug/pprof/. The endpoint is
	// unauthenticated and intended for trusted networks only (see
	// docs/THREAT_MODEL.md). Metrics are collected whether or not the
	// endpoint is enabled; empty just leaves them unexposed.
	MetricsAddr string
	// Logger, when set, receives the replica's structured events with
	// replica/group fields appended. Nil keeps the historical stdlib log
	// output, line for line.
	Logger *Logger
}

// KVReplica is one member of the replicated key-value store: the SMR layer
// of internal/smr running the paper's protocol per log slot. The process
// hosts one independent consensus group per shard over a shared transport
// and data directory (see internal/group); keys route to groups by hash.
type KVReplica struct {
	cluster    Config
	self       ProcessID
	shards     int
	tr         *transport.TCPTransport
	clientLn   *transport.ClientListener // nil unless ClientListenAddr was set
	groups     []*group.Group            // one per shard
	stores     []*smr.KVStore            // parallel to groups
	reg        *MetricsRegistry
	metricsSrv *obs.Server // nil unless MetricsAddr was set
}

// NewKVReplica builds a replica and binds its listener.
func NewKVReplica(cfg KVReplicaConfig) (*KVReplica, error) {
	if err := cfg.Cluster.Validate(); err != nil {
		return nil, err
	}
	if cfg.Keys == nil || cfg.Keys.N() != cfg.Cluster.N {
		return nil, fmt.Errorf("fastbft: keys for %d processes required", cfg.Cluster.N)
	}
	if cfg.Shards == 0 {
		cfg.Shards = 1
	}
	if cfg.Shards < 0 {
		return nil, fmt.Errorf("fastbft: %d shards", cfg.Shards)
	}
	var mode storage.SyncMode
	if cfg.DataDir != "" {
		var err error
		mode, err = storage.ParseSyncMode(cfg.SyncMode)
		if err != nil {
			return nil, err
		}
	}
	reg := obs.NewRegistry()
	baseLabels := obs.Labels{"replica": strconv.Itoa(int(cfg.Self))}
	lg := cfg.Logger
	if lg != nil {
		lg = lg.With("replica", int(cfg.Self))
	}
	tr, err := transport.NewTCP(transport.TCPConfig{
		Self:          cfg.Self,
		N:             cfg.Cluster.N,
		ListenAddr:    cfg.ListenAddr,
		Peers:         cfg.Peers,
		Signer:        cfg.Keys.scheme.Signer(cfg.Self),
		Verifier:      cfg.Keys.scheme.Verifier(),
		Metrics:       reg,
		MetricsLabels: baseLabels,
	})
	if err != nil {
		return nil, err
	}
	var onCommit smr.CommitFunc
	if cfg.OnCommit != nil {
		cb := cfg.OnCommit
		onCommit = func(slot uint64, cmd smr.Command, _ types.Decision) {
			cb(slot, cmd)
		}
	}
	kr := &KVReplica{
		cluster: cfg.Cluster,
		self:    cfg.Self,
		shards:  cfg.Shards,
		tr:      tr,
		reg:     reg,
	}
	reg.GaugeFunc("fastbft_replica_info", "static replica identity (always 1); labels carry the configuration",
		obs.Labels{
			"replica": strconv.Itoa(int(cfg.Self)),
			"n":       strconv.Itoa(cfg.Cluster.N),
			"shards":  strconv.Itoa(cfg.Shards),
		}, func() float64 { return 1 })
	mux := transport.NewGroupMux(tr, cfg.Shards)
	mux.Instrument(reg, baseLabels)
	closeGroups := func() {
		for _, g := range kr.groups {
			_ = g.Close()
		}
	}
	for i := 0; i < cfg.Shards; i++ {
		store := smr.NewKVStore()
		g, err := group.New(group.Config{
			Cluster:            cfg.Cluster,
			Index:              i,
			Shards:             cfg.Shards,
			Self:               cfg.Self,
			Signer:             cfg.Keys.scheme.Signer(cfg.Self),
			Verifier:           cfg.Keys.scheme.Verifier(),
			Transport:          mux.View(i),
			App:                store,
			OnCommit:           onCommit,
			BaseTimeout:        cfg.BaseTimeout,
			WindowSize:         cfg.WindowSize,
			MaxBatch:           cfg.MaxBatch,
			CheckpointInterval: cfg.CheckpointInterval,
			DataDir:            cfg.DataDir,
			SyncMode:           mode,
			Metrics:            reg,
			MetricsLabels:      baseLabels,
			Logger:             lg,
		})
		if err != nil {
			closeGroups()
			_ = tr.Close()
			return nil, err
		}
		kr.groups = append(kr.groups, g)
		kr.stores = append(kr.stores, store)
	}
	if cfg.ClientListenAddr != "" {
		ln, err := transport.NewClientListener(transport.ClientListenerConfig{
			Self:       cfg.Self,
			ListenAddr: cfg.ClientListenAddr,
			Signer:     cfg.Keys.scheme.Signer(cfg.Self),
			Handler: func(req *msg.Request, reply func(*msg.Reply)) error {
				// One listener serves every group; the request names its
				// group and a bad group number drops the connection.
				if req.Group >= uint64(len(kr.groups)) {
					return fmt.Errorf("fastbft: request for group %d of %d", req.Group, len(kr.groups))
				}
				return kr.groups[req.Group].Replica().HandleRequest(req, reply)
			},
		})
		if err != nil {
			closeGroups()
			return nil, err
		}
		kr.clientLn = ln
	}
	if cfg.MetricsAddr != "" {
		srv, err := obs.NewServer(cfg.MetricsAddr, reg)
		if err != nil {
			if kr.clientLn != nil {
				_ = kr.clientLn.Close()
			}
			closeGroups()
			return nil, err
		}
		kr.metricsSrv = srv
	}
	return kr, nil
}

// Addr returns the bound listen address.
func (r *KVReplica) Addr() string { return r.tr.Addr() }

// ClientAddr returns the bound client-facing listener address, or "" when
// ClientListenAddr was not configured.
func (r *KVReplica) ClientAddr() string {
	if r.clientLn == nil {
		return ""
	}
	return r.clientLn.Addr()
}

// MetricsAddr returns the bound introspection endpoint address, or "" when
// MetricsAddr was not configured.
func (r *KVReplica) MetricsAddr() string {
	if r.metricsSrv == nil {
		return ""
	}
	return r.metricsSrv.Addr()
}

// Metrics returns the replica's registry — always live, whether or not the
// HTTP endpoint is enabled. Useful for in-process scraping and tests.
func (r *KVReplica) Metrics() *MetricsRegistry { return r.reg }

// SetPeers installs the cluster address table before Start.
func (r *KVReplica) SetPeers(addrs []string) error { return r.tr.SetPeers(addrs) }

// Start begins participating in every hosted group; with a client listener
// configured, it also starts serving networked clients. The shared transport
// comes up once the last group starts.
func (r *KVReplica) Start() error {
	for _, g := range r.groups {
		if err := g.Start(); err != nil {
			return err
		}
	}
	if r.clientLn != nil {
		return r.clientLn.Start()
	}
	return nil
}

// Close stops every group and the client listener. The shared transport
// closes with the last group.
func (r *KVReplica) Close() error {
	if r.metricsSrv != nil {
		_ = r.metricsSrv.Close()
	}
	if r.clientLn != nil {
		_ = r.clientLn.Close()
	}
	var err error
	for _, g := range r.groups {
		if cerr := g.Close(); err == nil {
			err = cerr
		}
	}
	return err
}

// SessionCount returns the number of live client sessions across the
// replica's groups (bounded by active clients, not log length).
func (r *KVReplica) SessionCount() int {
	total := 0
	for _, g := range r.groups {
		total += g.Replica().SessionCount()
	}
	return total
}

// Shards returns how many consensus groups the replica hosts.
func (r *KVReplica) Shards() int { return r.shards }

// ShardOf returns the group a key routes to on this replica.
func (r *KVReplica) ShardOf(key string) uint64 { return smr.ShardOf(key, r.shards) }

// Get reads a key from the local state of the key's group.
func (r *KVReplica) Get(key string) (string, bool) {
	return r.stores[smr.ShardOf(key, r.shards)].Get(key)
}

// AppliedOps returns the number of commands applied locally across all
// groups.
func (r *KVReplica) AppliedOps() uint64 {
	var total uint64
	for _, st := range r.stores {
		total += st.AppliedOps()
	}
	return total
}

// StableCheckpoint returns group 0's newest quorum-certified checkpoint, if
// one has formed. (Each group checkpoints
// independently; group 0 is the representative the single-group API
// exposes.)
func (r *KVReplica) StableCheckpoint() (Checkpoint, bool) {
	return r.groups[0].Replica().StableCheckpoint()
}

// ---------------------------------------------------------------------------
// External client sessions
// ---------------------------------------------------------------------------

// KVClient is an external client session over a KVReplica cluster. It
// assigns per-session monotonically increasing sequence numbers, submits a
// session's first request to every replica and each later one to its
// group's view-1 leader alone (every replica answers over the route the
// session last used), retransmits to every replica when replies do not
// arrive in time (lost messages, a crashed or deaf leader, view change in
// progress), and accepts a result once f+1 replicas report a matching
// reply. Replicas answer retransmissions of executed requests from
// their per-client reply cache, so a request is applied exactly once no
// matter how often it is resent.
//
// The client is shard-aware: it holds one session per consensus group and
// routes every key to its group's session, so workloads spanning groups fan
// out across the per-group leaders.
type KVClient struct {
	shards int
	inners []*client.Client // one session per group
}

// NewKVClient opens a client session over the given replicas — one handle
// per process, indexed by ProcessID; nil entries model unreachable
// replicas. id names the session: reusing an id resumes its sequence
// numbering, so a fresh client needs a fresh id. timeout is one
// retransmission round (500ms if zero). The shard count is taken from the
// replicas.
func NewKVClient(id string, timeout time.Duration, reps ...*KVReplica) (*KVClient, error) {
	if len(reps) == 0 {
		return nil, fmt.Errorf("fastbft: no replicas")
	}
	var cluster Config
	shards := 0
	for i, kr := range reps {
		if kr == nil {
			continue
		}
		if kr.self != ProcessID(i) {
			// Replies are attributed by position, so a mis-ordered table
			// would make the client silently reject every reply.
			return nil, fmt.Errorf("fastbft: replica %s at index %d; pass replicas in ProcessID order", kr.self, i)
		}
		if shards != 0 && kr.shards != shards {
			return nil, fmt.Errorf("fastbft: replicas disagree on shard count (%d vs %d)", kr.shards, shards)
		}
		cluster = kr.cluster
		shards = kr.shards
	}
	if shards == 0 {
		return nil, fmt.Errorf("fastbft: no replicas")
	}
	if len(reps) != cluster.N {
		return nil, fmt.Errorf("fastbft: %d replica handles for n=%d", len(reps), cluster.N)
	}
	c := &KVClient{shards: shards}
	for g := 0; g < shards; g++ {
		handles := make([]*smr.Replica, cluster.N)
		for p, kr := range reps {
			if kr != nil {
				handles[p] = kr.groups[g].Replica()
			}
		}
		inner, err := client.New(client.Config{
			Cluster: cluster,
			ID:      types.ClientID(id),
			Timeout: timeout,
			Group:   uint64(g),
		}, client.NewLocal(handles))
		if err != nil {
			_ = c.Close()
			return nil, err
		}
		c.inners = append(c.inners, inner)
	}
	return c, nil
}

// NewKVNetworkClient opens a client session over TCP against replicas in
// other OS processes: clientAddrs is the address book of the replicas'
// client-facing listeners (KVReplicaConfig.ClientListenAddr), indexed by
// ProcessID, and keys supplies the verifier for the handshake in which each
// replica proves its identity — the authentication the f+1 matching-reply
// rule rests on. The session behaves exactly like an in-process NewKVClient
// session: per-session sequence numbers, a first request to every replica
// and later ones to the leader alone, retransmission to every replica on
// timeout (which also covers redialing crashed or unreachable replicas),
// f+1 matching-reply confirmation, and server-side exactly-once execution. It is
// NewShardedKVNetworkClient for a cluster hosting one group.
func NewKVNetworkClient(id string, timeout time.Duration, cluster Config, keys *Keys, clientAddrs []string) (*KVClient, error) {
	return NewShardedKVNetworkClient(id, timeout, cluster, keys, clientAddrs, 1)
}

// NewShardedKVNetworkClient opens a shard-aware client session over TCP
// against a cluster whose replicas host `shards` consensus groups
// (KVReplicaConfig.Shards): one session per group, all multiplexed over a
// single set of authenticated connections, with every key routed to its
// group's session. shards must match the cluster's configuration — a
// mismatched group number is rejected by the replicas.
func NewShardedKVNetworkClient(id string, timeout time.Duration, cluster Config, keys *Keys, clientAddrs []string, shards int) (*KVClient, error) {
	if err := cluster.Validate(); err != nil {
		return nil, err
	}
	if keys == nil || keys.N() != cluster.N {
		return nil, fmt.Errorf("fastbft: keys for %d processes required", cluster.N)
	}
	if len(clientAddrs) != cluster.N {
		return nil, fmt.Errorf("fastbft: %d client addresses for n=%d", len(clientAddrs), cluster.N)
	}
	if shards < 1 {
		return nil, fmt.Errorf("fastbft: %d shards", shards)
	}
	tr, err := client.NewTCP(client.TCPConfig{
		N:        cluster.N,
		Addrs:    append([]string(nil), clientAddrs...),
		Verifier: keys.scheme.Verifier(),
	})
	if err != nil {
		return nil, err
	}
	c := &KVClient{shards: shards}
	demux := client.NewDemux(tr, cluster.N, shards)
	for g := 0; g < shards; g++ {
		inner, err := client.New(client.Config{
			Cluster: cluster,
			ID:      types.ClientID(id),
			Timeout: timeout,
			Group:   uint64(g),
		}, demux.View(g))
		if err != nil {
			_ = c.Close()
			for h := g; h < shards; h++ {
				_ = demux.View(h).Close() // release the remaining refs on tr
			}
			return nil, err
		}
		c.inners = append(c.inners, inner)
	}
	return c, nil
}

// Set replicates a key/value write through the key's group and returns the
// replicated result (the stored value), confirmed by f+1 replicas.
func (c *KVClient) Set(key, value string) (string, error) {
	res, err := c.session(key).Execute(smr.EncodeKV(smr.KVCommand{Op: smr.OpSet, Key: key, Value: value}))
	return string(res), err
}

// Delete replicates a key removal through the key's group and returns the
// removed value (empty if the key was absent), confirmed by f+1 replicas.
func (c *KVClient) Delete(key string) (string, error) {
	res, err := c.session(key).Execute(smr.EncodeKV(smr.KVCommand{Op: smr.OpDel, Key: key}))
	return string(res), err
}

// session returns the per-group session a key belongs to.
func (c *KVClient) session(key string) *client.Client {
	return c.inners[smr.ShardOf(key, c.shards)]
}

// Shards returns the number of per-group sessions the client holds.
func (c *KVClient) Shards() int { return c.shards }

// Seq returns the total number of sequence numbers assigned across the
// client's per-group sessions — with one group, the session's high-water
// mark.
func (c *KVClient) Seq() uint64 {
	var total uint64
	for _, in := range c.inners {
		total += in.Seq()
	}
	return total
}

// Close releases every session; blocked calls return.
func (c *KVClient) Close() error {
	var err error
	for _, in := range c.inners {
		if cerr := in.Close(); err == nil {
			err = cerr
		}
	}
	return err
}
