// Package group hosts one consensus group of a replica process.
//
// A deployment partitions the keyspace across N ≥ 1 independent fastbft
// groups; every replica process is a member of all of them, over one shared
// replica-to-replica transport (see transport.GroupMux) and one data
// directory holding one WAL file per group (per-group file namespaces, see
// storage.Config.Namespace). The
// group object composes an smr.Replica with its durable store and hands it
// the process's signer, verifier and transport view untouched: there is one
// process-identifier space, shared by every group, the wire, the WAL, the
// logs and the metrics.
//
// Everything that makes the group a group is the SMR layer's business
// (smr.Config.Group): it writes the group into every frame header, binds
// every signature to it, and offsets the group's leader schedule by it, so
// group g's view-1 leader is process (1+g) mod n and leader work spreads
// across the cluster instead of serializing on one process's pipeline.
package group

import (
	"fmt"
	"strconv"
	"time"

	"repro/internal/obs"
	"repro/internal/sigcrypto"
	"repro/internal/smr"
	"repro/internal/storage"
	"repro/internal/transport"
	"repro/internal/types"
)

// Config parameterizes one consensus group of a replica process.
type Config struct {
	// Cluster is the resilience configuration (shared by all groups).
	Cluster types.Config
	// Index is this group's number, in [0, Shards).
	Index int
	// Shards is the total number of groups in the deployment.
	Shards int
	// Self is this process's identifier.
	Self types.ProcessID
	// Signer and Verifier are the process's signing identity.
	Signer   sigcrypto.Signer
	Verifier sigcrypto.Verifier
	// Transport is this group's replica-to-replica transport view: a
	// transport.GroupMux view, or a transport carrying this group's frames
	// alone. The group owns it and closes it with the replica.
	Transport transport.Transport
	// App consumes decided commands. Required.
	App smr.App
	// OnCommit, if set, observes decided slots in slot order (see
	// smr.CommitFunc for the callback contract).
	OnCommit smr.CommitFunc
	// BaseTimeout, WindowSize, MaxBatch, and CheckpointInterval
	// parameterize the group's smr.Replica and pass through unchanged; zero
	// selects smr's default (see smr.Config). MaxBatch caps a proposal; a
	// partial batch waits while the leader has a proposal in flight.
	BaseTimeout        time.Duration
	WindowSize         int
	MaxBatch           int
	CheckpointInterval uint64
	// DataDir, when non-empty, makes the group durable. All groups of one
	// process share the directory; each opens its own store under its
	// namespace.
	DataDir string
	// SyncMode is the WAL fsync policy when DataDir is set; group commit
	// (storage.SyncGroup, the zero value) is the only one.
	SyncMode storage.SyncMode
	// Metrics, when set, receives the group's replica and storage series,
	// labeled with the group number. Nil leaves the counters live but
	// unexported.
	Metrics *obs.Registry
	// MetricsLabels are extra labels for this group's series (e.g. the
	// replica id); the group label is added on top.
	MetricsLabels obs.Labels
	// Logger, when set, receives the group's structured events (a group
	// field is appended). Nil falls back to the stdlib log package.
	Logger *obs.Logger
}

// Namespace returns the storage file-name prefix of group g.
func Namespace(g int) string {
	return fmt.Sprintf("g%d-", g)
}

// Group is one consensus group's stack inside a replica process: an
// smr.Replica over the group's transport view and storage namespace.
type Group struct {
	cfg  Config
	rep  *smr.Replica
	disk *storage.Store // nil for in-memory groups
}

// New composes a group. The group takes ownership of cfg.Transport; Close
// releases it (through the replica) along with the group's store.
func New(cfg Config) (*Group, error) {
	if cfg.Shards < 1 {
		return nil, fmt.Errorf("group: %d shards", cfg.Shards)
	}
	if cfg.Index < 0 || cfg.Index >= cfg.Shards {
		return nil, fmt.Errorf("group: index %d out of range [0,%d)", cfg.Index, cfg.Shards)
	}
	groupLabels := cfg.MetricsLabels.With("group", strconv.Itoa(cfg.Index))
	var disk *storage.Store
	if cfg.DataDir != "" {
		var err error
		disk, err = storage.Open(storage.Config{
			Dir:           cfg.DataDir,
			Mode:          cfg.SyncMode,
			Namespace:     Namespace(cfg.Index),
			Metrics:       cfg.Metrics,
			MetricsLabels: groupLabels,
			Logger:        cfg.Logger,
		})
		if err != nil {
			return nil, fmt.Errorf("group %d: opening data dir: %w", cfg.Index, err)
		}
	}
	rep, err := smr.NewReplica(smr.Config{
		Cluster:            cfg.Cluster,
		Self:               cfg.Self,
		Signer:             cfg.Signer,
		Verifier:           cfg.Verifier,
		Transport:          cfg.Transport,
		App:                cfg.App,
		OnCommit:           cfg.OnCommit,
		BaseTimeout:        cfg.BaseTimeout,
		WindowSize:         cfg.WindowSize,
		MaxBatch:           cfg.MaxBatch,
		CheckpointInterval: cfg.CheckpointInterval,
		Storage:            disk, // the replica owns it and closes it
		Group:              uint64(cfg.Index),
		Metrics:            cfg.Metrics,
		MetricsLabels:      groupLabels,
		Logger:             cfg.Logger,
	})
	if err != nil {
		if disk != nil {
			_ = disk.Close()
		}
		return nil, fmt.Errorf("group %d: %w", cfg.Index, err)
	}
	return &Group{cfg: cfg, rep: rep, disk: disk}, nil
}

// Replica returns the group's SMR replica.
func (g *Group) Replica() *smr.Replica { return g.rep }

// Index returns the group's number.
func (g *Group) Index() int { return g.cfg.Index }

// Start begins the group's participation. With a GroupMux transport, the
// shared inner transport starts once every group of the process has
// started.
func (g *Group) Start() error { return g.rep.Start() }

// Close stops the group, its store, and its transport view.
func (g *Group) Close() error { return g.rep.Close() }

// Abort simulates kill -9 for a durable group (crash tests): the store
// stops mid-flight — nothing unflushed survives, no further durable effect
// runs — and the group object is abandoned un-Closed. No-op for in-memory
// groups.
func (g *Group) Abort() {
	if g.disk != nil {
		g.disk.Abort()
	}
}
