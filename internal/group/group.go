// Package group hosts one consensus group of a replica process.
//
// A deployment partitions the keyspace across N ≥ 1 independent fastbft
// groups; every replica process is a member of all of them, over one shared
// replica-to-replica transport (see transport.GroupMux) and one data
// directory (per-group file namespaces, see storage.Config.Namespace). The
// group object composes an smr.Replica, its durable store, and its signing
// identity, and adds the one transformation hosting several groups needs:
//
//   - Leader rotation. Group g runs its protocol over logical process
//     identities rotated by g mod n: logical l is physical (l+g) mod n. The
//     view-1 leader of every group is logical process 1, so group g's
//     steady-state leader is the physical process (1+g) mod n — leader work
//     spreads across the cluster instead of serializing on one process's
//     pipeline. The rotation is applied at the transport boundary and at
//     the signing boundary (signer identities are rewritten
//     logical↔physical); group 0 rotates by 0, the identity.
//
// Addressing and signing context are not this package's business: the SMR
// layer writes the group into every frame header and binds every signature
// to it (smr.Config.Group), for group 0 exactly as for any other.
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
	// Self is this process's physical identifier.
	Self types.ProcessID
	// Signer and Verifier are the process's physical signing identity.
	Signer   sigcrypto.Signer
	Verifier sigcrypto.Verifier
	// Transport is this group's replica-to-replica transport view,
	// addressed by physical identifiers: a transport.GroupMux view, or a
	// transport carrying this group's frames alone. The group owns it and
	// closes it with the replica.
	Transport transport.Transport
	// App consumes decided commands. Required.
	App smr.App
	// OnCommit, if set, observes decided slots in slot order.
	OnCommit smr.CommitFunc
	// BaseTimeout, FixedTimeout, WindowSize, MaxBatch, and
	// CheckpointInterval parameterize the group's smr.Replica; see
	// smr.Config.
	BaseTimeout        time.Duration
	FixedTimeout       bool
	WindowSize         int
	MaxBatch           int
	CheckpointInterval uint64
	// DataDir, when non-empty, makes the group durable. All groups of one
	// process share the directory; each opens its own store under its
	// namespace.
	DataDir string
	// SyncMode is the WAL fsync policy when DataDir is set.
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

// Rotation returns the identity rotation of group g in an n-process
// cluster: the offset added to a logical identifier to obtain the physical
// one.
func Rotation(g, n int) types.ProcessID {
	return types.ProcessID(g % n)
}

// Namespace returns the storage file-name prefix of group g.
func Namespace(g int) string {
	return fmt.Sprintf("g%d-", g)
}

// Group is one consensus group's stack inside a replica process: an
// smr.Replica over the group's transport view, signing identity, and
// storage namespace.
type Group struct {
	cfg  Config
	rot  types.ProcessID
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
	n := cfg.Cluster.N
	rot := Rotation(cfg.Index, n)
	self := logical(cfg.Self, rot, n)
	groupLabels := obs.Labels{"group": strconv.Itoa(cfg.Index)}
	for k, v := range cfg.MetricsLabels {
		groupLabels[k] = v
	}
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
		Self:               self,
		Signer:             &groupSigner{inner: cfg.Signer, self: self},
		Verifier:           &groupVerifier{inner: cfg.Verifier, rot: rot, n: n},
		Transport:          &rotatedTransport{inner: cfg.Transport, rot: rot, n: n},
		App:                cfg.App,
		OnCommit:           cfg.OnCommit,
		BaseTimeout:        cfg.BaseTimeout,
		FixedTimeout:       cfg.FixedTimeout,
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
	return &Group{cfg: cfg, rot: rot, rep: rep, disk: disk}, nil
}

// Replica returns the group's SMR replica. Its process identifiers are
// logical (see Logical/Physical).
func (g *Group) Replica() *smr.Replica { return g.rep }

// Index returns the group's number.
func (g *Group) Index() int { return g.cfg.Index }

// Leader returns the physical process leading the group in view 1 — where
// clients should steer traffic in the steady state.
func (g *Group) Leader() types.ProcessID {
	return physical(types.View(1).Leader(g.cfg.Cluster.N), g.rot, g.cfg.Cluster.N)
}

// Logical translates a physical process identifier into this group's
// logical identifier space.
func (g *Group) Logical(p types.ProcessID) types.ProcessID {
	return logical(p, g.rot, g.cfg.Cluster.N)
}

// Physical translates one of this group's logical identifiers back to the
// physical process.
func (g *Group) Physical(l types.ProcessID) types.ProcessID {
	return physical(l, g.rot, g.cfg.Cluster.N)
}

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

// physical maps a logical identifier to the physical process.
func physical(l, rot types.ProcessID, n int) types.ProcessID {
	return (l + rot) % types.ProcessID(n)
}

// logical maps a physical process to its identifier inside the group.
func logical(p, rot types.ProcessID, n int) types.ProcessID {
	return (p - rot + types.ProcessID(n)) % types.ProcessID(n)
}

// rotatedTransport presents a rotated identifier space over a group's
// transport view: the SMR layer above addresses logical processes, the view
// below addresses physical ones. Broadcast is rotation-invariant and passes
// through.
type rotatedTransport struct {
	inner transport.Transport
	rot   types.ProcessID
	n     int
}

var _ transport.Transport = (*rotatedTransport)(nil)

// Self implements Transport, in logical coordinates.
func (t *rotatedTransport) Self() types.ProcessID {
	return logical(t.inner.Self(), t.rot, t.n)
}

// Send implements Transport; to is logical.
func (t *rotatedTransport) Send(to types.ProcessID, payload []byte) error {
	if !to.Valid(t.n) {
		return transport.ErrUnknownPeer
	}
	return t.inner.Send(physical(to, t.rot, t.n), payload)
}

// Broadcast implements Transport.
func (t *rotatedTransport) Broadcast(payload []byte) error {
	return t.inner.Broadcast(payload)
}

// SetHandler implements Transport, translating the sender to logical
// coordinates.
func (t *rotatedTransport) SetHandler(h transport.Handler) {
	if h == nil {
		t.inner.SetHandler(nil)
		return
	}
	t.inner.SetHandler(func(from types.ProcessID, payload []byte) {
		if !from.Valid(t.n) {
			return
		}
		h(logical(from, t.rot, t.n), payload)
	})
}

// Start implements Transport.
func (t *rotatedTransport) Start() error { return t.inner.Start() }

// Close implements Transport.
func (t *rotatedTransport) Close() error { return t.inner.Close() }

// groupSigner signs with the process's physical key, attributing the
// signature to the process's logical identifier — the only identity the
// group's protocol messages speak.
type groupSigner struct {
	inner sigcrypto.Signer
	self  types.ProcessID // logical
}

var _ sigcrypto.Signer = (*groupSigner)(nil)

// ID implements Signer, in logical coordinates.
func (s *groupSigner) ID() types.ProcessID { return s.self }

// Sign implements Signer.
func (s *groupSigner) Sign(msg []byte) sigcrypto.Signature {
	sig := s.inner.Sign(msg)
	sig.Signer = s.self
	return sig
}

// groupVerifier verifies signatures whose signer field is a logical
// identifier: it maps the signer back to the physical process whose key
// actually signed, then defers to the cluster verifier.
type groupVerifier struct {
	inner sigcrypto.Verifier
	rot   types.ProcessID
	n     int
}

var _ sigcrypto.Verifier = (*groupVerifier)(nil)

// Verify implements Verifier.
func (v *groupVerifier) Verify(msg []byte, sig sigcrypto.Signature) bool {
	if !sig.Signer.Valid(v.n) {
		return false
	}
	phys := sigcrypto.Signature{Signer: physical(sig.Signer, v.rot, v.n), Bytes: sig.Bytes}
	return v.inner.Verify(msg, phys)
}
