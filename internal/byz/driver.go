package byz

import (
	"errors"
	"sync"

	"repro/internal/msg"
	"repro/internal/sigcrypto"
	"repro/internal/smr"
	"repro/internal/transport"
	"repro/internal/types"
)

// An adversarial replica driver occupies one process slot of an SMR cluster
// — it binds a real transport endpoint (a sim.Network endpoint in
// simulator tests, a transport.TCP in multi-process clusters), holds the
// process's real signing key, and runs a Behavior instead of the honest
// replica loop. This is the step up from the adversarial machines in byz.go:
// those occupy a process of a single consensus instance; a Driver attacks
// the full replicated log — slot-salted
// signatures, checkpoints, state transfer, request relays — through the
// same wire format honest replicas speak.
//
// The driver enforces nothing. Whatever the Behavior emits goes out
// byte-for-byte; the only constraint is the Section 2.1 one the environment
// imposes anyway: the adversary signs with its own key and cannot touch
// other processes' channels.

// Behavior is one adversarial strategy, driven by the Driver's transport
// deliveries. Deliver runs serialized (one delivery at a time) even over
// concurrent transports, so implementations need no locking of their own
// unless tests read their state while the cluster is live.
type Behavior interface {
	// Start runs once when the driver's transport is up.
	Start(d *Driver)
	// Deliver handles one decoded payload addressed to the corrupted
	// process. slot is the envelope slot number — a log slot, or one of
	// the reserved smr.CtrlSlotID / smr.SyncSlotID.
	Deliver(d *Driver, from types.ProcessID, slot uint64, m msg.Message)
}

// DriverConfig parameterizes an adversarial replica.
type DriverConfig struct {
	// Cluster is the resilience configuration of the cluster under attack.
	Cluster types.Config
	// Group is the consensus group under attack: the driver speaks and
	// signs in that group's frames and domains and ignores every other
	// group's traffic.
	Group uint64
	// Self is the corrupted process's identifier.
	Self types.ProcessID
	// Signer holds the corrupted process's real cluster key.
	Signer sigcrypto.Signer
	// Verifier verifies peers' signatures (an adversary can read anything
	// correct processes sign).
	Verifier sigcrypto.Verifier
	// Transport connects the adversary to the cluster.
	Transport transport.Transport
	// Behavior is the strategy to run.
	Behavior Behavior
}

// Driver runs one adversarial replica over a transport endpoint.
type Driver struct {
	cfg DriverConfig

	mu     sync.Mutex
	closed bool
}

// NewDriver builds an adversarial replica from its configuration.
func NewDriver(cfg DriverConfig) (*Driver, error) {
	if cfg.Transport == nil || cfg.Behavior == nil || cfg.Signer == nil || cfg.Verifier == nil {
		return nil, errors.New("byz: incomplete driver config")
	}
	if cfg.Transport.Self() != cfg.Self {
		return nil, errors.New("byz: transport/self mismatch")
	}
	// Hold the group's leader map, as its honest replicas do.
	cfg.Cluster = smr.GroupCluster(cfg.Cluster, cfg.Group)
	return &Driver{cfg: cfg}, nil
}

// Start wires the behavior to the transport and runs its Start hook.
func (d *Driver) Start() error {
	d.cfg.Transport.SetHandler(d.onPayload)
	if err := d.cfg.Transport.Start(); err != nil {
		return err
	}
	d.mu.Lock()
	defer d.mu.Unlock()
	d.cfg.Behavior.Start(d)
	return nil
}

// Close shuts the driver's endpoint down.
func (d *Driver) Close() error {
	d.mu.Lock()
	d.closed = true
	d.mu.Unlock()
	return d.cfg.Transport.Close()
}

func (d *Driver) onPayload(from types.ProcessID, payload []byte) {
	g, s, m, ok := smr.OpenEnvelope(payload)
	if !ok || g != d.cfg.Group {
		return
	}
	d.mu.Lock()
	defer d.mu.Unlock()
	if d.closed {
		return
	}
	d.cfg.Behavior.Deliver(d, from, s, m)
}

// Self returns the corrupted process's identifier.
func (d *Driver) Self() types.ProcessID { return d.cfg.Self }

// Cluster returns the resilience configuration under attack, carrying the
// attacked group's leader map: Cluster().Leader(v) is who that group's
// replicas accept as leader of view v.
func (d *Driver) Cluster() types.Config { return d.cfg.Cluster }

// Signer exposes the corrupted process's signer bound to the group's
// log-wide signing domain — the domain of checkpoint messages.
func (d *Driver) Signer() sigcrypto.Signer { return smr.LogSigner(d.cfg.Signer, d.cfg.Group) }

// Forger returns a message forger operating in log slot s's signing
// domain: its proposals, ack signatures, and certificates verify exactly
// like an honest replica's messages for that slot — and, by the same salt,
// for no other slot.
func (d *Driver) Forger(s uint64) *Forger {
	return NewForger(d.cfg.Self, smr.SlotSigner(d.cfg.Signer, d.cfg.Group, s))
}

// Send envelopes m under slot s and sends it to one peer.
func (d *Driver) Send(to types.ProcessID, s uint64, m msg.Message) {
	_ = d.cfg.Transport.Send(to, smr.Envelope(d.cfg.Group, s, m))
}

// Broadcast envelopes m under slot s and sends it to every peer.
func (d *Driver) Broadcast(s uint64, m msg.Message) {
	_ = d.cfg.Transport.Broadcast(smr.Envelope(d.cfg.Group, s, m))
}

// EachPeer calls fn for every process except the corrupted one, in
// identifier order.
func (d *Driver) EachPeer(fn func(p types.ProcessID)) {
	for i := 0; i < d.cfg.Cluster.N; i++ {
		if p := types.ProcessID(i); p != d.cfg.Self {
			fn(p)
		}
	}
}
