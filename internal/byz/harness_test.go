package byz

import (
	"bytes"
	"fmt"
	"sync"
	"testing"
	"time"

	"repro/internal/msg"
	"repro/internal/obs"
	"repro/internal/quorum"
	"repro/internal/sigcrypto"
	"repro/internal/sim"
	"repro/internal/smr"
	"repro/internal/storage"
	"repro/internal/transport"
	"repro/internal/types"
)

// The adversary scenarios run under both resilience shapes of
// BenchmarkTableResilience with f=2 (at f=1 the two shapes coincide):
// the paper's fast configuration n=5f−1, and the generalized n=3f+2t−1
// with t=1, which is the classic n=3f+1 where decisions ride the slow
// path whenever t faults and the adversary overlap.
var byzConfigs = []struct {
	name string
	cfg  types.Config
}{
	{"fast-n9f2t2", types.Vanilla(2)},
	{"slow-n7f2t1", types.Generalized(2, 1)},
}

// byzCluster is an SMR cluster on a lockstep sim.Network (every send due the
// instant it was made, in send order; timers on the virtual clock) with one
// process slot (two, with a colluder) occupied by an adversarial Driver
// instead of an honest replica. With in-memory replicas a scenario replays exactly. Replies from every
// correct replica are recorded per (client, seq) so tests can assert the
// client-visible safety property: no two correct replicas ever confirm the
// same request with different results.
type byzCluster struct {
	t      *testing.T
	cfg    types.Config
	th     quorum.Thresholds
	byzID  types.ProcessID
	scheme sigcrypto.Scheme
	net    *sim.Network
	opts   clusterOpts

	reps   []*smr.Replica
	stores []*smr.KVStore
	regs   []*obs.Registry                    // each correct replica's metrics (smr.Config.Metrics)
	disks  map[types.ProcessID]*storage.Store // current store of each durable replica
	drv    *Driver                            // the driver in byzID's slot
	drv2   *Driver                            // the colluder's driver, if any

	mu      sync.Mutex
	replies map[string][]*msg.Reply
}

type clusterOpts struct {
	behavior Behavior
	group    uint64 // consensus group every replica and the driver run
	interval uint64 // checkpoint interval (0 = smr's default)
	timeout  time.Duration
	// dirs maps durable replicas to their data directories.
	dirs map[types.ProcessID]string
	// colluder, when behavior2 is set, is a second corrupted process slot,
	// run by its own driver.
	colluder  types.ProcessID
	behavior2 Behavior
}

func newByzCluster(t *testing.T, cfg types.Config, byzID types.ProcessID, seed int64, opts clusterOpts) *byzCluster {
	t.Helper()
	if opts.timeout == 0 {
		opts.timeout = 100 * time.Millisecond
	}
	c := &byzCluster{
		t:       t,
		cfg:     cfg,
		th:      quorum.New(cfg),
		byzID:   byzID,
		scheme:  sigcrypto.NewHMAC(cfg.N, seed),
		net:     sim.NewNetwork(cfg.N, sim.WithDelta(0)),
		opts:    opts,
		reps:    make([]*smr.Replica, cfg.N),
		stores:  make([]*smr.KVStore, cfg.N),
		regs:    make([]*obs.Registry, cfg.N),
		disks:   make(map[types.ProcessID]*storage.Store),
		replies: make(map[string][]*msg.Reply),
	}
	for i := 0; i < cfg.N; i++ {
		p := types.ProcessID(i)
		if p == byzID || opts.behavior2 != nil && p == opts.colluder {
			continue
		}
		c.bootReplica(p, c.net.Transport(p))
		if err := c.reps[p].Start(); err != nil {
			t.Fatal(err)
		}
	}
	t.Cleanup(c.close)
	c.drv = c.startDriver(byzID, opts.behavior)
	if opts.behavior2 != nil {
		c.drv2 = c.startDriver(opts.colluder, opts.behavior2)
	}
	return c
}

// startDriver runs behavior in corrupted process p's slot.
func (c *byzCluster) startDriver(p types.ProcessID, behavior Behavior) *Driver {
	c.t.Helper()
	drv, err := NewDriver(DriverConfig{
		Cluster:   c.cfg,
		Group:     c.opts.group,
		Self:      p,
		Signer:    c.scheme.Signer(p),
		Verifier:  c.scheme.Verifier(),
		Transport: c.net.Transport(p),
		Behavior:  behavior,
	})
	if err != nil {
		c.t.Fatal(err)
	}
	if err := drv.Start(); err != nil {
		c.t.Fatal(err)
	}
	return drv
}

// bootReplica (re)builds correct replica p on transport tr; the caller
// starts it. Replicas listed in opts.dirs open their storage directory, so
// a reboot recovers the pre-crash durable state.
func (c *byzCluster) bootReplica(p types.ProcessID, tr transport.Transport) {
	c.t.Helper()
	cfg := smr.Config{
		Cluster:            c.cfg,
		Group:              c.opts.group,
		Self:               p,
		Signer:             c.scheme.Signer(p),
		Verifier:           c.scheme.Verifier(),
		Transport:          tr,
		Clock:              c.net.Clock(p),
		BaseTimeout:        c.opts.timeout,
		CheckpointInterval: c.opts.interval,
	}
	if dir, ok := c.opts.dirs[p]; ok {
		disk, err := storage.Open(storage.Config{Dir: dir})
		if err != nil {
			c.t.Fatal(err)
		}
		cfg.Storage, c.disks[p] = disk, disk
	}
	c.stores[p] = smr.NewKVStore()
	cfg.App = c.stores[p]
	c.regs[p] = obs.NewRegistry()
	cfg.Metrics = c.regs[p]
	rep, err := smr.NewReplica(cfg)
	if err != nil {
		c.t.Fatal(err)
	}
	c.reps[p] = rep
}

// counter reads correct replica p's series name from its registry.
func (c *byzCluster) counter(p types.ProcessID, name string) float64 {
	return c.regs[p].Snapshot().Sum(name, nil)
}

func (c *byzCluster) close() {
	for _, r := range c.reps {
		if r != nil {
			_ = r.Close()
		}
	}
	for _, d := range []*Driver{c.drv, c.drv2} {
		if d != nil {
			_ = d.Close()
		}
	}
}

// submit hands the request to every live correct replica (clients talk to
// all replicas; an adversary leading view 1 gets the followers' relayed
// copies like any leader would) and registers a per-replica reply recorder.
func (c *byzCluster) submit(client string, seq uint64) string {
	c.t.Helper()
	key := fmt.Sprintf("%s-k%d", client, seq)
	op := smr.EncodeKV(smr.KVCommand{
		Op: smr.OpSet, Client: client, Seq: seq,
		Key: key, Value: fmt.Sprintf("%s-v%d", client, seq),
	})
	req := &msg.Request{Client: types.ClientID(client), Seq: seq, Op: op, Group: c.opts.group}
	for _, rep := range c.reps {
		if rep == nil {
			continue
		}
		if err := rep.HandleRequest(req, c.recorder()); err != nil {
			c.t.Fatal(err)
		}
	}
	return key
}

func (c *byzCluster) recorder() smr.ReplyFunc {
	return func(rp *msg.Reply) {
		c.mu.Lock()
		defer c.mu.Unlock()
		k := fmt.Sprintf("%s/%d", rp.Client, rp.Seq)
		c.replies[k] = append(c.replies[k], rp)
	}
}

// crash is kill -9 on correct replica p: its inbox and timers are gone and
// nothing it sends from now on exists.
func (c *byzCluster) crash(p types.ProcessID) {
	c.net.Crash(p)
	_ = c.reps[p].Close() // stop the dead incarnation's timers
	c.reps[p] = nil
}

// reboot brings crashed replica p back on a fresh endpoint — from its data
// directory if it has one, from nothing otherwise — and starts it.
func (c *byzCluster) reboot(p types.ProcessID) {
	c.t.Helper()
	c.bootReplica(p, c.net.Restart(p))
	if err := c.reps[p].Start(); err != nil {
		c.t.Fatal(err)
	}
}

// settle runs the current virtual instant to quiescence without letting time
// pass. A durable replica's gated sends leave its store's flusher goroutine
// only after a real fsync, which the simulator does not schedule, so the
// instant is quiescent only once every disk is idle too: Barrier waits for
// the flusher (an event wait, not a poll), and whatever it released is
// settled in turn.
func (c *byzCluster) settle() {
	for {
		c.net.Settle()
		if len(c.disks) == 0 {
			return
		}
		for _, d := range c.disks {
			_ = d.Barrier()
		}
		if c.net.Settle() == 0 {
			return
		}
	}
}

// run advances virtual time, instant by instant, until cond holds — view
// changes and fetch retries fire when the clock reaches them — and fails the
// test if that takes more than `within` of it.
func (c *byzCluster) run(within time.Duration, cond func() bool, what string) {
	c.t.Helper()
	limit := c.net.Now() + within
	for {
		c.settle()
		if cond() {
			return
		}
		res, err := c.net.Run(limit, func() bool { return true })
		if err != nil {
			c.t.Fatal(err)
		}
		if res.Events == 0 {
			c.t.Fatalf("no %s within %v of virtual time", what, within)
		}
	}
}

// eachCorrect calls fn for every live correct replica.
func (c *byzCluster) eachCorrect(fn func(p types.ProcessID, r *smr.Replica)) {
	for i, r := range c.reps {
		if r != nil {
			fn(types.ProcessID(i), r)
		}
	}
}

// allCorrect reports whether pred holds on every live correct replica.
func (c *byzCluster) allCorrect(pred func(p types.ProcessID, r *smr.Replica) bool) bool {
	ok := true
	c.eachCorrect(func(p types.ProcessID, r *smr.Replica) {
		if !pred(p, r) {
			ok = false
		}
	})
	return ok
}

// assertReplySafety is the client-visible safety check: for every request,
// all recorded replies (one per correct replica) agree on result and slot,
// and every key in confirmed gathered at least f+1 of them — the quorum a
// client requires before treating a reply as final.
func (c *byzCluster) assertReplySafety(confirmed ...string) {
	c.t.Helper()
	c.mu.Lock()
	defer c.mu.Unlock()
	for k, list := range c.replies {
		base := list[0]
		for _, rp := range list[1:] {
			if !bytes.Equal(rp.Result, base.Result) || rp.Slot != base.Slot {
				c.t.Fatalf("divergent confirmed replies for %s: replica %s got (slot %d, %q), replica %s got (slot %d, %q)",
					k, base.Replica, base.Slot, base.Result, rp.Replica, rp.Slot, rp.Result)
			}
		}
	}
	for _, k := range confirmed {
		distinct := make(map[types.ProcessID]bool)
		for _, rp := range c.replies[k] {
			distinct[rp.Replica] = true
		}
		if len(distinct) < c.th.CertQuorum() {
			c.t.Fatalf("request %s confirmed by %d replicas, want at least f+1=%d",
				k, len(distinct), c.th.CertQuorum())
		}
	}
}

// assertStoresEqual compares the full application state of every live
// correct replica byte for byte (KVStore snapshots are canonical).
func (c *byzCluster) assertStoresEqual() {
	c.t.Helper()
	var ref []byte
	var refID types.ProcessID
	c.eachCorrect(func(p types.ProcessID, _ *smr.Replica) {
		snap := c.stores[p].Snapshot()
		if ref == nil {
			ref, refID = snap, p
			return
		}
		if !bytes.Equal(ref, snap) {
			c.t.Fatalf("replica %s and %s diverged: %d vs %d snapshot bytes (applied %d vs %d)",
				refID, p, len(ref), len(snap), c.stores[refID].AppliedOps(), c.stores[p].AppliedOps())
		}
	})
}

// correctPeers returns the correct process IDs in ascending order.
func correctPeers(cfg types.Config, byzID types.ProcessID) []types.ProcessID {
	out := make([]types.ProcessID, 0, cfg.N-1)
	for i := 0; i < cfg.N; i++ {
		if p := types.ProcessID(i); p != byzID {
			out = append(out, p)
		}
	}
	return out
}

// kvBatch builds a valid one-command batch carrying a KV set — the shape
// of value an equivocating leader proposes so that whichever branch the
// view change selects remains executable in the given group.
func kvBatch(group uint64, client string, seq uint64) (types.Value, string) {
	key := fmt.Sprintf("%s-k%d", client, seq)
	op := smr.EncodeKV(smr.KVCommand{
		Op: smr.OpSet, Client: client, Seq: seq, Key: key, Value: client + "-v",
	})
	req := &msg.Request{Client: types.ClientID(client), Seq: seq, Op: op, Group: group}
	return smr.EncodeBatch([]smr.Command{smr.Command(msg.Encode(req))}), key
}
