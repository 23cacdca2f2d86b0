package smr

import (
	"fmt"
	"path/filepath"
	"sync"
	"testing"
	"time"

	"repro/internal/msg"
	"repro/internal/obs"
	"repro/internal/sigcrypto"
	"repro/internal/sim"
	"repro/internal/storage"
	"repro/internal/types"
)

// Every multi-replica test of this package runs on one fixture: n replicas
// bound to the transport endpoints and virtual clocks of a sim.Network.
// Messages and timers are events on the simulator's (time, seq) heap, so a
// test decides when time passes — a regime timer fires only when the test
// advances the clock to it — and, with in-memory replicas, a schedule replays
// exactly from its seed.

// groupOpts selects the fixture's network and replica configuration; the
// zero value is a lockstep network (every send due the instant it was made,
// in send order) under smr's defaults.
type groupOpts struct {
	delta    time.Duration // fixed delay of every message
	jitter   time.Duration // if positive: seeded uniform delay in [0, jitter] instead
	base     time.Duration // Config.BaseTimeout
	window   int
	maxBatch int
	interval uint64 // Config.CheckpointInterval
	durable  bool   // every replica on a storage.Store (SyncGroup) in its own directory
	trace    sim.TraceFunc
}

type simGroup struct {
	t      *testing.T
	cfg    types.Config
	opts   groupOpts
	scheme sigcrypto.Scheme
	net    *sim.Network
	reps   []*Replica
	stores []*KVStore
	logs   []*commitLog
	regs   []*obs.Registry  // each replica's metrics (Config.Metrics)
	dirs   []string         // durable groups only
	disks  []*storage.Store // durable groups only
}

func newSimGroup(t *testing.T, cfg types.Config, seed int64, opts groupOpts) *simGroup {
	t.Helper()
	g := &simGroup{
		t:      t,
		cfg:    cfg,
		opts:   opts,
		scheme: sigcrypto.NewHMAC(cfg.N, seed),
		net:    sim.NewNetwork(cfg.N, sim.WithDelta(opts.delta), sim.WithTrace(opts.trace)),
		reps:   make([]*Replica, cfg.N),
		stores: make([]*KVStore, cfg.N),
		logs:   make([]*commitLog, cfg.N),
		regs:   make([]*obs.Registry, cfg.N),
	}
	if opts.jitter > 0 {
		g.net.SetPayloadFunc(sim.SeededDelay(seed, opts.jitter))
	}
	if opts.durable {
		g.dirs = make([]string, cfg.N)
		g.disks = make([]*storage.Store, cfg.N)
		base := t.TempDir()
		for i := range g.dirs {
			g.dirs[i] = filepath.Join(base, fmt.Sprintf("replica-%d", i))
		}
	}
	for i := 0; i < cfg.N; i++ {
		g.build(types.ProcessID(i))
	}
	for _, r := range g.reps {
		if err := r.Start(); err != nil {
			t.Fatal(err)
		}
	}
	t.Cleanup(func() {
		for _, r := range g.reps {
			if r != nil {
				_ = r.Close()
			}
		}
	})
	return g
}

// build (re)creates replica p with an empty application — and, in a durable
// group, whatever its data directory holds — on p's current endpoint. The
// caller starts it.
func (g *simGroup) build(p types.ProcessID) {
	g.t.Helper()
	g.stores[p] = NewKVStore()
	g.logs[p] = &commitLog{now: g.net.Now}
	g.regs[p] = obs.NewRegistry()
	cfg := Config{
		Cluster:            g.cfg,
		Self:               p,
		Signer:             g.scheme.Signer(p),
		Verifier:           g.scheme.Verifier(),
		Transport:          g.net.Transport(p),
		Clock:              g.net.Clock(p),
		App:                g.stores[p],
		OnCommit:           g.logs[p].record,
		BaseTimeout:        g.opts.base,
		WindowSize:         g.opts.window,
		MaxBatch:           g.opts.maxBatch,
		CheckpointInterval: g.opts.interval,
		Metrics:            g.regs[p],
	}
	if g.opts.durable {
		disk, err := storage.Open(storage.Config{Dir: g.dirs[p], Mode: storage.SyncGroup})
		if err != nil {
			g.t.Fatal(err)
		}
		cfg.Storage, g.disks[p] = disk, disk
	}
	r, err := NewReplica(cfg)
	if err != nil {
		g.t.Fatal(err)
	}
	g.reps[p] = r
}

// crash is kill -9 on replica p: its inbox and timers are gone and nothing
// it sends from now on exists; a durable replica's store stops mid-flight
// (nothing unflushed survives, no further effect runs).
func (g *simGroup) crash(p types.ProcessID) {
	g.net.Crash(p)
	if g.opts.durable {
		g.disks[p].Abort()
	}
	_ = g.reps[p].Close() // stop the dead incarnation's timers
	g.reps[p] = nil
}

// reboot brings a crashed replica back on a fresh endpoint, rebuilt from
// nothing (or, in a durable group, from its data directory alone). The
// caller starts it.
func (g *simGroup) reboot(p types.ProcessID) *Replica {
	g.t.Helper()
	g.net.Restart(p)
	g.build(p)
	return g.reps[p]
}

// viewChanges reads replica p's fastbft_view_changes_total from its registry.
func (g *simGroup) viewChanges(p types.ProcessID) float64 {
	v, _ := g.regs[p].Snapshot().Value("fastbft_view_changes_total", nil)
	return v
}

// suspicionDelay reads the delay r's regime timer would use if armed now.
func suspicionDelay(r *Replica) time.Duration {
	r.mu.Lock()
	defer r.mu.Unlock()
	return r.regimeDelayLocked()
}

// live calls fn for every replica that is currently up.
func (g *simGroup) live(fn func(p types.ProcessID, r *Replica)) {
	for i, r := range g.reps {
		if r != nil {
			fn(types.ProcessID(i), r)
		}
	}
}

// applied reports whether every live replica's store executed at least n
// commands.
func (g *simGroup) applied(n uint64) func() bool {
	return func() bool {
		ok := true
		g.live(func(p types.ProcessID, _ *Replica) { ok = ok && g.stores[p].AppliedOps() >= n })
		return ok
	}
}

// settle runs the current virtual instant to quiescence without letting time
// pass. A durable replica's gated sends leave its store's flusher goroutine
// only after a real fsync, which the simulator does not schedule, so the
// instant is quiescent only once every disk is idle too: Barrier waits for
// the flusher (an event wait, not a poll), and whatever it released is
// settled in turn.
func (g *simGroup) settle() {
	for {
		g.net.Settle()
		if !g.opts.durable {
			return
		}
		for _, d := range g.disks {
			_ = d.Barrier()
		}
		if g.net.Settle() == 0 {
			return
		}
	}
}

// run advances virtual time, instant by instant, until cond holds, and
// fails the test if that takes more than `within` of it. Each instant is
// settled before the clock moves on, so virtual time never outruns a
// durable replica's real fsync.
func (g *simGroup) run(within time.Duration, cond func() bool, what string) {
	g.t.Helper()
	limit := g.net.Now() + within
	for {
		g.settle()
		if cond() {
			return
		}
		res, err := g.net.Run(limit, func() bool { return true })
		if err != nil {
			g.t.Fatal(err)
		}
		if res.Events == 0 {
			g.t.Fatalf("no %s within %v of virtual time", what, within)
		}
	}
}

// holdSlot parks every payload of log slot s (see sim.Network.Release).
func holdSlot(s uint64) sim.PayloadFunc {
	return func(_, _ types.ProcessID, payload []byte, _ sim.Time) sim.Fate {
		got, ok := payloadSlot(payload)
		return sim.Fate{Hold: ok && got == s}
	}
}

// payloadSlot parses the slot number out of an SMR frame header.
func payloadSlot(payload []byte) (uint64, bool) {
	_, s, _, ok := openHeader(payload)
	return s, ok
}

// commitLog records one replica's user callbacks in delivery order: every
// OnCommit, with the virtual time of its delivery, and every reply
// delivered to reply (a ReplyFunc). The mutex is for the durable groups,
// whose callbacks run on the store's goroutines.
type commitLog struct {
	mu     sync.Mutex
	now    func() time.Duration
	slots  []uint64        // OnCommit deliveries
	at     []time.Duration // and when each was delivered
	events []callback
}

// callback is one delivered OnCommit (rep == nil) or reply.
type callback struct {
	slot uint64
	rep  *msg.Reply
}

func (c *commitLog) record(slot uint64, _ Command, _ types.Decision) {
	c.mu.Lock()
	defer c.mu.Unlock()
	c.slots = append(c.slots, slot)
	c.at = append(c.at, c.now())
	c.events = append(c.events, callback{slot: slot})
}

func (c *commitLog) reply(rep *msg.Reply) {
	c.mu.Lock()
	defer c.mu.Unlock()
	c.events = append(c.events, callback{slot: rep.Slot, rep: rep})
}

func (c *commitLog) snapshot() []uint64 {
	c.mu.Lock()
	defer c.mu.Unlock()
	return append([]uint64(nil), c.slots...)
}

// appliedAt maps every committed slot to the virtual time it was delivered.
func (c *commitLog) appliedAt() map[uint64]time.Duration {
	c.mu.Lock()
	defer c.mu.Unlock()
	out := make(map[uint64]time.Duration, len(c.slots))
	for i, s := range c.slots {
		out[s] = c.at[i]
	}
	return out
}

func (c *commitLog) history() []callback {
	c.mu.Lock()
	defer c.mu.Unlock()
	return append([]callback(nil), c.events...)
}

// submit drives cmd through HandleRequest — the path production runs — as
// request seq of the client's session, fire-and-forget. A session keeps one
// request in flight, so tests that burst commands give each its own session.
func submit(r *Replica, client types.ClientID, seq uint64, cmd Command) error {
	return r.HandleRequest(&msg.Request{Client: client, Seq: seq, Op: cmd, Group: r.cfg.Group}, nil)
}

// sessionID names the single-use client session of a test's i-th command.
func sessionID(i int) types.ClientID { return types.ClientID(fmt.Sprintf("c%d", i)) }

// submitOps submits commands k<from>..k<to-1> through r, each in a session
// of its own.
func submitOps(t *testing.T, r *Replica, client string, from, to int) {
	t.Helper()
	for i := from; i < to; i++ {
		cmd := EncodeKV(KVCommand{Op: OpSet, Client: client, Seq: uint64(i),
			Key: fmt.Sprintf("k%d", i), Value: fmt.Sprintf("v%d", i)})
		if err := submit(r, types.ClientID(fmt.Sprintf("%s-%d", client, i)), 1, cmd); err != nil {
			t.Fatal(err)
		}
	}
}

func submitKV(t *testing.T, r *Replica, client string, i int) {
	t.Helper()
	submitOps(t, r, client, i, i+1)
}

// submitKVAll submits command k<i> to every live replica but skip (-1 skips
// none), as internal/client sends a round to every replica it reaches when
// the view-1 leader fails it: the submission that survives a dead or deaf
// view-1 leader, because the view-change leader then holds the request in
// its own queue.
func (g *simGroup) submitKVAll(client string, i int, skip types.ProcessID) {
	g.t.Helper()
	g.live(func(p types.ProcessID, r *Replica) {
		if p != skip {
			submitKV(g.t, r, client, i)
		}
	})
}
