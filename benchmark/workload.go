package main

import (
	"fmt"
	"math/rand"
	"time"
)

// Settings shared by every workload (ISSUE 12): the pipelining window, the
// checkpoint interval, the key space each session owns and the write mix.
const (
	windowSize         = 8
	checkpointInterval = 128
	keysPerSession     = 1024
	deletePercent      = 5
	valueBytes         = 16
	// opsPerSession is the length of the pre-generated operation list of one
	// session; a session that outruns it starts over from the beginning.
	opsPerSession = 1 << 14
	// episodes is how many fresh clusters an end-to-end run measures; the
	// run's measured time is divided among them.
	episodes = 5
	// maxSessions is the most client sessions the load generator runs; with
	// the replicas in the same process, more would only measure scheduling.
	maxSessions = 8
)

// workload is one traffic mix and cluster shape the benchmark runs.
type workload struct {
	name string
	why  string
	// f and t are the resilience parameters; n = max(3f+2t−1, 3f+1).
	f, t int
	// dead lists replicas that are never started: their addresses refuse
	// connections, as a crashed process does.
	dead []int
	// sessions is the number of client sessions (closed loop: each keeps
	// one request in flight; open loop: the size of the session pool).
	sessions int
	// durable gives every replica a data directory with sync=group.
	durable  bool
	shards   int
	maxBatch int
	// rate, when positive, makes the workload an open loop sending this many
	// requests per second on a schedule fixed before the run.
	rate float64
	// killLeader closes the group-0 leader at the end of the measured window
	// of every episode and never restarts it, while the load runs on.
	killLeader bool
	// slowPath states which decision path every slot must take.
	slowPath bool
	// warmup precedes the measured window of every episode.
	warmup time.Duration
}

// workloads lists the five workloads in the order they run and print.
var workloads = []workload{
	{
		name: "kv-durable", f: 1, t: 1, sessions: 2, durable: true, shards: 1, maxBatch: 1,
		warmup: time.Second,
		why:    "closed loop, 2 sessions, n=4, WAL sync=group, 1 shard: the deployment default, every layer on the blocking path",
	},
	{
		// Four sessions keep both processors busy; eight only add queueing,
		// and with it a spread between runs twice as wide.
		name: "kv-mem-batch", f: 1, t: 1, sessions: 4, shards: 1, maxBatch: 8,
		warmup: time.Second,
		why:    "closed loop, 4 sessions, n=4, no data dir, MaxBatch 8 (batches of 1 measured: a session per window slot): saturates CPU with storage bypassed",
	},
	{
		name: "kv-shard4", f: 1, t: 1, sessions: 4, durable: true, shards: 4, maxBatch: 1,
		warmup: time.Second,
		why:    "closed loop, 4 sessions, n=4, 4 shards, durable: four WALs in one dir, GroupMux and rotated leaders",
	},
	{
		name: "kv-slowpath", f: 2, t: 1, dead: []int{5, 6}, sessions: 2, durable: true, shards: 1, maxBatch: 1,
		slowPath: true, warmup: time.Second,
		why: "closed loop, 2 sessions, n=7 with 2 replicas never started, durable: every slot takes the three-step commit path",
	},
	{
		name: "kv-failover", f: 1, t: 1, sessions: 8, durable: true, shards: 1, maxBatch: 1,
		rate: 100, killLeader: true, warmup: time.Second,
		why: "open loop, 100 req/s, n=4 durable: latency from due time before the leader is closed; after it the gate wants service back within 1 s, failover_ms itself is per-layer and has no bound",
	},
}

// workloadByName finds a workload.
func workloadByName(name string) (workload, bool) {
	for _, w := range workloads {
		if w.name == name {
			return w, true
		}
	}
	return workload{}, false
}

// op is one pre-generated client operation on a key its session owns.
type op struct {
	del   bool
	key   string
	value string
}

// keyName is key k of a session. Keys of different sessions never collide,
// so the last confirmed write of the owning session fixes a key's value.
func keyName(session, k int) string {
	return fmt.Sprintf("s%02d-k%04d", session, k)
}

// genOps builds the operation list of one session from the seed: uniform
// keys, 95 % Set / 5 % Delete, 16-byte values. The same (seed, session)
// always gives the same list.
func genOps(seed int64, session, count int) []op {
	rng := rand.New(rand.NewSource(seed*1_000_003 + int64(session)))
	const hexDigits = "0123456789abcdef"
	ops := make([]op, count)
	for i := range ops {
		o := &ops[i]
		o.key = keyName(session, rng.Intn(keysPerSession))
		if rng.Intn(100) < deletePercent {
			o.del = true
			continue
		}
		var v [valueBytes]byte
		for j := range v {
			v[j] = hexDigits[rng.Intn(len(hexDigits))]
		}
		o.value = string(v[:])
	}
	return ops
}

// model tracks what a session's keys must hold given its confirmed writes.
type model map[string]string

// apply records one confirmed operation and returns the result the
// replicated store must have returned for it: the stored value for a Set,
// the removed value (empty if absent) for a Delete.
func (m model) apply(o op) string {
	if o.del {
		prev := m[o.key]
		delete(m, o.key)
		return prev
	}
	m[o.key] = o.value
	return o.value
}
