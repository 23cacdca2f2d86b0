package client

import (
	"fmt"
	"math/bits"
	"sync"
	"testing"
	"time"

	"repro/internal/msg"
	"repro/internal/sigcrypto"
	"repro/internal/smr"
	"repro/internal/transport"
	"repro/internal/types"
)

// buildGroup wires n SMR replicas over an in-memory network.
func buildGroup(t *testing.T, cfg types.Config, seed int64) ([]*smr.Replica, []*smr.KVStore, func()) {
	t.Helper()
	scheme := sigcrypto.NewHMAC(cfg.N, seed)
	net := transport.NewMemNetwork(cfg.N, 0)
	reps := make([]*smr.Replica, cfg.N)
	stores := make([]*smr.KVStore, cfg.N)
	for i := 0; i < cfg.N; i++ {
		pid := types.ProcessID(i)
		stores[i] = smr.NewKVStore()
		r, err := smr.NewReplica(smr.Config{
			Cluster:     cfg,
			Self:        pid,
			Signer:      scheme.Signer(pid),
			Verifier:    scheme.Verifier(),
			Transport:   net.Transport(pid),
			App:         stores[i],
			BaseTimeout: 200 * time.Millisecond,
			MaxBatch:    4,
		})
		if err != nil {
			t.Fatal(err)
		}
		reps[i] = r
	}
	for _, r := range reps {
		if err := r.Start(); err != nil {
			t.Fatal(err)
		}
	}
	return reps, stores, func() {
		for _, r := range reps {
			_ = r.Close()
		}
		_ = net.Close()
	}
}

func kvSet(key, value string) []byte {
	return smr.EncodeKV(smr.KVCommand{Op: smr.OpSet, Key: key, Value: value})
}

func TestClientEndToEnd(t *testing.T) {
	cfg := types.Generalized(1, 1)
	reps, stores, cleanup := buildGroup(t, cfg, 11)
	defer cleanup()

	c, err := New(Config{Cluster: cfg, ID: "alice", Timeout: 300 * time.Millisecond}, NewLocal(reps))
	if err != nil {
		t.Fatal(err)
	}
	defer func() { _ = c.Close() }()

	const ops = 6
	for i := 0; i < ops; i++ {
		key, value := fmt.Sprintf("k%d", i), fmt.Sprintf("v%d", i)
		res, err := c.Execute(kvSet(key, value))
		if err != nil {
			t.Fatalf("execute %d: %v", i, err)
		}
		// The KV app echoes the stored value; f+1 replicas agreed on it.
		if string(res) != value {
			t.Fatalf("execute %d: result %q, want %q", i, res, value)
		}
	}
	if c.Seq() != ops {
		t.Fatalf("client assigned %d sequence numbers, want %d", c.Seq(), ops)
	}

	// Every replica converges to the writes, executed exactly once each.
	deadline := time.Now().Add(30 * time.Second)
	for {
		done := true
		for _, st := range stores {
			if st.AppliedOps() < ops {
				done = false
			}
		}
		if done || time.Now().After(deadline) {
			break
		}
		time.Sleep(5 * time.Millisecond)
	}
	for i, st := range stores {
		if st.AppliedOps() != ops {
			t.Fatalf("replica %d applied %d ops, want exactly %d", i, st.AppliedOps(), ops)
		}
		for k := 0; k < ops; k++ {
			if v, ok := st.Get(fmt.Sprintf("k%d", k)); !ok || v != fmt.Sprintf("v%d", k) {
				t.Fatalf("replica %d: k%d=%q (present=%v)", i, k, v, ok)
			}
		}
	}
	// One client drove everything: each replica holds exactly one session.
	for i, r := range reps {
		if n := r.SessionCount(); n != 1 {
			t.Fatalf("replica %d holds %d sessions, want 1", i, n)
		}
		if seq, ok := r.SessionSeq("alice"); !ok || seq != ops {
			t.Fatalf("replica %d: alice seq=%d ok=%v, want %d", i, seq, ok, ops)
		}
	}
}

// recorder wraps a client Transport. It counts every request send and every
// send to the group's leader, and silently drops the sends to deaf, as a
// leader that ignores its clients does. Every round of a request sends to
// the leader once (a round to every replica starts there), so the leader
// sends of a sequence number count its rounds.
type recorder struct {
	Transport
	leader, deaf types.ProcessID

	mu     sync.Mutex
	sends  int
	rounds map[uint64]int
}

func newRecorder(inner Transport, cfg types.Config, deaf types.ProcessID) *recorder {
	return &recorder{Transport: inner, leader: cfg.Leader(1), deaf: deaf, rounds: make(map[uint64]int)}
}

func (r *recorder) Send(to types.ProcessID, req *msg.Request) error {
	r.mu.Lock()
	r.sends++
	if to == r.leader {
		r.rounds[req.Seq]++
	}
	r.mu.Unlock()
	if to == r.deaf {
		return nil
	}
	return r.Transport.Send(to, req)
}

// retransmissions returns the rounds sent after the first, over all
// requests.
func (r *recorder) retransmissions() int {
	r.mu.Lock()
	defer r.mu.Unlock()
	n := 0
	for _, rounds := range r.rounds {
		n += rounds - 1
	}
	return n
}

func (r *recorder) sendCount() int {
	r.mu.Lock()
	defer r.mu.Unlock()
	return r.sends
}

// newSession opens a client session over tr; its cleanup closes it.
func newSession(t *testing.T, cfg types.Config, id string, timeout time.Duration, tr Transport) *Client {
	t.Helper()
	c, err := New(Config{Cluster: cfg, ID: types.ClientID(id), Timeout: timeout}, tr)
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { _ = c.Close() })
	return c
}

// executeSets runs ops writes k<i> = v<i> through c and checks each result.
func executeSets(t *testing.T, c *Client, ops int) {
	t.Helper()
	for i := 1; i <= ops; i++ {
		val := fmt.Sprintf("v%d", i)
		if res, err := c.Execute(kvSet(fmt.Sprintf("k%d", i), val)); err != nil || string(res) != val {
			t.Fatalf("execute %d: res=%q err=%v", i, res, err)
		}
	}
}

// TestClientSettlesFirstRoundWithDeadLeader: the view-1 leader is down
// (a nil handle, so every send to it fails), and every request still
// settles in its first round — the failed direct send falls back to the
// other replicas at once, which change view and answer. The 30 s round
// timeout makes a retransmission impossible to miss.
func TestClientSettlesFirstRoundWithDeadLeader(t *testing.T) {
	cfg := types.Generalized(1, 1)
	reps, _, cleanup := buildGroup(t, cfg, 12)
	defer cleanup()

	leader := cfg.Leader(1)
	if err := reps[leader].Close(); err != nil {
		t.Fatal(err)
	}
	live := append([]*smr.Replica(nil), reps...)
	live[leader] = nil

	rec := newRecorder(NewLocal(live), cfg, types.NoProcess)
	c := newSession(t, cfg, "bob", 30*time.Second, rec)
	const ops = 3
	executeSets(t, c, ops)
	if n := rec.retransmissions(); n != 0 {
		t.Fatalf("%d retransmission rounds with a dead leader, want 0", n)
	}
}

// TestClientToleratesDeafLeader: the transport silently drops every send
// to the view-1 leader, as a leader that ignores its clients would, while
// the leader still proposes what followers relay. Every write applies at
// every replica, and the back-off bounds the cost: the k-th direct round
// is request k + 2^k − 1, so r requests pay at most ⌊log2(r+1)⌋ timed-out
// direct rounds, each retransmitted once, where a session that tried the
// leader on every other request would pay r/2.
func TestClientToleratesDeafLeader(t *testing.T) {
	cfg := types.Generalized(1, 1)
	reps, stores, cleanup := buildGroup(t, cfg, 14)
	defer cleanup()

	rec := newRecorder(NewLocal(reps), cfg, cfg.Leader(1))
	c := newSession(t, cfg, "erin", 500*time.Millisecond, rec)
	const ops = 20
	executeSets(t, c, ops)

	bound := bits.Len(ops+1) - 1 // ⌊log2(ops+1)⌋
	if n := rec.retransmissions(); n > bound {
		t.Fatalf("%d retransmission rounds over %d requests to a deaf leader, want at most %d", n, ops, bound)
	}
	deadline := time.Now().Add(30 * time.Second)
	for i, st := range stores {
		for st.AppliedOps() < ops && time.Now().Before(deadline) {
			time.Sleep(5 * time.Millisecond)
		}
		if st.AppliedOps() != ops {
			t.Fatalf("replica %d applied %d writes, want %d", i, st.AppliedOps(), ops)
		}
	}
	t.Logf("%d requests, %d retransmission rounds (bound %d), %d sends", ops, rec.retransmissions(), bound, rec.sendCount())
}

// TestFirstRequestNeedsNoTimeoutRound: a fresh session's first request
// must settle from the initial submission — replicas only reply to clients
// that contacted them, so the first round has to reach enough of them for
// an f+1 quorum rather than burning a full timeout on an entry-only send.
func TestFirstRequestNeedsNoTimeoutRound(t *testing.T) {
	cfg := types.Generalized(1, 1)
	reps, _, cleanup := buildGroup(t, cfg, 13)
	defer cleanup()

	c, err := New(Config{Cluster: cfg, ID: "dave", Timeout: 30 * time.Second}, NewLocal(reps))
	if err != nil {
		t.Fatal(err)
	}
	defer func() { _ = c.Close() }()

	start := time.Now()
	if _, err := c.Execute(kvSet("first", "1")); err != nil {
		t.Fatal(err)
	}
	if took := time.Since(start); took > 10*time.Second {
		t.Fatalf("first request took %v: it waited for a retransmission round", took)
	}
}

// TestClientRejectsBadConfig covers constructor validation.
func TestClientRejectsBadConfig(t *testing.T) {
	cfg := types.Generalized(1, 1)
	tr := NewLocal(nil)
	if _, err := New(Config{Cluster: cfg, ID: ""}, tr); err == nil {
		t.Fatal("empty client id accepted")
	}
	if _, err := New(Config{Cluster: cfg, ID: "x"}, nil); err == nil {
		t.Fatal("nil transport accepted")
	}
	if _, err := New(Config{Cluster: types.Config{N: 1}, ID: "x"}, tr); err == nil {
		t.Fatal("invalid cluster accepted")
	}
}

// TestClosedClientUnblocksExecute: Close must release a blocked Execute.
func TestClosedClientUnblocksExecute(t *testing.T) {
	cfg := types.Generalized(1, 1)
	// No replicas at all: Execute can never complete.
	c, err := New(Config{
		Cluster: cfg, ID: "carol", Timeout: 50 * time.Millisecond, Retries: 1000,
	}, NewLocal(make([]*smr.Replica, cfg.N)))
	if err != nil {
		t.Fatal(err)
	}
	done := make(chan error, 1)
	go func() {
		_, err := c.Execute([]byte("op"))
		done <- err
	}()
	time.Sleep(100 * time.Millisecond)
	if err := c.Close(); err != nil {
		t.Fatal(err)
	}
	select {
	case err := <-done:
		if err != ErrClosed {
			t.Fatalf("blocked execute returned %v, want ErrClosed", err)
		}
	case <-time.After(5 * time.Second):
		t.Fatal("execute still blocked after Close")
	}
}

// quorumThenClose is a transport whose first Send delivers need matching
// empty replies and then closes the client, before Execute wakes up.
type quorumThenClose struct {
	need    int
	c       *Client
	handler func(types.ProcessID, *msg.Reply)
	done    bool
}

func (tr *quorumThenClose) SetHandler(h func(types.ProcessID, *msg.Reply)) { tr.handler = h }
func (tr *quorumThenClose) Close() error                                   { return nil }

func (tr *quorumThenClose) Send(_ types.ProcessID, req *msg.Request) error {
	if tr.done {
		return nil
	}
	tr.done = true
	for p := 0; p < tr.need; p++ {
		tr.handler(types.ProcessID(p), &msg.Reply{Client: req.Client, Seq: req.Seq, Replica: types.ProcessID(p)})
	}
	return tr.c.Close()
}

// TestEmptyResultSettledBeforeClose: a request f+1 replicas confirmed with
// an empty result (a KV delete of an absent key) returns that result even
// when Close lands before Execute wakes; only a request Close itself
// released reports ErrClosed.
func TestEmptyResultSettledBeforeClose(t *testing.T) {
	cfg := types.Generalized(1, 1)
	tr := &quorumThenClose{need: cfg.F + 1}
	c, err := New(Config{Cluster: cfg, ID: "dave"}, tr)
	if err != nil {
		t.Fatal(err)
	}
	tr.c = c
	res, err := c.Execute([]byte("delete absent key"))
	if err != nil {
		t.Fatalf("confirmed request returned %v", err)
	}
	if len(res) != 0 {
		t.Fatalf("result %q, want empty", res)
	}
}
