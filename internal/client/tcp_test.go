package client

import (
	"fmt"
	"sync"
	"testing"
	"time"

	"repro/internal/msg"
	"repro/internal/sigcrypto"
	"repro/internal/sim"
	"repro/internal/smr"
	"repro/internal/transport"
	"repro/internal/types"
)

// netGroup is the networked-client fixture: SMR replicas over the in-memory
// replica-to-replica network (fast and deterministic), each serving external
// clients through a real client-facing TCP listener — the layer under test.
type netGroup struct {
	cfg       types.Config
	scheme    sigcrypto.Scheme
	reps      []*smr.Replica
	stores    []*smr.KVStore
	listeners []*transport.ClientListener
	addrs     []string // client-facing addresses, indexed by ProcessID
}

// buildNetGroup starts the fixture; readTimeout is the listeners'
// ReadTimeout (0: the default).
func buildNetGroup(t *testing.T, cfg types.Config, seed int64, readTimeout time.Duration) (*netGroup, func()) {
	t.Helper()
	scheme := sigcrypto.NewHMAC(cfg.N, seed)
	net := transport.NewMemNetwork(cfg.N, 0)
	g := &netGroup{
		cfg:       cfg,
		scheme:    scheme,
		reps:      make([]*smr.Replica, cfg.N),
		stores:    make([]*smr.KVStore, cfg.N),
		listeners: make([]*transport.ClientListener, cfg.N),
		addrs:     make([]string, cfg.N),
	}
	for i := 0; i < cfg.N; i++ {
		pid := types.ProcessID(i)
		g.stores[i] = smr.NewKVStore()
		rep, err := smr.NewReplica(smr.Config{
			Cluster:     cfg,
			Self:        pid,
			Signer:      scheme.Signer(pid),
			Verifier:    scheme.Verifier(),
			Transport:   net.Transport(pid),
			App:         g.stores[i],
			BaseTimeout: 200 * time.Millisecond,
			MaxBatch:    4,
		})
		if err != nil {
			t.Fatal(err)
		}
		g.reps[i] = rep
		ln, err := transport.NewClientListener(transport.ClientListenerConfig{
			Self:        pid,
			ListenAddr:  "127.0.0.1:0",
			Signer:      scheme.Signer(pid),
			Handler:     clientHandler(rep),
			ReadTimeout: readTimeout,
		})
		if err != nil {
			t.Fatal(err)
		}
		g.listeners[i] = ln
		g.addrs[i] = ln.Addr()
	}
	for i := range g.reps {
		if err := g.reps[i].Start(); err != nil {
			t.Fatal(err)
		}
		if err := g.listeners[i].Start(); err != nil {
			t.Fatal(err)
		}
	}
	return g, func() {
		for i := range g.reps {
			_ = g.listeners[i].Close()
			_ = g.reps[i].Close()
		}
		_ = net.Close()
	}
}

func clientHandler(rep *smr.Replica) transport.ClientHandler {
	return func(req *msg.Request, reply func(*msg.Reply)) error {
		return rep.HandleRequest(req, reply)
	}
}

// newNetTransport opens a TCP client transport to the group, with the given
// address book override (nil means the group's own addresses).
func newNetTransport(t *testing.T, g *netGroup, addrs []string, tcpCfg TCPConfig) *TCP {
	t.Helper()
	if addrs == nil {
		addrs = g.addrs
	}
	tcpCfg.N = g.cfg.N
	tcpCfg.Addrs = addrs
	tcpCfg.Verifier = g.scheme.Verifier()
	tr, err := NewTCP(tcpCfg)
	if err != nil {
		t.Fatal(err)
	}
	return tr
}

// newNetClient opens a TCP client session against the group with a 300 ms
// round timeout.
func newNetClient(t *testing.T, g *netGroup, id string, addrs []string, tcpCfg TCPConfig) *Client {
	t.Helper()
	return newSession(t, g.cfg, id, 300*time.Millisecond, newNetTransport(t, g, addrs, tcpCfg))
}

func TestTCPClientEndToEnd(t *testing.T) {
	cfg := types.Generalized(1, 1)
	g, cleanup := buildNetGroup(t, cfg, 31, 0)
	defer cleanup()

	c := newNetClient(t, g, "alice", nil, TCPConfig{})
	const ops = 5
	for i := 1; i <= ops; i++ {
		key, val := fmt.Sprintf("k%d", i), fmt.Sprintf("v%d", i)
		res, err := c.Execute(kvSet(key, val))
		if err != nil {
			t.Fatalf("execute %d over TCP: %v", i, err)
		}
		if string(res) != val {
			t.Fatalf("execute %d: result %q, want %q", i, res, val)
		}
	}
	if c.Seq() != ops {
		t.Fatalf("session assigned %d sequence numbers, want %d", c.Seq(), ops)
	}
}

// TestTCPClientSettlesFirstRoundWithCrashedLeader is the crashed-leader leg
// of the fault sweep: the view-1 leader is down before the session opens —
// dials to it are refused — and every request still settles in its first
// round, because the failed direct send falls back to the other replicas at
// once. The 30 s round timeout makes a retransmission impossible to miss.
func TestTCPClientSettlesFirstRoundWithCrashedLeader(t *testing.T) {
	cfg := types.Generalized(1, 1)
	g, cleanup := buildNetGroup(t, cfg, 32, 0)
	defer cleanup()

	leader := cfg.Leader(1)
	_ = g.listeners[leader].Close()
	_ = g.reps[leader].Close()

	rec := newRecorder(newNetTransport(t, g, nil, TCPConfig{}), cfg, types.NoProcess)
	c := newSession(t, cfg, "bob", 30*time.Second, rec)
	const ops = 3
	executeSets(t, c, ops)
	if n := rec.retransmissions(); n != 0 {
		t.Fatalf("%d retransmission rounds with a crashed leader, want 0", n)
	}
}

// TestTCPReplyOnlyConnectionsStayOpen: once a session sends its first
// rounds to the leader alone, the followers' connections carry only
// replies. The listeners' 200 ms read deadline must count those replies as
// activity: a session running for three deadlines keeps every follower's
// replies, so it never needs a retransmission round, and it sends each
// request once after the first.
func TestTCPReplyOnlyConnectionsStayOpen(t *testing.T) {
	cfg := types.Generalized(1, 1)
	const readTimeout = 200 * time.Millisecond
	g, cleanup := buildNetGroup(t, cfg, 36, readTimeout)
	defer cleanup()

	rec := newRecorder(newNetTransport(t, g, nil, TCPConfig{}), cfg, types.NoProcess)
	c := newSession(t, cfg, "frank", 2*time.Second, rec)
	ops := 0
	for start := time.Now(); time.Since(start) < 3*readTimeout; {
		ops++
		val := fmt.Sprintf("v%d", ops)
		if res, err := c.Execute(kvSet(fmt.Sprintf("k%d", ops), val)); err != nil || string(res) != val {
			t.Fatalf("execute %d: res=%q err=%v", ops, res, err)
		}
	}
	if n := rec.retransmissions(); n != 0 {
		t.Fatalf("%d retransmission rounds over %d requests, want 0", n, ops)
	}
	if got, want := rec.sendCount(), cfg.N+ops-1; got != want {
		t.Fatalf("%d request sends over %d requests, want %d (the first to all, the rest to the leader)", got, ops, want)
	}
	t.Logf("%d requests in %v, 0 retransmission rounds", ops, 3*readTimeout)
}

// TestTCPClientToleratesBlackholeReplica is the silent-replica leg of the
// fault sweep: one replica accepts connections and reads everything but
// never answers — not even the handshake. The client's handshake deadline
// converts that into fail-fast silence, and the request settles from the
// other replicas.
func TestTCPClientToleratesBlackholeReplica(t *testing.T) {
	cfg := types.Generalized(1, 1)
	g, cleanup := buildNetGroup(t, cfg, 33, 0)
	defer cleanup()

	hole := types.ProcessID(1)
	proxy, err := sim.NewClientProxy(g.addrs[hole])
	if err != nil {
		t.Fatal(err)
	}
	defer func() { _ = proxy.Close() }()
	proxy.SetBlackhole(true)

	addrs := append([]string(nil), g.addrs...)
	addrs[hole] = proxy.Addr()
	c := newNetClient(t, g, "carol", addrs, TCPConfig{
		HandshakeTimeout: 150 * time.Millisecond,
	})

	start := time.Now()
	res, err := c.Execute(kvSet("k", "v"))
	if err != nil {
		t.Fatalf("execute with a blackhole replica: %v", err)
	}
	if string(res) != "v" {
		t.Fatalf("result %q, want %q", res, "v")
	}
	// Liveness, not just eventual success: the blackhole costs at most the
	// handshake deadline per round, never a hang.
	if took := time.Since(start); took > 10*time.Second {
		t.Fatalf("request took %v against one silent replica", took)
	}
}

// TestTCPClientSurvivesMidStreamConnectionDrops is the connection-drop leg
// of the fault sweep: every client connection runs through a fault proxy,
// and between (and during) requests all of them are severed. The client
// must redial, retransmit, and still execute each request exactly once.
func TestTCPClientSurvivesMidStreamConnectionDrops(t *testing.T) {
	cfg := types.Generalized(1, 1)
	g, cleanup := buildNetGroup(t, cfg, 34, 0)
	defer cleanup()

	proxies := make([]*sim.ClientProxy, cfg.N)
	addrs := make([]string, cfg.N)
	for i := range proxies {
		p, err := sim.NewClientProxy(g.addrs[i])
		if err != nil {
			t.Fatal(err)
		}
		proxies[i] = p
		addrs[i] = p.Addr()
	}
	defer func() {
		for _, p := range proxies {
			_ = p.Close()
		}
	}()
	dropAll := func() {
		for _, p := range proxies {
			p.DropConnections()
		}
	}

	c := newNetClient(t, g, "dave", addrs, TCPConfig{})
	const ops = 3
	for i := 1; i <= ops; i++ {
		if i > 1 {
			dropAll() // sever every established connection between requests
		}
		// Sever again while the request is in flight: replies already on the
		// wire are lost and must be recovered by retransmission against the
		// replicas' reply caches.
		timer := time.AfterFunc(50*time.Millisecond, dropAll)
		key, val := fmt.Sprintf("k%d", i), fmt.Sprintf("v%d", i)
		res, err := c.Execute(kvSet(key, val))
		timer.Stop()
		if err != nil {
			t.Fatalf("execute %d across connection drops: %v", i, err)
		}
		if string(res) != val {
			t.Fatalf("execute %d: result %q, want %q", i, res, val)
		}
	}

	// Exactly-once held through every retransmission: the session high-water
	// mark equals the number of requests on every live replica that applied.
	deadline := time.Now().Add(20 * time.Second)
	for {
		converged := 0
		for i := range g.reps {
			if seq, ok := g.reps[i].SessionSeq("dave"); ok && seq == ops {
				converged++
			}
		}
		if converged == cfg.N {
			break
		}
		if time.Now().After(deadline) {
			t.Fatalf("only %d/%d replicas converged to seq %d", converged, cfg.N, ops)
		}
		time.Sleep(5 * time.Millisecond)
	}
	for i, st := range g.stores {
		if st.AppliedOps() != ops {
			t.Fatalf("replica %d applied %d ops, want exactly %d (a retransmission re-executed)", i, st.AppliedOps(), ops)
		}
	}
}

// TestConcurrentClientsOverOneListener: two clients with interleaved
// sessions over the same listeners must get non-crossed replies — each
// Execute returns the result of that client's own operation — and dedup
// must stay per-(client, seq): both sessions reach their own high-water
// mark and every operation applies exactly once.
func TestConcurrentClientsOverOneListener(t *testing.T) {
	cfg := types.Generalized(1, 1)
	g, cleanup := buildNetGroup(t, cfg, 35, 0)
	defer cleanup()

	const ops = 8
	runClient := func(name string) error {
		c := newNetClient(t, g, name, nil, TCPConfig{})
		for i := 1; i <= ops; i++ {
			// Keys and values carry the client name: a crossed reply (one
			// client's Execute resolved with the other's result) is caught
			// on the spot.
			key := fmt.Sprintf("%s-k%d", name, i)
			val := fmt.Sprintf("%s-v%d", name, i)
			res, err := c.Execute(kvSet(key, val))
			if err != nil {
				return fmt.Errorf("%s execute %d: %w", name, i, err)
			}
			if string(res) != val {
				return fmt.Errorf("%s execute %d: crossed or corrupt reply %q, want %q", name, i, res, val)
			}
		}
		return nil
	}

	var wg sync.WaitGroup
	errs := make([]error, 2)
	names := []string{"alice", "bob"}
	for i := range names {
		wg.Add(1)
		i := i
		go func() {
			defer wg.Done()
			errs[i] = runClient(names[i])
		}()
	}
	wg.Wait()
	for i, err := range errs {
		if err != nil {
			t.Fatalf("client %s: %v", names[i], err)
		}
	}

	// Dedup stayed per-(client, seq): both sessions at seq=ops, 2*ops
	// applications total, on every replica.
	deadline := time.Now().Add(20 * time.Second)
	for {
		done := true
		for i := range g.reps {
			for _, name := range names {
				if seq, ok := g.reps[i].SessionSeq(types.ClientID(name)); !ok || seq != ops {
					done = false
				}
			}
		}
		if done {
			break
		}
		if time.Now().After(deadline) {
			t.Fatal("replicas did not converge to both sessions' high-water marks")
		}
		time.Sleep(5 * time.Millisecond)
	}
	for i, st := range g.stores {
		if st.AppliedOps() != 2*ops {
			t.Fatalf("replica %d applied %d ops, want exactly %d", i, st.AppliedOps(), 2*ops)
		}
		for _, name := range names {
			for k := 1; k <= ops; k++ {
				key := fmt.Sprintf("%s-k%d", name, k)
				want := fmt.Sprintf("%s-v%d", name, k)
				if v, ok := st.Get(key); !ok || v != want {
					t.Fatalf("replica %d: %s=%q (present=%v), want %q", i, key, v, ok, want)
				}
			}
		}
	}
}
