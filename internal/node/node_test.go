package node_test

import (
	"reflect"
	"sync"
	"testing"
	"time"

	"repro/internal/core"
	"repro/internal/msg"
	"repro/internal/node"
	"repro/internal/sigcrypto"
	"repro/internal/sim"
	"repro/internal/transport"
	"repro/internal/types"
)

const baseTimeout = 100 * time.Millisecond

// decisionLog collects the decide callbacks of one cluster.
type decisionLog struct {
	mu sync.Mutex
	by map[types.ProcessID]types.Decision
}

// newRunner hosts process pid of one consensus instance on tr and clock,
// recording its decision in log; decided, if set, runs after each record.
func newRunner(t *testing.T, cfg types.Config, scheme sigcrypto.Scheme, pid types.ProcessID,
	clock node.Clock, tr transport.Transport, log *decisionLog, decided func()) *node.Runner {
	t.Helper()
	proc, err := core.NewProcess(cfg, pid, scheme.Signer(pid), scheme.Verifier(),
		types.Value("real-value"), baseTimeout)
	if err != nil {
		t.Fatal(err)
	}
	return node.NewRunner(clock, proc, tr, func(d types.Decision) {
		log.mu.Lock()
		log.by[pid] = d
		log.mu.Unlock()
		if decided != nil {
			decided()
		}
	})
}

// runCluster runs one consensus instance over the given real transports on
// the wall clock and returns the decisions of all replicas.
func runCluster(t *testing.T, cfg types.Config, trs []transport.Transport, scheme sigcrypto.Scheme) []types.Decision {
	t.Helper()
	log := &decisionLog{by: make(map[types.ProcessID]types.Decision)}
	decidedCh := make(chan struct{}, cfg.N)
	runners := make([]*node.Runner, cfg.N)
	for i := 0; i < cfg.N; i++ {
		pid := types.ProcessID(i)
		runners[i] = newRunner(t, cfg, scheme, pid, node.Wall, trs[i], log,
			func() { decidedCh <- struct{}{} })
	}
	for _, r := range runners {
		if err := r.Start(); err != nil {
			t.Fatal(err)
		}
	}
	defer func() {
		for _, r := range runners {
			_ = r.Close()
		}
	}()
	deadline := time.After(30 * time.Second)
	for done := 0; done < cfg.N; {
		select {
		case <-decidedCh:
			done++
		case <-deadline:
			t.Fatalf("timeout: %d of %d replicas decided", done, cfg.N)
		}
	}
	out := make([]types.Decision, cfg.N)
	log.mu.Lock()
	defer log.mu.Unlock()
	for pid, d := range log.by {
		out[pid] = d
	}
	return out
}

// TestRunnerOnVirtualTime hosts the instance on a sim.Network's endpoints
// and clocks with the view-1 leader dead from the start: the only way to a
// decision is the Runner's machine timer, which exists only on the virtual
// clock — so nobody decides before one base timeout of virtual time, the
// survivors decide in view 2 right after it, and the test never waits for a
// real one. The decide callbacks are events of the simulation like any other:
// each has run by the time Advance returns, exactly once, and none runs once
// Close has returned.
func TestRunnerOnVirtualTime(t *testing.T) {
	cfg := types.Generalized(1, 1)
	scheme := sigcrypto.NewHMAC(cfg.N, 10)
	leader := cfg.Leader(1)
	// decisionsAfter runs the scenario for d of virtual time, closes every
	// runner, and lets the network run on.
	decisionsAfter := func(d time.Duration) map[types.ProcessID]types.Decision {
		net := sim.NewNetwork(cfg.N, sim.WithDelta(time.Millisecond))
		net.Crash(leader)
		log := &decisionLog{by: make(map[types.ProcessID]types.Decision)}
		calls := 0
		runners := make([]*node.Runner, cfg.N)
		for i := range runners {
			pid := types.ProcessID(i)
			runners[i] = newRunner(t, cfg, scheme, pid, net.Clock(pid), net.Transport(pid), log, func() { calls++ })
			if err := runners[i].Start(); err != nil {
				t.Fatal(err)
			}
		}
		net.Advance(d)
		decided := make(map[types.ProcessID]types.Decision, len(log.by))
		for pid, dec := range log.by {
			decided[pid] = dec
		}
		if calls != len(decided) {
			t.Fatalf("%d decide callbacks for %d deciding processes", calls, len(decided))
		}
		for _, r := range runners {
			_ = r.Close()
		}
		net.Advance(10 * baseTimeout)
		if calls != len(decided) {
			t.Fatalf("%d decide callbacks ran after Close returned", calls-len(decided))
		}
		return decided
	}

	if early := decisionsAfter(baseTimeout - 1); len(early) != 0 {
		t.Fatalf("%d processes decided before the view-1 timeout with a dead leader", len(early))
	}
	decisions := decisionsAfter(baseTimeout + 50*time.Millisecond)
	for i := 0; i < cfg.N; i++ {
		pid := types.ProcessID(i)
		d, ok := decisions[pid]
		if pid == leader {
			if ok {
				t.Fatal("the crashed leader decided")
			}
			continue
		}
		if !ok || d.View != 2 || !d.Value.Equal(types.Value("real-value")) {
			t.Fatalf("process %s: decision %+v (decided=%v), want real-value in view 2", pid, d, ok)
		}
	}
}

// timerMachine arms its timer for armed on Init and re-arms it for rearmed
// on every delivery; it logs the instants it ticks at.
type timerMachine struct {
	armed, rearmed core.Time
	ticks          []core.Time
}

func (m *timerMachine) ID() types.ProcessID { return 0 }

func (m *timerMachine) Init(core.Time) []core.Action {
	return []core.Action{core.TimerAction{Deadline: m.armed}}
}

func (m *timerMachine) Deliver(types.ProcessID, msg.Message, core.Time) []core.Action {
	return []core.Action{core.TimerAction{Deadline: m.rearmed}}
}

func (m *timerMachine) Tick(now core.Time) []core.Action {
	m.ticks = append(m.ticks, now)
	return nil
}

// TestRunnerTimerReplacesDeadline pins the machine timer's contract in
// virtual time: a TimerAction replaces the pending deadline — re-armed later,
// the timer ticks once, at the later deadline; re-armed earlier, at the
// earlier one — and a deadline already past ticks at once.
func TestRunnerTimerReplacesDeadline(t *testing.T) {
	const ms = time.Millisecond
	for _, tc := range []struct {
		name           string
		armed, rearmed core.Time // on Init; on the delivery at 2ms
		want           []core.Time
	}{
		{"later", 5 * ms, 10 * ms, []core.Time{10 * ms}},
		{"earlier", 10 * ms, 5 * ms, []core.Time{5 * ms}},
		{"past", 5 * ms, 1 * ms, []core.Time{2 * ms}},
	} {
		net := sim.NewNetwork(2, sim.WithDelta(2*ms))
		m := &timerMachine{armed: tc.armed, rearmed: tc.rearmed}
		if err := node.NewRunner(net.Clock(0), m, net.Transport(0), nil).Start(); err != nil {
			t.Fatal(err)
		}
		peer := net.Transport(1)
		peer.SetHandler(func(types.ProcessID, []byte) {})
		if err := peer.Start(); err != nil {
			t.Fatal(err)
		}
		if err := peer.Send(0, msg.Encode(&msg.Wish{View: 2})); err != nil {
			t.Fatal(err)
		}
		net.Advance(time.Second)
		if !reflect.DeepEqual(m.ticks, tc.want) {
			t.Errorf("%s: ticks at %v, want %v", tc.name, m.ticks, tc.want)
		}
	}
}

func TestRunnerOverMemNetwork(t *testing.T) {
	cfg := types.Generalized(1, 1)
	scheme := sigcrypto.NewHMAC(cfg.N, 11)
	net := transport.NewMemNetwork(cfg.N, 0)
	defer func() { _ = net.Close() }()
	trs := make([]transport.Transport, cfg.N)
	for i := range trs {
		trs[i] = net.Transport(types.ProcessID(i))
	}
	decisions := runCluster(t, cfg, trs, scheme)
	for i, d := range decisions {
		if !d.Value.Equal(types.Value("real-value")) {
			t.Fatalf("replica %d decided %s", i, d.Value)
		}
	}
}

func TestRunnerOverTCPWithEd25519(t *testing.T) {
	cfg := types.Generalized(1, 1)
	scheme := sigcrypto.NewEd25519Deterministic(cfg.N, 12)
	tcp := make([]*transport.TCPTransport, cfg.N)
	addrs := make([]string, cfg.N)
	for i := 0; i < cfg.N; i++ {
		pid := types.ProcessID(i)
		tr, err := transport.NewTCP(transport.TCPConfig{
			Self: pid, N: cfg.N, ListenAddr: "127.0.0.1:0",
			Signer: scheme.Signer(pid), Verifier: scheme.Verifier(),
			DialRetry: 10 * time.Millisecond,
		})
		if err != nil {
			t.Fatal(err)
		}
		tcp[i] = tr
		addrs[i] = tr.Addr()
	}
	trs := make([]transport.Transport, cfg.N)
	for i, tr := range tcp {
		if err := tr.SetPeers(addrs); err != nil {
			t.Fatal(err)
		}
		trs[i] = tr
	}
	decisions := runCluster(t, cfg, trs, scheme)
	ref := decisions[0]
	for i, d := range decisions {
		if !d.Value.Equal(ref.Value) {
			t.Fatalf("replica %d decided %s, replica 0 decided %s", i, d.Value, ref.Value)
		}
	}
}
