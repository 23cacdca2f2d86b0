package pbft

import (
	"testing"
	"time"

	"repro/internal/sigcrypto"
	"repro/internal/sim"
	"repro/internal/types"
)

// buildCluster wires n PBFT processes into a simulated network, leaving the
// processes in faulty out as silent nodes.
func buildCluster(t *testing.T, n, f int, faulty map[types.ProcessID]bool, seed int64) (*sim.Network, []*Process) {
	t.Helper()
	scheme := sigcrypto.NewHMAC(n, seed)
	net := sim.NewNetwork(n)
	procs := make([]*Process, n)
	for i := 0; i < n; i++ {
		pid := types.ProcessID(i)
		if faulty[pid] {
			net.SetNode(pid, sim.SilentNode{})
			continue
		}
		p, err := NewProcess(n, f, pid, scheme.Signer(pid), scheme.Verifier(), types.Value("pbft-value"), 10*sim.DefaultDelta)
		if err != nil {
			t.Fatal(err)
		}
		procs[i] = p
		net.SetNode(pid, sim.NewMachineNode(p))
	}
	return net, procs
}

func allDecided(procs []*Process) func() bool {
	return func() bool {
		for _, p := range procs {
			if p == nil {
				continue
			}
			if _, ok := p.Decided(); !ok {
				return false
			}
		}
		return true
	}
}

func TestPBFTCommonCaseThreeSteps(t *testing.T) {
	for _, f := range []int{1, 2, 3} {
		n := MinProcesses(f)
		net, procs := buildCluster(t, n, f, nil, 1)
		if _, err := net.Run(10*time.Second, allDecided(procs)); err != nil {
			t.Fatal(err)
		}
		for i, p := range procs {
			d, ok := p.Decided()
			if !ok {
				t.Fatalf("f=%d: %s did not decide", f, types.ProcessID(i))
			}
			if !d.Value.Equal(types.Value("pbft-value")) {
				t.Fatalf("f=%d: %s decided %s", f, types.ProcessID(i), d.Value)
			}
			steps, _ := net.DecisionSteps(types.ProcessID(i))
			if steps != 3 {
				t.Fatalf("f=%d: expected 3-step decision, got %d", f, steps)
			}
		}
	}
}

func TestPBFTToleratesFSilentProcesses(t *testing.T) {
	f := 1
	n := MinProcesses(f)
	faulty := map[types.ProcessID]bool{types.ProcessID(n - 1): true}
	net, procs := buildCluster(t, n, f, faulty, 2)
	if _, err := net.Run(10*time.Second, allDecided(procs)); err != nil {
		t.Fatal(err)
	}
	for i, p := range procs {
		if p == nil {
			continue
		}
		if _, ok := p.Decided(); !ok {
			t.Fatalf("%s did not decide", types.ProcessID(i))
		}
	}
}

func TestPBFTViewChangeAfterLeaderCrash(t *testing.T) {
	f := 1
	n := MinProcesses(f)
	leader := types.Config{N: n}.Leader(1)
	faulty := map[types.ProcessID]bool{leader: true}
	net, procs := buildCluster(t, n, f, faulty, 3)
	if _, err := net.Run(time.Minute, allDecided(procs)); err != nil {
		t.Fatal(err)
	}
	var ref types.Value
	for i, p := range procs {
		if p == nil {
			continue
		}
		d, ok := p.Decided()
		if !ok {
			t.Fatalf("%s did not decide after leader crash", types.ProcessID(i))
		}
		if d.View < 2 {
			t.Fatalf("%s decided in view %s, want ≥ 2", types.ProcessID(i), d.View)
		}
		if ref == nil {
			ref = d.Value
		} else if !ref.Equal(d.Value) {
			t.Fatalf("disagreement: %s vs %s", ref, d.Value)
		}
	}
}

func TestPBFTRejectsTooFewProcesses(t *testing.T) {
	scheme := sigcrypto.NewHMAC(3, 1)
	if _, err := NewReplica(3, 1, 0, scheme.Signer(0), scheme.Verifier(), nil); err == nil {
		t.Fatal("expected error for n=3, f=1")
	}
}
