package fab

import (
	"testing"
	"time"

	"repro/internal/core"
	"repro/internal/sigcrypto"
	"repro/internal/sim"
	"repro/internal/types"
)

// buildCluster hosts n FaB replicas on a simulated network, leaving the
// processes in faulty out as silent ones.
func buildCluster(t *testing.T, n, f, tt int, faulty []types.ProcessID, seed int64) *sim.Cluster {
	t.Helper()
	silent := make(map[types.ProcessID]core.Machine, len(faulty))
	for _, p := range faulty {
		silent[p] = nil
	}
	c, err := sim.NewCluster(sim.ClusterConfig{
		Cfg:    types.Config{N: n, F: f, T: tt},
		Seed:   seed,
		Faulty: silent,
		Machine: func(p types.ProcessID, keys sigcrypto.Scheme) (core.Machine, error) {
			return NewReplica(n, f, tt, p, keys.Signer(p), keys.Verifier(), types.Value("fab-value"))
		},
	})
	if err != nil {
		t.Fatal(err)
	}
	return c
}

func TestFaBCommonCaseTwoSteps(t *testing.T) {
	for _, p := range []struct{ f, t int }{{1, 1}, {2, 1}, {2, 2}, {3, 3}} {
		n := MinProcesses(p.f, p.t)
		c := buildCluster(t, n, p.f, p.t, nil, 1)
		if _, err := c.Run(10 * time.Second); err != nil {
			t.Fatal(err)
		}
		for _, pid := range c.CorrectIDs() {
			steps, ok := c.DecisionSteps(pid)
			if !ok {
				t.Fatalf("f=%d t=%d: %s did not decide", p.f, p.t, pid)
			}
			if steps != 2 {
				t.Fatalf("f=%d t=%d: expected 2-step decision, got %d", p.f, p.t, steps)
			}
		}
	}
}

func TestFaBStaysFastWithTSilentProcesses(t *testing.T) {
	f, tt := 2, 1
	n := MinProcesses(f, tt) // 9
	c := buildCluster(t, n, f, tt, []types.ProcessID{types.ProcessID(n - 1)}, 2)
	if _, err := c.Run(10 * time.Second); err != nil {
		t.Fatal(err)
	}
	for _, pid := range c.CorrectIDs() {
		steps, ok := c.DecisionSteps(pid)
		if !ok {
			t.Fatalf("%s did not decide", pid)
		}
		if steps != 2 {
			t.Fatalf("expected 2 steps with %d silent, got %d", tt, steps)
		}
	}
}

func TestFaBRequiresThreeFPlusTwoTPlusOne(t *testing.T) {
	// The FaB bound: n = 3f+2t+1. One fewer process must be rejected —
	// exactly the gap the reproduced paper closes (its protocol runs on
	// 3f+2t−1).
	scheme := sigcrypto.NewHMAC(5, 1)
	if _, err := NewReplica(5, 1, 1, 0, scheme.Signer(0), scheme.Verifier(), nil); err == nil {
		t.Fatal("expected error for n=5 with f=t=1 (FaB needs 6)")
	}
	if MinProcesses(1, 1) != 6 {
		t.Fatalf("MinProcesses(1,1) = %d, want 6", MinProcesses(1, 1))
	}
	if MinProcesses(2, 2) != 11 {
		t.Fatalf("MinProcesses(2,2) = %d, want 5f+1=11", MinProcesses(2, 2))
	}
}
