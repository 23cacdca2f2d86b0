package pbft

import (
	"testing"
	"time"

	"repro/internal/core"
	"repro/internal/sigcrypto"
	"repro/internal/sim"
	"repro/internal/types"
)

// buildCluster hosts n PBFT processes on a simulated network, leaving the
// processes in faulty out as silent ones.
func buildCluster(t *testing.T, n, f int, faulty []types.ProcessID, seed int64) *sim.Cluster {
	t.Helper()
	silent := make(map[types.ProcessID]core.Machine, len(faulty))
	for _, p := range faulty {
		silent[p] = nil
	}
	c, err := sim.NewCluster(sim.ClusterConfig{
		Cfg:    types.Config{N: n, F: f},
		Seed:   seed,
		Faulty: silent,
		Machine: func(p types.ProcessID, keys sigcrypto.Scheme) (core.Machine, error) {
			return NewProcess(n, f, p, keys.Signer(p), keys.Verifier(), types.Value("pbft-value"), 10*sim.DefaultDelta)
		},
	})
	if err != nil {
		t.Fatal(err)
	}
	return c
}

func TestPBFTCommonCaseThreeSteps(t *testing.T) {
	for _, f := range []int{1, 2, 3} {
		n := MinProcesses(f)
		c := buildCluster(t, n, f, nil, 1)
		if _, err := c.Run(10 * time.Second); err != nil {
			t.Fatal(err)
		}
		for _, pid := range c.CorrectIDs() {
			d, _, ok := c.Decision(pid)
			if !ok {
				t.Fatalf("f=%d: %s did not decide", f, pid)
			}
			if !d.Value.Equal(types.Value("pbft-value")) {
				t.Fatalf("f=%d: %s decided %s", f, pid, d.Value)
			}
			steps, _ := c.DecisionSteps(pid)
			if steps != 3 {
				t.Fatalf("f=%d: expected 3-step decision, got %d", f, steps)
			}
		}
	}
}

func TestPBFTToleratesFSilentProcesses(t *testing.T) {
	f := 1
	n := MinProcesses(f)
	c := buildCluster(t, n, f, []types.ProcessID{types.ProcessID(n - 1)}, 2)
	if _, err := c.Run(10 * time.Second); err != nil {
		t.Fatal(err)
	}
	if err := c.CheckAgreement(true); err != nil {
		t.Fatal(err)
	}
}

func TestPBFTViewChangeAfterLeaderCrash(t *testing.T) {
	f := 1
	n := MinProcesses(f)
	leader := types.Config{N: n}.Leader(1)
	c := buildCluster(t, n, f, []types.ProcessID{leader}, 3)
	if _, err := c.Run(time.Minute); err != nil {
		t.Fatal(err)
	}
	if err := c.CheckAgreement(true); err != nil {
		t.Fatalf("after leader crash: %v", err)
	}
	for _, pid := range c.CorrectIDs() {
		if d, _, _ := c.Decision(pid); d.View < 2 {
			t.Fatalf("%s decided in view %s, want ≥ 2", pid, d.View)
		}
	}
}

func TestPBFTRejectsTooFewProcesses(t *testing.T) {
	scheme := sigcrypto.NewHMAC(3, 1)
	if _, err := NewReplica(3, 1, 0, scheme.Signer(0), scheme.Verifier(), nil); err == nil {
		t.Fatal("expected error for n=3, f=1")
	}
}
