package pbft

import (
	"testing"
	"time"

	"repro/internal/core"
	"repro/internal/msg"
	"repro/internal/sigcrypto"
	"repro/internal/sim"
	"repro/internal/types"
)

// buildCluster hosts n PBFT processes on a simulated network, leaving the
// processes in faulty out as silent ones; trace, if set, sees every delivery.
func buildCluster(t *testing.T, n, f int, faulty []types.ProcessID, seed int64, trace func(sim.TraceEvent, msg.Message)) *sim.Cluster {
	t.Helper()
	silent := make(map[types.ProcessID]core.Machine, len(faulty))
	for _, p := range faulty {
		silent[p] = nil
	}
	c, err := sim.NewCluster(sim.ClusterConfig{
		Cfg:    types.Config{N: n, F: f},
		Seed:   seed,
		Faulty: silent,
		Trace:  trace,
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
		c := buildCluster(t, n, f, nil, 1, nil)
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
	c := buildCluster(t, n, f, []types.ProcessID{types.ProcessID(n - 1)}, 2, nil)
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
	c := buildCluster(t, n, f, []types.ProcessID{leader}, 3, nil)
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

// TestPBFTEachViewEnteredOnce: the baseline enters each view once, through
// the view synchronizer, so in every view the leader pre-prepares (in view
// 1) or sends its new-view message (later) at most once, and every process
// prepares at most once — each sender's frames of either kind in a view
// reach at most the n − 1 other processes, and only the view's leader
// pre-prepares. Checked at f = 1 and f = 2, fault-free and with the view-1
// leader silent; and a replica asked to re-enter its view does nothing.
func TestPBFTEachViewEnteredOnce(t *testing.T) {
	type sendKey struct {
		from types.ProcessID
		view types.View
		sub  uint8
	}
	for _, f := range []int{1, 2} {
		n := MinProcesses(f)
		leader := types.Config{N: n}.Leader
		for _, faulty := range [][]types.ProcessID{nil, {leader(1)}} {
			sent := make(map[sendKey]int)
			c := buildCluster(t, n, f, faulty, 4, func(ev sim.TraceEvent, m msg.Message) {
				raw, ok := m.(*msg.Raw)
				if !ok {
					return
				}
				sub := raw.Sub
				if sub == subNewView {
					sub = subPrePrepare // a later view's pre-prepare
				}
				if sub == subPrePrepare || sub == subPrepare {
					sent[sendKey{ev.From, raw.View, sub}]++
				}
			})
			if _, err := c.Run(time.Minute); err != nil {
				t.Fatal(err)
			}
			if err := c.CheckAgreement(true); err != nil {
				t.Fatal(err)
			}
			if len(sent) == 0 {
				t.Fatalf("f=%d faulty=%v: no pre-prepare or prepare traffic", f, faulty)
			}
			for k, count := range sent {
				if k.sub == subPrePrepare && k.from != leader(k.view) {
					t.Errorf("f=%d faulty=%v: %s pre-prepared in view %s, led by %s", f, faulty, k.from, k.view, leader(k.view))
				}
				if count > n-1 {
					t.Errorf("f=%d faulty=%v: %s sent %d frames of subtype %d in view %s, want at most n − 1 = %d",
						f, faulty, k.from, count, k.sub, k.view, n-1)
				}
			}
		}
	}
	scheme := sigcrypto.NewHMAC(4, 5)
	r, err := NewReplica(4, 1, 1, scheme.Signer(1), scheme.Verifier(), types.Value("x"))
	if err != nil {
		t.Fatal(err)
	}
	if len(r.EnterView(1)) == 0 {
		t.Fatal("the view-1 leader did not pre-prepare on entering view 1")
	}
	for _, v := range []types.View{0, 1} {
		if acts := r.EnterView(v); len(acts) != 0 || r.View() != 1 {
			t.Fatalf("re-entering %s from v1: %d actions, now in %s", v, len(acts), r.View())
		}
	}
}

func TestPBFTRejectsTooFewProcesses(t *testing.T) {
	scheme := sigcrypto.NewHMAC(3, 1)
	if _, err := NewReplica(3, 1, 0, scheme.Signer(0), scheme.Verifier(), nil); err == nil {
		t.Fatal("expected error for n=3, f=1")
	}
}
