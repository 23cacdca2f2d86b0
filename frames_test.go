package fastbft

import (
	"fmt"
	"strconv"
	"testing"
	"time"

	"repro/internal/obs"
)

// TestDeploymentClientFrames counts the client channel's frames on the
// deployment path: n = 4 replicas over loopback TCP with Ed25519 keys, two
// networked sessions in a closed loop. A session's first request goes to
// every replica and each later one to the leader alone, and every replica
// answers every request over the route the first one bound. So, read from
// the replicas' registries:
//
//   - client request frames = ops + (n − 1) × sessions, exactly (a
//     retransmission round would add n);
//   - relay frames ≤ (n − 1) × sessions (only first requests reach
//     followers, and each relays at most once);
//   - 0 retransmission rounds: the loop finishes inside one 30 s round;
//   - replies sent ≥ 95 % of ops at every replica. A follower that applies
//     the leader's batch before the client's copy of a first request
//     arrives must still bind the session's route, or it stays silent.
func TestDeploymentClientFrames(t *testing.T) {
	cfg := GeneralizedConfig(1, 1) // n = 4
	keys := GenerateTestKeys(cfg.N, 41)
	reps, clientAddrs := bootShardedCluster(t, cfg, keys, 1)
	defer func() {
		for _, r := range reps {
			_ = r.Close()
		}
	}()

	type counts struct{ in, out, replies float64 }
	read := func() []counts {
		cs := make([]counts, len(reps))
		for i, r := range reps {
			snap := r.Metrics().Snapshot()
			id := strconv.Itoa(i)
			cs[i] = counts{
				in:      snap.Sum("fastbft_messages_in_total", obs.Labels{"replica": id, "kind": "request"}),
				out:     snap.Sum("fastbft_messages_out_total", obs.Labels{"replica": id, "kind": "request"}),
				replies: snap.Sum("fastbft_messages_out_total", obs.Labels{"replica": id, "kind": "reply"}),
			}
		}
		return cs
	}
	before := read()

	const sessions, ops = 2, 200
	const timeout = 30 * time.Second
	start := time.Now()
	done := make(chan error, sessions)
	for s := 0; s < sessions; s++ {
		cl, err := NewKVNetworkClient(fmt.Sprintf("frames-%d", s), timeout, cfg, keys, clientAddrs)
		if err != nil {
			t.Fatal(err)
		}
		defer func() { _ = cl.Close() }()
		go func(s int, cl *KVClient) {
			for i := 0; i < ops/sessions; i++ {
				key, want := fmt.Sprintf("s%d-k%d", s, i), fmt.Sprintf("v%d", i)
				if got, err := cl.Set(key, want); err != nil || got != want {
					done <- fmt.Errorf("session %d write %d: got %q, err %v", s, i, got, err)
					return
				}
			}
			done <- nil
		}(s, cl)
	}
	for s := 0; s < sessions; s++ {
		if err := <-done; err != nil {
			t.Fatal(err)
		}
	}
	if took := time.Since(start); took >= timeout {
		t.Fatalf("%d ops took %v, a client round: some request was retransmitted", ops, took)
	}

	// Every replica applies every write, and with it sends its replies and
	// has received the relays of the first requests.
	wantFrames := float64(ops + (cfg.N-1)*sessions)
	var clientFrames, relays float64
	var after []counts
	for deadline := time.Now().Add(30 * time.Second); ; time.Sleep(5 * time.Millisecond) {
		applied := true
		for _, r := range reps {
			applied = applied && r.AppliedOps() == ops
		}
		after = read()
		clientFrames, relays = 0, 0
		for i := range after {
			clientFrames += (after[i].in - before[i].in) - (after[i].out - before[i].out)
			relays += after[i].out - before[i].out
		}
		if applied && clientFrames >= wantFrames {
			break
		}
		if time.Now().After(deadline) {
			t.Fatalf("no quiescence: applied ops %d/%d/%d/%d, %v client request frames",
				reps[0].AppliedOps(), reps[1].AppliedOps(), reps[2].AppliedOps(), reps[3].AppliedOps(), clientFrames)
		}
	}
	replies := make([]float64, len(after))
	for i := range after {
		replies[i] = after[i].replies - before[i].replies
	}
	t.Logf("ops %d sessions %d: client request frames %v relays %v replies per replica %v",
		ops, sessions, clientFrames, relays, replies)
	if clientFrames != wantFrames {
		t.Fatalf("%v client request frames, want ops + (n-1)·sessions = %v", clientFrames, wantFrames)
	}
	if limit := float64((cfg.N - 1) * sessions); relays > limit {
		t.Fatalf("%v relay frames, want at most (n-1)·sessions = %v", relays, limit)
	}
	for i, n := range replies {
		if n < 0.95*ops {
			t.Fatalf("replica %d sent %v replies for %d ops, want at least 95 %%", i, n, ops)
		}
	}
}
