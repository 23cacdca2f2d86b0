package byz

import (
	"fmt"
	"sync"
	"testing"
	"time"

	"repro/internal/msg"
	"repro/internal/obs"
	"repro/internal/quorum"
	"repro/internal/sim"
	"repro/internal/smr"
	"repro/internal/types"
)

// The eight end-to-end adversary scenarios of docs/THREAT_MODEL.md. Each
// runs the full SMR stack — pipelined windows, view synchronization,
// sessions/replies, and (where relevant) checkpointing, state transfer,
// and durable recovery — against one adversarial replica driver (two, for
// the withheld certificate), under
// both resilience shapes, and asserts both halves of the paper's claim:
// safety (no divergent confirmed replies, byte-identical application
// state) and liveness (the view change recovers the attacked slots and
// the cluster keeps executing client commands).

// TestByzEquivocatingLeaderSMR: the corrupted leader of slot 0's view 1
// proposes value A to one group of correct replicas and value B to the
// rest, then goes silent. The split keeps both branches below the commit
// quorum, so view 1 cannot decide; the view change's vote selection must
// converge every correct replica on the same branch. It runs against group
// 0 and against group 1, whose leader schedule is shifted by one: there the
// corrupted view-1 leader is process 2, and the vote-validity and
// selection-culprit checks must attribute the equivocation to it.
func TestByzEquivocatingLeaderSMR(t *testing.T) {
	for _, tc := range byzConfigs {
		for group := uint64(0); group < 2; group++ {
			t.Run(fmt.Sprintf("%s-group%d", tc.name, group), func(t *testing.T) {
				equivocatingLeaderScenario(t, tc.cfg, group)
			})
		}
	}
}

func equivocatingLeaderScenario(t *testing.T, cfg types.Config, group uint64) {
	byzID := types.ProcessID(1 + group) // leader of view 1 of every slot of the group
	correct := correctPeers(cfg, byzID)

	valueA, keyA := kvBatch(group, "byz-a", 1)
	valueB, _ := kvBatch(group, "byz-b", 1)
	groupA := make(map[types.ProcessID]bool)
	th := newByzCluster(t, cfg, byzID, 901, clusterOpts{
		group:    group,
		behavior: &SlotEquivocator{Slot: 0, ValueA: valueA, ValueB: valueB, GroupA: groupA},
	})
	if got := th.drv.Cluster().Leader(1); got != byzID {
		t.Fatalf("driver's leader map for group %d puts view 1 under %s, want %s", group, got, byzID)
	}
	// Split so that neither branch can decide in view 1 (both below
	// the commit and fast quorums) while exactly one branch — A —
	// meets the selection quorum in the view change.
	nA := th.th.CommitQuorum() - 1
	for _, p := range correct[:nA] {
		groupA[p] = true
	}
	nB := len(correct) - nA
	if nA >= th.th.FastQuorum() || nA < th.th.SelectionQuorum() || nB >= th.th.SelectionQuorum() {
		t.Fatalf("bad split for n=%d: |A|=%d |B|=%d (fast=%d commit=%d selection=%d)",
			cfg.N, nA, nB, th.th.FastQuorum(), th.th.CommitQuorum(), th.th.SelectionQuorum())
	}

	keyC0 := th.submit("c0", 1) // triggers the equivocation

	th.run(30*time.Second, func() bool {
		return th.allCorrect(func(_ types.ProcessID, r *smr.Replica) bool {
			_, ok := r.Decided(0)
			return ok
		})
	}, "every correct replica to decide slot 0 after the view change")

	th.eachCorrect(func(p types.ProcessID, r *smr.Replica) {
		d, _ := r.Decided(0)
		if !d.Value.Equal(valueA) {
			t.Fatalf("replica %s decided slot 0 with the minority branch (%d bytes)", p, len(d.Value))
		}
		if d.View < 2 {
			t.Fatalf("replica %s decided slot 0 in view %d; the equivocated view must not decide", p, d.View)
		}
	})

	// Liveness: the displaced client command and a fresh one both
	// execute on every correct replica.
	keyC1 := th.submit("c1", 1)
	th.run(30*time.Second, func() bool {
		return th.allCorrect(func(p types.ProcessID, _ *smr.Replica) bool {
			_, okA := th.stores[p].Get(keyA)
			_, ok0 := th.stores[p].Get(keyC0)
			_, ok1 := th.stores[p].Get(keyC1)
			return okA && ok0 && ok1
		})
	}, "the selected branch and both client commands to apply everywhere")

	th.assertReplySafety("c0/1", "c1/1")
	th.assertStoresEqual()
}

// TestByzGarbageProposerSMR: the corrupted leader drives the first two log
// slots to decide a non-batch value, then goes silent. The malformed
// decisions must be counted and skipped without stalling the in-order apply
// loop, and the client commands the garbage crowded out must still execute:
// with leader-driven window fill the correct replicas never speculatively
// proposed them, so they ride the windowed view change — the regime timer
// suspects the silent leader and the view-change leader grafts the stranded
// commands onto its proposals.
func TestByzGarbageProposerSMR(t *testing.T) {
	const garbageSlots = 2
	for _, tc := range byzConfigs {
		t.Run(tc.name, func(t *testing.T) {
			cfg := tc.cfg
			byzID := types.ProcessID(1)
			th := newByzCluster(t, cfg, byzID, 902, clusterOpts{
				behavior: &GarbageProposer{Slots: garbageSlots},
			})

			keyC0 := th.submit("c0", 1) // triggers the garbage proposals

			th.run(30*time.Second, func() bool {
				return th.allCorrect(func(p types.ProcessID, _ *smr.Replica) bool {
					_, ok := th.stores[p].Get(keyC0)
					return ok && th.counter(p, "fastbft_malformed_batches_total") == garbageSlots
				})
			}, "garbage slots to be counted and the displaced command to apply")

			th.eachCorrect(func(p types.ProcessID, r *smr.Replica) {
				for s := uint64(0); s < garbageSlots; s++ {
					d, ok := r.Decided(s)
					if !ok || !d.Value.Equal(GarbageBatch) {
						t.Fatalf("replica %s: slot %d should have decided the garbage value", p, s)
					}
				}
				if n := r.AppliedCount(); n < garbageSlots+1 {
					t.Fatalf("replica %s: apply frontier %d stalled behind the garbage slots", p, n)
				}
				if th.counter(p, "fastbft_commands_applied_total") == 0 {
					t.Fatalf("replica %s: no commands applied", p)
				}
				// The slot that carried the stranded command could not have
				// been proposed by the silent view-1 leader: it must have
				// decided through the windowed view change.
				if d, ok := r.Decided(garbageSlots); ok && d.View < 2 {
					t.Fatalf("replica %s: slot %d decided in view %d; the silent leader cannot have proposed it",
						p, garbageSlots, d.View)
				}
			})

			// Liveness: the cluster keeps deciding past the garbage prefix.
			keyC1 := th.submit("c1", 1)
			th.run(30*time.Second, func() bool {
				return th.allCorrect(func(p types.ProcessID, _ *smr.Replica) bool {
					_, ok := th.stores[p].Get(keyC1)
					return ok
				})
			}, "a post-attack command to apply everywhere")

			th.assertReplySafety("c0/1", "c1/1")
			th.assertStoresEqual()
		})
	}
}

// TestByzCommitCertReplaySMR: a corrupted non-leader harvests the commit
// certificate of a decided slot from the Commit broadcasts any process
// receives, and replays it inside another slot's envelope. Slot-salted
// signatures must make the certificate worthless outside its own slot: no
// correct replica may decide the target slot with the replayed value.
func TestByzCommitCertReplaySMR(t *testing.T) {
	for _, tc := range byzConfigs {
		t.Run(tc.name, func(t *testing.T) {
			cfg := tc.cfg
			byzID := types.ProcessID(cfg.N - 1) // non-leader: the honest leader keeps deciding
			replayer := &CertReplayer{}
			th := newByzCluster(t, cfg, byzID, 903, clusterOpts{behavior: replayer})

			keyC0 := th.submit("c0", 1)
			th.run(30*time.Second, func() bool {
				_, ok := replayer.Harvested()
				return ok
			}, "the adversary to harvest a commit certificate")
			src, _ := replayer.Harvested()
			srcDecision, ok := th.reps[0].Decided(src)
			if !ok {
				t.Fatalf("slot %d produced a commit certificate but replica 0 has no decision", src)
			}

			const target = 5 // idle slot inside the live window
			if !replayer.Replay(th.drv, src, target) {
				t.Fatal("replay found no certificate")
			}
			th.settle()

			// Safety: the replayed certificate must not decide the target
			// slot — not now, not after the view change resolves it.
			checkTarget := func() {
				th.eachCorrect(func(p types.ProcessID, r *smr.Replica) {
					if d, decided := r.Decided(target); decided && d.Value.Equal(srcDecision.Value) {
						t.Fatalf("replica %s decided slot %d with slot %d's replayed certificate value", p, target, src)
					}
				})
			}
			checkTarget()

			// Liveness: replication continues undisturbed.
			keyC1 := th.submit("c1", 1)
			th.run(30*time.Second, func() bool {
				return th.allCorrect(func(p types.ProcessID, _ *smr.Replica) bool {
					_, ok0 := th.stores[p].Get(keyC0)
					_, ok1 := th.stores[p].Get(keyC1)
					return ok0 && ok1
				})
			}, "post-replay commands to apply everywhere")
			checkTarget()

			th.assertReplySafety("c0/1", "c1/1")
			th.assertStoresEqual()
		})
	}
}

// TestByzStaleSnapshotServerSMR: a recovering replica is lured into
// fetching state from the corrupted process, which serves every poisoned
// response shape — forged certificate, digest-mismatched snapshot bytes,
// digest-mismatched chunked snapshot, a forged tail value only it reports,
// and finally a genuine but stale snapshot recorded from a correct peer.
// The victim must reject all poison, accept only verifiable (stale)
// progress, and still reach the frontier via the round-robin fetch retry
// and fresh lag evidence.
func TestByzStaleSnapshotServerSMR(t *testing.T) {
	const interval = 4
	for _, tc := range byzConfigs {
		t.Run(tc.name, func(t *testing.T) {
			cfg := tc.cfg
			byzID := types.ProcessID(cfg.N - 1)
			victim := types.ProcessID(cfg.N - 2)
			ps := &StaleSnapshotServer{Victim: victim}
			th := newByzCluster(t, cfg, byzID, 904, clusterOpts{behavior: ps, interval: interval})

			// Build enough history for two stable checkpoints plus a tail.
			var keys []string
			for seq := uint64(1); seq <= 10; seq++ {
				keys = append(keys, th.submit("c0", seq))
			}
			th.run(30*time.Second, func() bool {
				return th.allCorrect(func(p types.ProcessID, _ *smr.Replica) bool {
					return th.stores[p].AppliedOps() >= 10
				})
			}, "the pre-crash workload to apply")

			// The adversary records a genuine response now; later history
			// will make it stale.
			ps.Harvest(th.drv, 0)
			th.run(10*time.Second, func() bool { return ps.Stale() }, "the adversary to harvest a genuine snapshot")
			if ps.StaleTailLen() == 0 {
				t.Fatal("harvested response carries no tail decisions; the forged-tail vector is dead")
			}
			for seq := uint64(11); seq <= 14; seq++ {
				keys = append(keys, th.submit("c0", seq))
			}
			th.run(30*time.Second, func() bool {
				return th.allCorrect(func(p types.ProcessID, _ *smr.Replica) bool {
					return th.stores[p].AppliedOps() >= 14
				})
			}, "the harvested snapshot to become stale")

			// Crash the victim and bring it back empty: state transfer is
			// its only way home, and the adversary gets the first fetch.
			th.crash(victim)
			th.reboot(victim)
			frontier := th.reps[0].AppliedCount()
			ps.Lure(th.drv, frontier+interval)

			th.run(10*time.Second, func() bool {
				return ps.PoisonServed() >= 1 && th.reps[victim].AppliedCount() > 0
			}, "the victim to fetch from the adversary and accept only the stale part")
			if d, ok := th.reps[victim].Decided(ps.ForgedSlot()); ok && d.Value.Equal(GarbageBatch) {
				t.Fatalf("victim decided slot %d on one responder's forged tail", ps.ForgedSlot())
			}
			victimAt := th.reps[victim].AppliedCount()
			if victimAt >= frontier {
				t.Fatalf("victim at %d is not behind the frontier %d: the stale response was not stale", victimAt, frontier)
			}
			// The progress it accepted is the genuine stale state: every
			// write applied before the harvest, none lost to a poisoned
			// snapshot installed in its place.
			for _, k := range keys[:10] {
				if _, ok := th.stores[victim].Get(k); !ok {
					t.Fatalf("victim at %d lacks pre-harvest key %s: it installed a snapshot other than the certified one", victimAt, k)
				}
			}

			// Liveness: fresh traffic and the fetch retry carry the victim
			// past the forged evidence to the true frontier.
			for seq := uint64(15); seq <= 22; seq++ {
				keys = append(keys, th.submit("c0", seq))
			}
			th.run(60*time.Second, func() bool {
				return th.allCorrect(func(p types.ProcessID, _ *smr.Replica) bool {
					return th.stores[p].AppliedOps() >= 22
				})
			}, "the victim to escape the stale server and reach the frontier")

			for _, k := range keys {
				if _, ok := th.stores[victim].Get(k); !ok {
					t.Fatalf("victim is missing key %s after catch-up", k)
				}
			}
			th.assertReplySafety()
			th.assertStoresEqual()
		})
	}
}

// TestByzAckEquivocatorRecoverySMR probes the durable recovery re-ack
// guard: the corrupted view-1 leader proposes value A to a single durable
// victim, which acks and persists the vote; after a crash and recovery the
// adversary proposes a conflicting B for the same slot and view. The
// recovered victim must stay silent on B — its pre-crash ack is binding —
// while still re-acking an identical re-proposal of A, and the view change
// must resolve the slot consistently for everyone.
func TestByzAckEquivocatorRecoverySMR(t *testing.T) {
	for _, tc := range byzConfigs {
		t.Run(tc.name, func(t *testing.T) {
			cfg := tc.cfg
			byzID := types.ProcessID(1)
			victim := types.ProcessID(3)
			valueA, _ := kvBatch(0, "byz-a", 1)
			valueB, _ := kvBatch(0, "byz-b", 1)
			ae := &AckEquivocator{Slot: 0, Victim: victim, ValueA: valueA, ValueB: valueB}
			th := newByzCluster(t, cfg, byzID, 905, clusterOpts{
				behavior: ae,
				dirs:     map[types.ProcessID]string{victim: t.TempDir()},
			})

			// Tap the network: count the victim's view-1 acks per value.
			// The tap observes every send without touching it (the zero
			// Fate is the lockstep delivery), so the "never happened" half
			// of the claim is a real negative, not an artifact of filtering.
			// The durable victim sends from its store's goroutine, hence
			// the lock.
			var tapMu sync.Mutex
			acksA, acksB := 0, 0
			th.net.SetPayloadFunc(func(from, _ types.ProcessID, payload []byte, _ sim.Time) (fate sim.Fate) {
				if from != victim {
					return
				}
				_, s, m, ok := smr.OpenEnvelope(payload)
				if !ok || s != 0 {
					return
				}
				var x types.Value
				switch a := m.(type) {
				case *msg.Ack:
					x = a.X
				case *msg.AckSig:
					x = a.X
				default:
					return
				}
				tapMu.Lock()
				defer tapMu.Unlock()
				if x.Equal(valueA) {
					acksA++
				}
				if x.Equal(valueB) {
					acksB++
				}
				return
			})
			ackedA := func() int { tapMu.Lock(); defer tapMu.Unlock(); return acksA }
			ackedB := func() int { tapMu.Lock(); defer tapMu.Unlock(); return acksB }

			ae.ProposeFirst(th.drv)
			th.run(10*time.Second, func() bool { return ackedA() > 0 }, "the victim to ack the pre-crash proposal")
			preCrash := ackedA()

			// Crash and recover the victim from its data directory.
			th.crash(victim)
			th.reboot(victim)

			// The conflicting proposal first — the recovered replica must
			// hold to its persisted ack, not to this incarnation's "have I
			// acked yet" flag, which the restart reset.
			ae.ProposeConflict(th.drv)
			th.settle()
			if n := ackedB(); n != 0 {
				t.Fatalf("recovered victim acked the conflicting value %d times: crash-induced equivocation", n)
			}
			// An identical re-proposal must still be re-acked: the guard is
			// selective silence, not deafness.
			ae.ProposeFirst(th.drv)
			th.run(10*time.Second, func() bool { return ackedA() > preCrash }, "the recovered victim to re-ack its persisted value")
			if n := ackedB(); n != 0 {
				t.Fatalf("victim acked the conflicting value %d times after the re-ack", n)
			}

			// Liveness: the half-acked slot resolves through the view
			// change and client traffic flows. Slot 0 must decide the same
			// value everywhere, and never B (only the victim ever acked
			// anything, so B has no quorum anywhere to hide in).
			keyC0 := th.submit("c0", 1)
			th.run(30*time.Second, func() bool {
				return th.allCorrect(func(p types.ProcessID, r *smr.Replica) bool {
					_, dec := r.Decided(0)
					_, ok := th.stores[p].Get(keyC0)
					return dec && ok
				})
			}, "slot 0 to resolve and client traffic to flow")

			var ref types.Decision
			var have bool
			th.eachCorrect(func(p types.ProcessID, r *smr.Replica) {
				d, _ := r.Decided(0)
				if d.Value.Equal(valueB) {
					t.Fatalf("replica %s decided slot 0 with the conflicting post-crash value", p)
				}
				if d.View < 2 {
					t.Fatalf("replica %s decided slot 0 in view %d; the attacked view must not decide", p, d.View)
				}
				if !have {
					ref, have = d, true
				} else if !ref.Value.Equal(d.Value) {
					t.Fatalf("replica %s decided slot 0 differently from its peers", p)
				}
			})

			th.assertReplySafety("c0/1")
			th.assertStoresEqual()
		})
	}
}

// TestByzWithheldCommitCertSMR: one valid commit certificate is not a
// decision. The corrupted view-1 leader and a colluder form a commit
// certificate for X in view 1 and keep it, and view 2 decides Y (see
// CertWithholder; one X-voter's view-2 vote is held back so that the new
// leader's n − f votes hold f + t votes for Y). A crashed and restarted
// replica is then lured to fetch state from the pair, and both members
// serve it X for the slot. That claim comes from f responders, so it must
// not decide the slot: the victim must end with the same store as its
// peers, which decided Y.
func TestByzWithheldCommitCertSMR(t *testing.T) {
	for _, tc := range byzConfigs {
		t.Run(tc.name, func(t *testing.T) {
			cfg := tc.cfg
			leader1, colluder := types.ProcessID(1), types.ProcessID(cfg.N-1)
			var correct []types.ProcessID
			for i := 0; i < cfg.N; i++ {
				if p := types.ProcessID(i); p != leader1 && p != colluder {
					correct = append(correct, p)
				}
			}
			// X goes to CommitQuorum − 2 correct processes from 2 upward,
			// whose ack signatures and the pair's complete the certificate;
			// Y goes to 0 and the rest.
			nX := quorum.New(cfg).CommitQuorum() - 2
			groupX := make(map[types.ProcessID]bool)
			for _, p := range correct[1 : 1+nX] {
				groupX[p] = true
			}
			late := correct[nX]               // the X-voter whose view-2 vote is held back
			victim := correct[len(correct)-1] // a Y-voter, later crashed
			x, _ := kvBatch(0, "byz-x", 1)
			y, _ := kvBatch(0, "byz-y", 1)
			w := &CertWithholder{Slot: 0, X: x, Y: y, GroupX: groupX, Victim: victim}
			th := newByzCluster(t, cfg, leader1, 906, clusterOpts{
				behavior: w, colluder: colluder, behavior2: w,
			})
			newLeader := th.drv.Cluster().Leader(2)
			th.net.SetPayloadFunc(func(from, to types.ProcessID, payload []byte, _ sim.Time) (fate sim.Fate) {
				if from != late || to != newLeader {
					return
				}
				if _, s, m, ok := smr.OpenEnvelope(payload); ok && s == 0 {
					if v, isVote := m.(*msg.Vote); isVote && v.View == 2 {
						fate.Delay = 10 * time.Millisecond
					}
				}
				return
			})

			keyC0 := th.submit("c0", 1) // triggers the equivocation
			th.run(30*time.Second, func() bool {
				return th.allCorrect(func(p types.ProcessID, r *smr.Replica) bool {
					_, dec := r.Decided(0)
					_, ok := th.stores[p].Get(keyC0)
					return dec && ok
				})
			}, "slot 0 to decide and the client command to apply")
			th.net.SetPayloadFunc(nil)

			// The world of the attack: a certificate for X in view 1 that
			// verifies, and Y decided by every correct replica in view 2.
			cc := w.Cert()
			if cc == nil || !cc.Verify(smr.SlotVerifier(th.scheme.Verifier(), 0, 0), th.th) {
				t.Fatal("the pair holds no verifying commit certificate for X in view 1")
			}
			th.eachCorrect(func(p types.ProcessID, r *smr.Replica) {
				if d, _ := r.Decided(0); !d.Value.Equal(y) || d.View != 2 {
					t.Fatalf("replica %s decided slot 0 in view %d, not Y in view 2: the schedule missed the world of the attack", p, d.View)
				}
			})

			// Crash the victim and bring it back empty; the pair lures its
			// first fetch and serves it X for slot 0.
			frontier := th.reps[0].AppliedCount()
			th.crash(victim)
			th.reboot(victim)
			w.Lure(th.drv, frontier+1000)
			th.run(10*time.Second, func() bool { return w.Served() > 0 }, "the victim to fetch from the pair")
			th.run(60*time.Second, func() bool {
				return th.reps[victim].AppliedCount() >= frontier
			}, "the victim to catch up")

			// Liveness: a fresh command applies everywhere, victim included.
			keyC1 := th.submit("c1", 1)
			th.run(30*time.Second, func() bool {
				return th.allCorrect(func(p types.ProcessID, _ *smr.Replica) bool {
					_, ok := th.stores[p].Get(keyC1)
					return ok
				})
			}, "a post-attack command to apply everywhere")

			th.assertReplySafety("c0/1", "c1/1")
			th.assertStoresEqual()
		})
	}
}

// TestByzSlotSquatterSMR: a corrupted follower answers every view-1 Propose
// of the leader with junk Acks for every later slot of the window, so each
// slot the leader fills next has already been opened by the junk. The
// leader feeds those slots like any other: 40 sequential writes apply on
// every correct replica in view 1, no correct replica's regime timer
// suspects the leader, and the stores stay byte-identical. When the fill
// skipped a slot a peer had opened, every write after the first waited for
// a view change.
func TestByzSlotSquatterSMR(t *testing.T) {
	const writes = 40
	for _, tc := range byzConfigs {
		t.Run(tc.name, func(t *testing.T) {
			squatter := &SlotSquatter{}
			th := newByzCluster(t, tc.cfg, 0, 907, clusterOpts{behavior: squatter})
			confirmed := make([]string, 0, writes)
			for seq := uint64(1); seq <= writes; seq++ {
				key := th.submit("c", seq)
				confirmed = append(confirmed, fmt.Sprintf("c/%d", seq))
				th.run(30*time.Second, func() bool {
					return th.allCorrect(func(p types.ProcessID, _ *smr.Replica) bool {
						_, ok := th.stores[p].Get(key)
						return ok
					})
				}, "a write to apply everywhere")
			}
			if squatter.Sent() == 0 {
				t.Fatal("the squatter sent no junk Ack: the test exercises nothing")
			}
			th.eachCorrect(func(p types.ProcessID, _ *smr.Replica) {
				if n := th.counter(p, "fastbft_regime_timeouts_total"); n != 0 {
					t.Errorf("replica %s suspected the leader %v times", p, n)
				}
				if n := th.counter(p, "fastbft_view_changes_total"); n != 0 {
					t.Errorf("replica %s changed view %v times", p, n)
				}
			})
			th.assertReplySafety(confirmed...)
			th.assertStoresEqual()
		})
	}
}

// TestByzJunkAckerSMR: a corrupted follower answers every view-1 Propose of
// the leader, for slot s, with 4096 junk Acks for slot s+1, each for a
// distinct value, which reach the leader before its proposal there. 20
// sequential writes apply on every correct replica, the leader decides every
// slot fast, no correct replica suspects the leader or changes view, and the
// stores stay byte-identical. When the leader tallied Acks per (view,
// value), in at most 4096 pairs per instance, the junk left no pair for the
// real value, and no flooded slot decided fast at the leader.
func TestByzJunkAckerSMR(t *testing.T) {
	const writes = 20
	for _, tc := range byzConfigs {
		t.Run(tc.name, func(t *testing.T) {
			flooder := &JunkAcker{}
			th := newByzCluster(t, tc.cfg, 0, 908, clusterOpts{behavior: flooder})
			confirmed := make([]string, 0, writes)
			for seq := uint64(1); seq <= writes; seq++ {
				key := th.submit("c", seq)
				confirmed = append(confirmed, fmt.Sprintf("c/%d", seq))
				th.run(30*time.Second, func() bool {
					return th.allCorrect(func(p types.ProcessID, _ *smr.Replica) bool {
						_, ok := th.stores[p].Get(key)
						return ok
					})
				}, "a write to apply everywhere")
			}
			if flooder.Sent() < (writes-1)*junkAckFlood {
				t.Fatalf("the flooder sent %d junk Acks, want at least %d", flooder.Sent(), (writes-1)*junkAckFlood)
			}
			leader := tc.cfg.Leader(1)
			if n := th.regs[leader].Snapshot().Sum("fastbft_decided_path_total", obs.Labels{"path": "fast"}); n != writes {
				t.Errorf("the leader decided %v of %d slots fast", n, writes)
			}
			th.eachCorrect(func(p types.ProcessID, _ *smr.Replica) {
				if n := th.counter(p, "fastbft_regime_timeouts_total"); n != 0 {
					t.Errorf("replica %s suspected the leader %v times", p, n)
				}
				if n := th.counter(p, "fastbft_view_changes_total"); n != 0 {
					t.Errorf("replica %s changed view %v times", p, n)
				}
			})
			th.assertReplySafety(confirmed...)
			th.assertStoresEqual()
		})
	}
}
