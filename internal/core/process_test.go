package core_test

import (
	"fmt"
	"testing"
	"time"

	"repro/internal/core"
	"repro/internal/msg"
	"repro/internal/sigcrypto"
	"repro/internal/sim"
	"repro/internal/types"
)

// countingSigner counts the signatures a process makes.
type countingSigner struct {
	sigcrypto.Signer
	signs *int
}

func (s countingSigner) Sign(m []byte) sigcrypto.Signature {
	*s.signs++
	return s.Signer.Sign(m)
}

// sendKey is one sender's traffic of one kind in one view.
type sendKey struct {
	from types.ProcessID
	view types.View
	kind msg.Kind
}

// TestEachViewEnteredOnce pins the paper's per-view message budget (Section
// 3.1): every process enters each view once, through the view synchronizer,
// so leader(v) proposes at most once in view v and every process acks at
// most one proposal per view. On whole clusters — n = 4 and n = 7, leader
// schedule shifted by 0 and 1, fault-free and with the view-1 leader silent
// (so view 2 runs too) — every sender's Propose (only the view's leader
// sends one), Ack and AckSig of a view reach at most the n − 1 other
// processes. A fault-free run signs exactly n + 1 times before any view
// timer could fire: one Propose and n AckSigs. And a replica asked to enter
// its current view or an earlier one does nothing, whoever asks.
func TestEachViewEnteredOnce(t *testing.T) {
	const delta = sim.DefaultDelta
	for _, base := range []types.Config{types.Generalized(1, 1), types.Generalized(2, 1)} {
		for _, shift := range []uint64{0, 1} {
			cfg := base.WithLeaderShift(shift)
			for _, silent := range []bool{false, true} {
				t.Run(fmt.Sprintf("n%d/shift%d/silent-leader=%v", cfg.N, shift, silent), func(t *testing.T) {
					signs := 0
					sent := make(map[sendKey]int)
					cc := sim.ClusterConfig{
						Cfg:  cfg,
						Seed: int64(cfg.N) + int64(shift),
						Machine: func(p types.ProcessID, keys sigcrypto.Scheme) (core.Machine, error) {
							signer := countingSigner{Signer: keys.Signer(p), signs: &signs}
							return core.NewProcess(cfg, p, signer, keys.Verifier(), types.Value(fmt.Sprintf("in-%d", p)), 10*delta)
						},
						Trace: func(ev sim.TraceEvent, m msg.Message) {
							switch m.Kind() {
							case msg.KindPropose, msg.KindAck, msg.KindAckSig:
								sent[sendKey{ev.From, m.InView(), m.Kind()}]++
							}
						},
					}
					limit := 10*delta - 1 // before the view-1 timer fires
					if silent {
						cc.Faulty = map[types.ProcessID]core.Machine{cfg.Leader(1): nil}
						limit = time.Minute
					}
					c, err := sim.NewCluster(cc)
					if err != nil {
						t.Fatal(err)
					}
					if _, err := c.Run(limit); err != nil {
						t.Fatal(err)
					}
					if err := c.CheckAgreement(true); err != nil {
						t.Fatal(err)
					}
					views := map[types.View]bool{}
					for k, count := range sent {
						views[k.view] = true
						if k.kind == msg.KindPropose && k.from != cfg.Leader(k.view) {
							t.Errorf("%s sent a %s of view %s, led by %s", k.from, k.kind, k.view, cfg.Leader(k.view))
						}
						if count > cfg.N-1 {
							t.Errorf("%s sent %d %s frames in view %s, want at most n − 1 = %d", k.from, count, k.kind, k.view, cfg.N-1)
						}
					}
					busiest := types.View(1)
					if silent {
						busiest = 2
					}
					if !views[busiest] {
						t.Fatalf("no proposal traffic in view %s", busiest)
					}
					if !silent && signs != cfg.N+1 {
						t.Errorf("%d signatures before the first view timer, want n + 1 = %d (one Propose, n AckSigs)", signs, cfg.N+1)
					}
					for _, p := range c.CorrectIDs() {
						r := c.Process(p).Replica()
						view := r.View()
						for v := types.View(0); v <= view; v++ {
							if acts := r.EnterView(v); len(acts) != 0 || r.View() != view {
								t.Fatalf("%s in %s, asked to enter %s: %d actions, now in %s", p, view, v, len(acts), r.View())
							}
						}
					}
				})
			}
		}
	}
}

// ownSigWatch is a process's inner verifier that counts the checks of
// signatures in the process's own name.
type ownSigWatch struct {
	sigcrypto.Verifier
	id  types.ProcessID
	own *int
}

func (v ownSigWatch) Verify(m []byte, sig sigcrypto.Signature) bool {
	if sig.Signer == v.id {
		*v.own++
	}
	return v.Verifier.Verify(m, sig)
}

// TestOwnSignaturesNeverVerified: on whole clusters — n = 4 and n = 7,
// fault-free and with the view-1 leader silent, so that view 2's vote
// collection, certificate round and proposal run too — no process's inner
// verifier is ever asked about a signature in its own name. Its τ, AckSigs,
// votes and CertAcks come back to it (its own copy of a broadcast, its vote
// in its own selection, its endorsement in a progress certificate, its
// AckSig in commit certificates) as memo hits.
func TestOwnSignaturesNeverVerified(t *testing.T) {
	for _, cfg := range []types.Config{types.Generalized(1, 1), types.Generalized(2, 1)} {
		for _, silent := range []bool{false, true} {
			t.Run(fmt.Sprintf("n%d/silent-leader=%v", cfg.N, silent), func(t *testing.T) {
				own := make([]int, cfg.N)
				cc := sim.ClusterConfig{
					Cfg:  cfg,
					Seed: int64(cfg.N),
					Machine: func(p types.ProcessID, keys sigcrypto.Scheme) (core.Machine, error) {
						v := ownSigWatch{Verifier: keys.Verifier(), id: p, own: &own[p]}
						return core.NewProcess(cfg, p, keys.Signer(p), v, types.Value(fmt.Sprintf("in-%d", p)), 10*sim.DefaultDelta)
					},
				}
				view := types.View(1)
				if silent {
					cc.Faulty = map[types.ProcessID]core.Machine{cfg.Leader(1): nil}
					view = 2
				}
				c, err := sim.NewCluster(cc)
				if err != nil {
					t.Fatal(err)
				}
				if _, err := c.Run(time.Minute); err != nil {
					t.Fatal(err)
				}
				if err := c.CheckAgreement(true); err != nil {
					t.Fatal(err)
				}
				for _, p := range c.CorrectIDs() {
					r := c.Process(p).Replica()
					if d, _ := r.Decided(); d.View != view {
						t.Errorf("%s decided in view %s, want %s", p, d.View, view)
					}
					if own[p] != 0 {
						t.Errorf("%s verified %d signatures in its own name", p, own[p])
					}
				}
			})
		}
	}
}
