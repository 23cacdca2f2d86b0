// Equivocation: a Byzantine leader proposes two different values to two
// halves of the cluster — the central attack the paper's view change is
// built to survive. The run shows the view-change protocol detecting the
// equivocation from the conflicting signed votes, excluding the provably
// Byzantine leader, and converging on a single safe value.
//
// Run with:
//
//	go run ./examples/equivocation
package main

import (
	"fmt"
	"log"
	"time"

	"repro/internal/byz"
	"repro/internal/core"
	"repro/internal/sigcrypto"
	"repro/internal/sim"
	"repro/internal/types"
)

func main() {
	if err := run(); err != nil {
		log.Fatal(err)
	}
}

func run() error {
	cfg := types.Generalized(1, 1) // n = 4
	leader := cfg.Leader(1)
	fmt.Printf("cluster %s; Byzantine leader of view 1 is %s\n", cfg, leader)

	// The leader slot runs the equivocating machine, signing with the key
	// the cluster's scheme gives it: "left" goes to the first correct
	// process, "right" to the rest, and the leader acknowledges both.
	const seed = 2024
	groupA := map[types.ProcessID]bool{}
	for i := 0; i < cfg.N; i++ {
		if pid := types.ProcessID(i); pid != leader {
			groupA[pid] = true
			break
		}
	}
	attack := &byz.EquivocatingLeader{
		Forger: byz.NewForger(leader, sigcrypto.NewHMAC(cfg.N, seed).Signer(leader)),
		N:      cfg.N,
		Value1: types.Value("left"),
		Value2: types.Value("right"),
		GroupA: groupA,
	}
	cluster, err := sim.NewCluster(sim.ClusterConfig{
		Cfg:    cfg,
		Inputs: sim.DistinctInputs(cfg.N, "honest-input"),
		Seed:   seed,
		Faulty: map[types.ProcessID]core.Machine{leader: attack},
	})
	if err != nil {
		return err
	}

	if _, err := cluster.Run(time.Minute); err != nil {
		return err
	}
	if err := cluster.CheckAgreement(true); err != nil {
		return fmt.Errorf("CONSISTENCY VIOLATION (must never happen): %w", err)
	}
	fmt.Println("despite the equivocation, all correct processes agree:")
	for _, p := range cluster.CorrectIDs() {
		d, _ := cluster.Process(p).Decided()
		fmt.Printf("  %s decided %s in view %s via the %s path\n", p, d.Value, d.View, d.Path)
	}
	return nil
}
