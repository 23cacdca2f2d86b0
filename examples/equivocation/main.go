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

	// Build the cluster with the leader slot marked faulty, then install
	// the equivocating node: "left" goes to the first correct process,
	// "right" to the rest, and the leader acknowledges both.
	cluster, err := sim.NewCluster(sim.ClusterConfig{
		Cfg:    cfg,
		Inputs: sim.DistinctInputs(cfg.N, "honest-input"),
		Seed:   2024,
		Faulty: map[types.ProcessID]sim.Node{leader: sim.SilentNode{}},
	})
	if err != nil {
		return err
	}
	groupA := map[types.ProcessID]bool{}
	for i := 0; i < cfg.N; i++ {
		if pid := types.ProcessID(i); pid != leader {
			groupA[pid] = true
			break
		}
	}
	attack := &byz.EquivocatingLeader{
		Forger: byz.NewForger(leader, cluster.Scheme.Signer(leader)),
		N:      cfg.N,
		Value1: types.Value("left"),
		Value2: types.Value("right"),
		GroupA: groupA,
	}
	cluster.Net.SetNode(leader, attack.Node())

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
