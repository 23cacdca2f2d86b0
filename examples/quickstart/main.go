// Quickstart: the smallest possible fast Byzantine consensus cluster — four
// processes tolerating one Byzantine fault (f = t = 1, n = 3f+2t−1 = 4) —
// deciding in two message delays inside the deterministic simulator.
//
// Run with:
//
//	go run ./examples/quickstart
package main

import (
	"fmt"
	"log"

	fastbft "repro"
)

func main() {
	// The paper's headline configuration: tolerate one Byzantine process
	// with only four processes — optimal for any partially synchronous
	// Byzantine consensus — while deciding in two message delays.
	cfg := fastbft.GeneralizedConfig(1, 1)
	fmt.Printf("configuration: %s (FaB Paxos would need %d processes)\n", cfg, 3*cfg.F+2*cfg.T+1)

	res, err := fastbft.Simulate(cfg, fastbft.SimOptions{
		Inputs: []fastbft.Value{
			fastbft.Value("apple"), // process p1 — leader of view 1
			fastbft.Value("pear"),
			fastbft.Value("plum"),
			fastbft.Value("fig"),
		},
	})
	if err != nil {
		log.Fatal(err)
	}

	for p := fastbft.ProcessID(0); int(p) < cfg.N; p++ {
		d := res.Decisions[p]
		fmt.Printf("%s decided %s in view %s via the %s path\n", p, d.Value, d.View, d.Path)
	}
	fmt.Printf("latency: %d message delays (paper: 2), %d messages delivered\n",
		res.Steps, res.Messages)
}
