// Command fastbft-bench regenerates every reproduced figure and table of
// "Revisiting Optimal Resilience of Fast Byzantine Consensus" (PODC 2021).
//
// Usage:
//
//	fastbft-bench                      # run every experiment
//	fastbft-bench -experiment f1a      # one experiment
//	fastbft-bench -list                # list experiment ids
package main

import (
	"flag"
	"fmt"
	"io"
	"os"
	"strings"

	"repro/internal/bench"
)

type experiment struct {
	id   string
	desc string
	run  func() (*bench.Report, error)
}

func experiments() []experiment {
	return []experiment{
		{"f1a", "Figure 1a: fast path, 2 message delays", bench.Figure1a},
		{"f1b", "Figure 1b: view change", bench.Figure1b},
		{"f5", "Figure 5: slow path, 3 message delays", bench.Figure5},
		{"lowerbound", "Figures 2-4: Theorem 4.5 construction", func() (*bench.Report, error) {
			return bench.LowerBound(2, 2)
		}},
		{"resilience", "Table T1: min processes, PBFT vs FaB vs paper", bench.TableResilience},
		{"latency", "Table T2: common-case latency", bench.TableLatency},
		{"certsize", "Table T3: certificate size vs view", bench.TableCertSize},
		{"fastpath-t", "Table T4: fast path at n=3f+1 with one fault", bench.TableFastPathOptimalResilience},
	}
}

func main() {
	if err := run(os.Args[1:], os.Stdout); err != nil {
		fmt.Fprintln(os.Stderr, "fastbft-bench:", err)
		os.Exit(1)
	}
}

// run runs the experiments args select and writes their reports to out.
func run(args []string, out io.Writer) error {
	fs := flag.NewFlagSet("fastbft-bench", flag.ContinueOnError)
	which := fs.String("experiment", "", "experiment id to run (default: all)")
	list := fs.Bool("list", false, "list experiment ids")
	if err := fs.Parse(args); err != nil {
		return err
	}
	exps := experiments()
	if *list {
		for _, e := range exps {
			fmt.Fprintf(out, "%-12s %s\n", e.id, e.desc)
		}
		return nil
	}
	ran := 0
	for _, e := range exps {
		if *which != "" && !strings.EqualFold(*which, e.id) {
			continue
		}
		rep, err := e.run()
		if err != nil {
			return fmt.Errorf("%s: %w", e.id, err)
		}
		fmt.Fprintln(out, rep.Format())
		ran++
	}
	if ran == 0 {
		return fmt.Errorf("unknown experiment %q (use -list)", *which)
	}
	return nil
}
