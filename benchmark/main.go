// Command benchmark is the repository's benchmark: it boots real replicas
// in this process through the public API — Ed25519 signatures, loopback
// TCP, a write-ahead log with sync=group — drives them from a seeded load
// generator, checks that every reply and the final state are correct, and
// prints end-to-end and per-layer metrics by name. See README.md.
//
// Three ways to run it, from the repository root (benchmark/run.sh builds
// the command and passes its arguments on):
//
//	run.sh --workload W --seed N --seconds S --trace 0|1
//	    one run of one workload; the last line of output is the result
//	run.sh -seed N -out benchmark/results/latest.json
//	    all five workloads, end-to-end and per-layer, into one report
//	run.sh -compare a.json b.json
//	    two reports side by side, with a verdict per metric
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"os"
	"path/filepath"
)

func main() { os.Exit(realMain()) }

func realMain() int {
	var (
		workloadName = flag.String("workload", "", "run this one workload and print its result as the last line; empty runs all five")
		seed         = flag.Int64("seed", 1, "seed of the generated operations")
		seconds      = flag.Int("seconds", 15, "measured seconds per run")
		trace        = flag.Int("trace", 0, "with -workload: 0 measures the end-to-end metrics with tracing off, 1 the per-layer metrics")
		out          = flag.String("out", "", "without -workload: write the report to this file")
		compare      = flag.Bool("compare", false, "compare the two report files given as arguments")
		dataDir      = flag.String("datadir", ".bench_build/data", "where replicas keep their data directories; should be a real disk")
		resultsDir   = flag.String("results", "benchmark/results", "where trace files are written")
	)
	flag.Parse()
	if *compare {
		if flag.NArg() != 2 {
			fmt.Fprintln(os.Stderr, "benchmark: -compare takes two report files")
			return 2
		}
		return compareFiles(flag.Arg(0), flag.Arg(1))
	}
	if *seconds < 1 {
		fmt.Fprintln(os.Stderr, "benchmark: -seconds must be at least 1")
		return 2
	}
	if *workloadName == "" {
		return runAll(*seed, *seconds, *dataDir, *resultsDir, *out)
	}
	w, ok := workloadByName(*workloadName)
	if !ok {
		fmt.Fprintf(os.Stderr, "benchmark: unknown workload %q\n", *workloadName)
		return 2
	}
	var rep *runReport
	var err error
	if *trace != 0 {
		rep, err = runTraced(w, *seed, *seconds, *dataDir, tracePath(*resultsDir, w))
	} else {
		rep, err = runUntraced(w, *seed, *seconds, *dataDir)
	}
	if err != nil {
		// No result line: a run that failed its correctness gate has no
		// metrics worth comparing.
		fmt.Fprintln(os.Stderr, "benchmark:", err)
		return 1
	}
	printReport(rep)
	return printResultLine(rep)
}

// tracePath is where a workload's spans are written.
func tracePath(resultsDir string, w workload) string {
	return filepath.Join(resultsDir, "trace-"+w.name+".json")
}

// defsOf returns the metrics a report of this kind holds, in print order.
func defsOf(rep *runReport) []metricDef {
	if rep.Trace {
		return perLayer
	}
	return endToEnd
}

// printReport prints every metric of a run by name, with its unit and the
// range of the per-episode values where there is one.
func printReport(rep *runReport) {
	kind := "end-to-end, tracing off"
	if rep.Trace {
		kind = "per-layer"
	}
	fmt.Printf("%s seed=%d seconds=%d (%s): attempted=%d failed=%d latency_samples=%d flags=%v\n",
		rep.Workload, rep.Seed, rep.Seconds, kind, rep.Attempted, rep.Failed, rep.LatencySamples, rep.Flags)
	for _, d := range defsOf(rep) {
		m := rep.Metrics[d.name]
		line := fmt.Sprintf("  %-34s %14.4f %-6s", d.name, m.Value, m.Unit)
		if m.Spread != nil {
			line += fmt.Sprintf(" [%.4f – %.4f]", m.Spread.Min, m.Spread.Max)
		}
		if d.source != "" {
			line += " (" + d.source + ")"
		}
		fmt.Println(line)
	}
}

// resultLine is the last line of a single-workload run.
type resultLine struct {
	Correct   bool                   `json:"correct"`
	Attempted int                    `json:"attempted"`
	Failed    int                    `json:"failed"`
	Metrics   map[string]metricValue `json:"metrics"`
}

// printResultLine prints the run's result as one JSON object: every metric
// with its value and unit, without the spreads.
func printResultLine(rep *runReport) int {
	res := resultLine{Correct: rep.Correct, Attempted: rep.Attempted, Failed: rep.Failed, Metrics: make(map[string]metricValue)}
	for _, d := range defsOf(rep) {
		m := rep.Metrics[d.name]
		res.Metrics[d.name] = metricValue{Value: m.Value, Unit: m.Unit}
	}
	line, err := json.Marshal(res)
	if err != nil {
		fmt.Fprintln(os.Stderr, "benchmark:", err)
		return 1
	}
	fmt.Println(string(line))
	return 0
}
