package main

import (
	"encoding/json"
	"fmt"
	"io"
	"os"
)

// verdict is the outcome of comparing one metric of one workload.
type verdict string

const (
	verdictSame   verdict = "same"
	verdictBetter verdict = "better"
	verdictWorse  verdict = "worse"
	// verdictUnresolved: a side's spread is wider than the bound, so a
	// difference within the bound cannot be told from noise.
	verdictUnresolved verdict = "unresolved"
)

// judge compares the second report's value of a metric against the first's.
func judge(d metricDef, a, b metricValue) verdict {
	if a.Value == 0 {
		return verdictUnresolved
	}
	change := (b.Value - a.Value) / a.Value
	if d.better == "higher" {
		change = -change
	}
	// change > 0 now means the second report is worse. Set-up time is
	// judged on its value alone, as the benchmark contract judges it: the
	// value is the median of eleven boots, and the range of the five among
	// them that went on to be measured says little about how well it repeats.
	for _, m := range []metricValue{a, b} {
		if d.name != "setup_s" && m.Spread != nil && m.Spread.relWidth(m.Value) > d.bound {
			return verdictUnresolved
		}
	}
	switch {
	case change > d.bound:
		return verdictWorse
	case change < -d.bound:
		return verdictBetter
	}
	return verdictSame
}

// readReport loads a report written by -out.
func readReport(path string) (*fullReport, error) {
	data, err := os.ReadFile(path)
	if err != nil {
		return nil, err
	}
	var r fullReport
	if err := json.Unmarshal(data, &r); err != nil {
		return nil, fmt.Errorf("%s: %w", path, err)
	}
	return &r, nil
}

// compareFiles prints one row per workload and end-to-end metric of two
// reports and returns a non-zero exit code if the second is worse anywhere
// or failed a larger share of its requests.
func compareFiles(pathA, pathB string) int {
	var reports [2]*fullReport
	for i, path := range []string{pathA, pathB} {
		r, err := readReport(path)
		if err != nil {
			fmt.Fprintln(os.Stderr, "benchmark:", err)
			return 2
		}
		reports[i] = r
	}
	if compareReports(os.Stdout, reports[0], reports[1]) {
		return 1
	}
	return 0
}

// spreadText renders a metric's spread, or "-" if it has none.
func spreadText(m metricValue) string {
	if m.Spread == nil {
		return "-"
	}
	return fmt.Sprintf("%.4g–%.4g", m.Spread.Min, m.Spread.Max)
}

// compareReports writes the comparison table and reports whether the second
// report is worse: a "worse" verdict or a higher failed share.
func compareReports(w io.Writer, a, b *fullReport) (worse bool) {
	fmt.Fprintf(w, "%-13s %-17s %12s %21s %12s %21s %6s  %s\n",
		"workload", "metric", "a", "a spread", "b", "b spread", "bound", "verdict")
	for _, wl := range workloads {
		wa, okA := a.Workloads[wl.name]
		wb, okB := b.Workloads[wl.name]
		if !okA || !okB {
			fmt.Fprintf(w, "%-13s missing from a report\n", wl.name)
			worse = true
			continue
		}
		for _, d := range endToEnd {
			ma, mb := wa.EndToEnd[d.name], wb.EndToEnd[d.name]
			v := judge(d, ma, mb)
			if v == verdictWorse {
				worse = true
			}
			fmt.Fprintf(w, "%-13s %-17s %12.4f %21s %12.4f %21s %5.0f%%  %s\n",
				wl.name, d.name, ma.Value, spreadText(ma), mb.Value, spreadText(mb), d.bound*100, v)
		}
		shareA := ratio(float64(wa.Failed), float64(wa.Attempted))
		shareB := ratio(float64(wb.Failed), float64(wb.Attempted))
		if shareB > shareA {
			worse = true
			fmt.Fprintf(w, "%-13s failed_share rose from %.4f to %.4f\n", wl.name, shareA, shareB)
		}
	}
	return worse
}
