package main

import (
	"encoding/json"
	"fmt"
	"os"
	"os/exec"
	"path/filepath"
	"runtime"
	"strings"
	"syscall"
)

// environment records where a report was measured.
type environment struct {
	NumCPU     int    `json:"nproc"`
	GOMAXPROCS int    `json:"gomaxprocs"`
	GoVersion  string `json:"go_version"`
	Commit     string `json:"commit"`
	DataDirFS  string `json:"datadir_filesystem"`
	// MessageDelay states that no delay is injected between replicas:
	// latency here is processor and fsync time, not network time.
	MessageDelay string `json:"message_delay"`
}

// workloadReport is one workload's part of a full report.
type workloadReport struct {
	Why string `json:"why"`
	// EndToEnd holds the end-to-end metrics, each with the min–max range of
	// the per-episode values as its spread.
	EndToEnd  map[string]metricValue `json:"end_to_end"`
	PerLayer  map[string]metricValue `json:"per_layer"`
	Attempted int                    `json:"attempted"`
	Failed    int                    `json:"failed"`
	// LatencySamples is the smallest sample count behind one episode's
	// percentiles.
	LatencySamples int      `json:"latency_samples"`
	Flags          []string `json:"flags,omitempty"`
	TraceFile      string   `json:"trace_file"`
}

// fullReport is what -out writes and -compare reads.
type fullReport struct {
	Env       environment               `json:"environment"`
	Seed      int64                     `json:"seed"`
	Seconds   int                       `json:"seconds"`
	Workloads map[string]workloadReport `json:"workloads"`
}

// fsNames maps the statfs magic numbers of common Linux filesystems.
var fsNames = map[int64]string{
	0xEF53: "ext4", 0x01021994: "tmpfs", 0x58465342: "xfs", 0x9123683E: "btrfs",
	0x794C7630: "overlayfs", 0x6969: "nfs", 0x2FC12FC1: "zfs",
}

// readEnvironment describes the host, the toolchain and the data disk.
func readEnvironment(dataDir string) environment {
	env := environment{
		NumCPU: runtime.NumCPU(), GOMAXPROCS: runtime.GOMAXPROCS(0), GoVersion: runtime.Version(),
		Commit: "unknown", DataDirFS: "unknown", MessageDelay: "none injected (loopback TCP)",
	}
	if out, err := exec.Command("git", "rev-parse", "HEAD").Output(); err == nil {
		env.Commit = strings.TrimSpace(string(out))
	}
	var st syscall.Statfs_t
	if err := syscall.Statfs(dataDir, &st); err == nil {
		env.DataDirFS = fmt.Sprintf("0x%X", int64(st.Type))
		if name, ok := fsNames[int64(st.Type)]; ok {
			env.DataDirFS = name
		}
	}
	return env
}

// runAll runs every workload — one end-to-end run, then one traced run —
// prints every metric, and writes the report to outPath if set.
func runAll(seed int64, seconds int, dataDir, resultsDir, outPath string) int {
	if err := os.MkdirAll(dataDir, 0o755); err != nil {
		fmt.Fprintln(os.Stderr, "benchmark:", err)
		return 1
	}
	full := fullReport{
		Env: readEnvironment(dataDir), Seed: seed, Seconds: seconds,
		Workloads: make(map[string]workloadReport),
	}
	fmt.Printf("environment: %+v\n", full.Env)
	for _, w := range workloads {
		wr := workloadReport{Why: w.why, TraceFile: tracePath(resultsDir, w)}
		rep, err := runUntraced(w, seed, seconds, dataDir)
		if err != nil {
			fmt.Fprintln(os.Stderr, "benchmark:", err)
			return 1
		}
		printReport(rep)
		wr.absorb(rep)
		wr.EndToEnd = rep.Metrics
		rep, err = runTraced(w, seed, seconds, dataDir, wr.TraceFile)
		if err != nil {
			fmt.Fprintln(os.Stderr, "benchmark:", err)
			return 1
		}
		printReport(rep)
		wr.absorb(rep)
		wr.PerLayer = rep.Metrics
		full.Workloads[w.name] = wr
	}
	if outPath == "" {
		return 0
	}
	data, err := json.MarshalIndent(full, "", " ")
	if err == nil {
		if err = os.MkdirAll(filepath.Dir(outPath), 0o755); err == nil {
			err = os.WriteFile(outPath, append(data, '\n'), 0o644)
		}
	}
	if err != nil {
		fmt.Fprintln(os.Stderr, "benchmark:", err)
		return 1
	}
	fmt.Println("report written to", outPath)
	return 0
}

// absorb adds a run's request counts and flags to the workload's.
func (wr *workloadReport) absorb(rep *runReport) {
	wr.Attempted += rep.Attempted
	wr.Failed += rep.Failed
	if !rep.Trace && (wr.LatencySamples == 0 || rep.LatencySamples < wr.LatencySamples) {
		wr.LatencySamples = rep.LatencySamples
	}
	wr.Flags = append(wr.Flags, rep.Flags...)
}
