// Package fastbft is the public API of this repository: a production-style
// implementation of the fast Byzantine consensus protocol of
//
//	Kuznetsov, Tonkikh, Zhang. "Revisiting Optimal Resilience of Fast
//	Byzantine Consensus." PODC 2021 (arXiv:2102.12825).
//
// The protocol decides in two message delays in the common case and needs
// only n ≥ 3f + 2t − 1 processes to tolerate f Byzantine failures while
// staying fast under at most t actual failures (n ≥ 5f − 1 for the vanilla
// t = f variant) — two fewer processes than FaB Paxos, and optimal.
//
// Three ways to use it:
//
//   - Simulate runs a cluster inside the deterministic discrete-event
//     simulator and reports decisions and latency in message delays.
//   - StartNode runs one consensus instance as a real process over
//     authenticated TCP, for a local multi-replica deployment.
//   - StartKVReplica runs a replicated key-value store on the replicated
//     state machine built from the protocol — replication is pipelined
//     across a window of concurrent log slots (KVReplicaConfig.WindowSize)
//     with per-slot command batches (MaxBatch), applied strictly in slot
//     order; NewKVClient opens an external client session against it
//     (per-client sequence numbers, automatic retransmission, f+1
//     matching-reply confirmation, and server-side exactly-once execution
//     via per-client session tables).
//
// See README.md for the system inventory; cmd/fastbft-bench reproduces
// every figure and table of the paper.
package fastbft

import (
	"errors"
	"fmt"
	"time"

	"repro/internal/core"
	"repro/internal/sigcrypto"
	"repro/internal/sim"
	"repro/internal/types"
)

// Re-exported fundamental types. They are aliases, so values flow freely
// between the public API and the internal packages.
type (
	// Config carries the resilience parameters (N, F, T).
	Config = types.Config
	// Value is an opaque proposal value.
	Value = types.Value
	// ProcessID identifies a process (0-based).
	ProcessID = types.ProcessID
	// View is a view number (1-based).
	View = types.View
	// Decision is the outcome delivered by the Decide callback.
	Decision = types.Decision
	// Step counts message delays.
	Step = types.Step
	// Checkpoint identifies a stable, quorum-certified cut of a replicated
	// log (see KVReplicaConfig.CheckpointInterval).
	Checkpoint = types.Checkpoint
)

// Decision paths.
const (
	// FastPath marks a two-message-delay decision (n−t matching acks).
	FastPath = types.FastPath
	// SlowPath marks a three-message-delay decision (commit certificates).
	SlowPath = types.SlowPath
)

// VanillaConfig returns the Section 3 configuration for f faults:
// n = 5f − 1, t = f.
func VanillaConfig(f int) Config { return types.Vanilla(f) }

// GeneralizedConfig returns the minimal Appendix A configuration: the
// protocol tolerates f Byzantine faults on n = max(3f+2t−1, 3f+1) processes
// and decides in two message delays while at most t faults occur.
func GeneralizedConfig(f, t int) Config { return types.Generalized(f, t) }

// MinProcesses returns the paper's tight process bound max(3f+2t−1, 3f+1).
func MinProcesses(f, t int) int { return types.MinProcesses(f, t) }

// SimResult reports the outcome of a simulated execution.
type SimResult struct {
	// Decisions maps each correct process to its decision.
	Decisions map[ProcessID]Decision
	// Steps is the worst-case decision latency in message delays.
	Steps Step
	// Elapsed is the virtual time consumed.
	Elapsed time.Duration
	// Messages is the total number of delivered messages.
	Messages int
}

// SimOptions parameterizes Simulate.
type SimOptions struct {
	// Inputs are the per-process proposals; nil means distinct synthetic
	// inputs.
	Inputs []Value
	// Crashed lists processes that are silent from the start (counted
	// against f; at most t of them keep the fast path available).
	Crashed []ProcessID
	// Delta is the message-delay bound (10ms if zero).
	Delta time.Duration
	// Seed seeds the deterministic signature scheme.
	Seed int64
	// Limit bounds virtual time (1 minute if zero).
	Limit time.Duration
}

// ErrNoAgreement is returned by Simulate when correct processes failed to
// reach a unanimous decision within the limit. The protocol guarantees this
// never happens with at most f faulty processes; seeing it indicates a
// misconfiguration (for example more than f crashed processes).
var ErrNoAgreement = errors.New("fastbft: correct processes did not agree in time")

// Simulate runs one consensus instance in the deterministic simulator and
// returns the decisions and the latency in message delays. It is the
// quickest way to see the paper's two-step common case.
func Simulate(cfg Config, opts SimOptions) (*SimResult, error) {
	if err := cfg.Validate(); err != nil {
		return nil, err
	}
	inputs := opts.Inputs
	if inputs == nil {
		inputs = sim.DistinctInputs(cfg.N, "input")
	}
	if len(inputs) != cfg.N {
		return nil, fmt.Errorf("fastbft: %d inputs for n=%d", len(inputs), cfg.N)
	}
	faulty := make(map[ProcessID]core.Machine, len(opts.Crashed))
	for _, p := range opts.Crashed {
		faulty[p] = nil
	}
	cluster, err := sim.NewCluster(sim.ClusterConfig{
		Cfg:    cfg,
		Inputs: inputs,
		Seed:   opts.Seed,
		Delta:  opts.Delta,
		Faulty: faulty,
	})
	if err != nil {
		return nil, err
	}
	limit := opts.Limit
	if limit == 0 {
		limit = time.Minute
	}
	run, err := cluster.Run(limit)
	if err != nil {
		return nil, err
	}
	if err := cluster.CheckAgreement(true); err != nil {
		return nil, fmt.Errorf("%w: %v", ErrNoAgreement, err)
	}
	res := &SimResult{
		Decisions: make(map[ProcessID]Decision),
		Elapsed:   run.Elapsed,
		Messages:  cluster.Stats().TotalMessages(),
	}
	for _, p := range cluster.CorrectIDs() {
		res.Decisions[p], _, _ = cluster.Decision(p)
	}
	steps, _ := cluster.MaxDecisionSteps()
	res.Steps = steps
	return res, nil
}

// Keys holds the Ed25519 identities of a cluster. Generate once, distribute
// the scheme to every node.
type Keys struct {
	scheme *sigcrypto.Ed25519Scheme
}

// GenerateKeys creates fresh Ed25519 key pairs for n processes.
func GenerateKeys(n int) (*Keys, error) {
	s, err := sigcrypto.NewEd25519(n)
	if err != nil {
		return nil, err
	}
	return &Keys{scheme: s}, nil
}

// GenerateTestKeys creates deterministic key pairs (tests and demos only).
func GenerateTestKeys(n int, seed int64) *Keys {
	return &Keys{scheme: sigcrypto.NewEd25519Deterministic(n, seed)}
}

// N returns the number of identities.
func (k *Keys) N() int { return k.scheme.N() }
