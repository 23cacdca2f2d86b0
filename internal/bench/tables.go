package bench

import (
	"fmt"
	"time"

	"repro/internal/baseline/fab"
	"repro/internal/baseline/pbft"
	"repro/internal/core"
	"repro/internal/msg"
	"repro/internal/sigcrypto"
	"repro/internal/sim"
	"repro/internal/types"
)

// worstSteps runs one instance of cc's protocol with the last `silent`
// processes mute from the start, checks agreement, and returns the
// worst-case decision latency over correct processes.
func worstSteps(cc sim.ClusterConfig, silent int) (types.Step, error) {
	cc.Delta = delta
	cc.Faulty = make(map[types.ProcessID]core.Machine, silent)
	for i := 0; i < silent; i++ {
		cc.Faulty[types.ProcessID(cc.Cfg.N-1-i)] = nil
	}
	c, err := sim.NewCluster(cc)
	if err != nil {
		return 0, err
	}
	if _, err := c.Run(time.Minute); err != nil {
		return 0, err
	}
	if err := c.CheckAgreement(true); err != nil {
		return 0, err
	}
	steps, _ := c.MaxDecisionSteps()
	return steps, nil
}

// runOurs measures the paper's protocol.
func runOurs(cfg types.Config, silent int, seed int64) (types.Step, error) {
	return worstSteps(sim.ClusterConfig{Cfg: cfg, Inputs: sim.UniformInputs(cfg.N, types.Value("x")), Seed: seed}, silent)
}

// runFaB measures the FaB Paxos baseline fast path.
func runFaB(f, t, silent int, seed int64) (types.Step, error) {
	n := fab.MinProcesses(f, t)
	return worstSteps(sim.ClusterConfig{
		Cfg:  types.Config{N: n, F: f, T: t},
		Seed: seed,
		Machine: func(p types.ProcessID, keys sigcrypto.Scheme) (core.Machine, error) {
			return fab.NewReplica(n, f, t, p, keys.Signer(p), keys.Verifier(), types.Value("x"))
		},
	}, silent)
}

// runPBFT measures the PBFT baseline.
func runPBFT(f, silent int, seed int64) (types.Step, error) {
	n := pbft.MinProcesses(f)
	return worstSteps(sim.ClusterConfig{
		Cfg:  types.Config{N: n, F: f},
		Seed: seed,
		Machine: func(p types.ProcessID, keys sigcrypto.Scheme) (core.Machine, error) {
			return pbft.NewProcess(n, f, p, keys.Signer(p), keys.Verifier(), types.Value("x"), 10*delta)
		},
	}, silent)
}

// TableResilience reproduces the headline comparison (Sections 1 and 5):
// minimum process counts for PBFT, FaB Paxos, and this paper across (f, t),
// with measured common-case latency at each protocol's own minimum n.
func TableResilience() (*Report, error) {
	r := &Report{
		ID:    "T1",
		Title: "minimum processes and common-case latency: PBFT vs FaB Paxos vs this paper",
		Header: []string{
			"f", "t",
			"PBFT n", "PBFT steps",
			"FaB n", "FaB steps",
			"paper n", "paper steps (t silent)",
		},
	}
	for f := 1; f <= 4; f++ {
		for t := 1; t <= f; t++ {
			cfg := types.Generalized(f, t)
			ours, err := runOurs(cfg, t, int64(10*f+t))
			if err != nil {
				return nil, fmt.Errorf("ours f=%d t=%d: %w", f, t, err)
			}
			fabSteps, err := runFaB(f, t, t, int64(20*f+t))
			if err != nil {
				return nil, fmt.Errorf("fab f=%d t=%d: %w", f, t, err)
			}
			pbftSteps, err := runPBFT(f, 0, int64(30*f+t))
			if err != nil {
				return nil, fmt.Errorf("pbft f=%d: %w", f, err)
			}
			r.AddRow(
				fmt.Sprintf("%d", f), fmt.Sprintf("%d", t),
				fmt.Sprintf("%d", pbft.MinProcesses(f)), fmt.Sprintf("%d", pbftSteps),
				fmt.Sprintf("%d", fab.MinProcesses(f, t)), fmt.Sprintf("%d", fabSteps),
				fmt.Sprintf("%d", cfg.N), fmt.Sprintf("%d", ours),
			)
		}
	}
	r.AddNote("paper: our n = 3f+2t−1 is exactly 2 below FaB's 3f+2t+1 for every (f,t); both decide in 2 steps, PBFT in 3")
	r.AddNote("paper: for f=t=1 the protocol runs on 4 processes — optimal for any partially synchronous Byzantine consensus")
	return r, nil
}

// TableLatency reproduces the common-case latency comparison of the
// introduction: two message delays for the fast protocols, three for PBFT,
// in the fault-free common case at each protocol's minimum n.
func TableLatency() (*Report, error) {
	r := &Report{
		ID:     "T2",
		Title:  "fault-free common-case decision latency (message delays)",
		Header: []string{"protocol", "f", "n", "steps"},
	}
	for f := 1; f <= 3; f++ {
		pbftSteps, err := runPBFT(f, 0, int64(100+f))
		if err != nil {
			return nil, err
		}
		r.AddRow("PBFT", fmt.Sprintf("%d", f), fmt.Sprintf("%d", pbft.MinProcesses(f)), fmt.Sprintf("%d", pbftSteps))
	}
	for f := 1; f <= 3; f++ {
		fabSteps, err := runFaB(f, f, 0, int64(200+f))
		if err != nil {
			return nil, err
		}
		r.AddRow("FaB (t=f)", fmt.Sprintf("%d", f), fmt.Sprintf("%d", fab.MinProcesses(f, f)), fmt.Sprintf("%d", fabSteps))
	}
	for f := 1; f <= 3; f++ {
		cfg := types.Vanilla(f)
		ours, err := runOurs(cfg, 0, int64(300+f))
		if err != nil {
			return nil, err
		}
		r.AddRow("this paper (t=f)", fmt.Sprintf("%d", f), fmt.Sprintf("%d", cfg.N), fmt.Sprintf("%d", ours))
	}
	r.AddNote("paper: fast Byzantine consensus decides in 2 delays, matching crash-fault Paxos; PBFT needs 3")
	return r, nil
}

// TableCertSize reproduces the certificate-size discussion of Section 3.2:
// the measured progress-certificate size stays constant in the view number
// (f+1 signatures), against the naive vote-chain certificate whose size
// grows linearly with the views of preceding asynchrony.
func TableCertSize() (*Report, error) {
	cfg := types.Generalized(1, 1)
	r := &Report{
		ID:     "T3",
		Title:  "progress certificate size vs decision view (n=4, f=t=1)",
		Header: []string{"decision view", "propose size (bytes)", "bounded cert sigs", "naive cert size (bytes, analytic)"},
	}
	for _, blackout := range []int{0, 4, 10, 20, 40} {
		view, size, err := certSizeAtBlackout(cfg, blackout)
		if err != nil {
			return nil, err
		}
		r.AddRow(
			view.String(),
			fmt.Sprintf("%d", size),
			fmt.Sprintf("%d", cfg.F+1),
			fmt.Sprintf("%d", naiveCertSize(cfg, int(view))),
		)
	}
	r.AddNote("paper: the CertReq/CertAck round bounds certificates to f+1 signatures; the naive design embeds n−f votes recursively")
	return r, nil
}

// certSizeAtBlackout drops every Propose and CertRequest during an initial
// blackout of the given number of Δ rounds, forcing repeated view changes,
// then measures the size of the proposal that finally decides.
func certSizeAtBlackout(cfg types.Config, blackoutSteps int) (types.View, int, error) {
	blackout := time.Duration(blackoutSteps) * delta * 10 // timer is 10Δ per view
	var lastProposeBytes int
	c, err := sim.NewCluster(sim.ClusterConfig{
		Cfg:    cfg,
		Inputs: sim.UniformInputs(cfg.N, types.Value("x")),
		Seed:   7,
		Delta:  delta,
		Fate: func(from, to types.ProcessID, m msg.Message, now sim.Time) sim.Fate {
			k := m.Kind()
			return sim.Fate{Delay: delta, Drop: now < blackout && (k == msg.KindPropose || k == msg.KindCertRequest)}
		},
		Trace: func(ev sim.TraceEvent, m msg.Message) {
			if m.Kind() == msg.KindPropose {
				lastProposeBytes = len(ev.Payload)
			}
		},
	})
	if err != nil {
		return 0, 0, err
	}
	if _, err := c.Run(30 * time.Minute); err != nil {
		return 0, 0, err
	}
	if err := c.CheckAgreement(true); err != nil {
		return 0, 0, err
	}
	var view types.View
	for _, p := range c.CorrectIDs() {
		d, _ := c.Process(p).Decided()
		if d.View > view {
			view = d.View
		}
	}
	return view, lastProposeBytes, nil
}

// naiveCertSize estimates the wire size of the naive certificate design of
// Section 3.2, in which the certificate for view v contains n−f signed
// votes, each embedding a certificate for an earlier view: size grows
// linearly in the view number (the paper's "linear with respect to the
// current view number" bound for the careful implementation).
func naiveCertSize(cfg types.Config, view int) int {
	const (
		sigBytes      = 70 // signature + signer id + framing
		voteOverhead  = 24 // value, view number, framing
		perViewQuorum = 1  // one embedded vote chain survives per view in the careful design
	)
	if view <= 1 {
		return 0
	}
	perView := (cfg.N-cfg.F)*sigBytes + voteOverhead*perViewQuorum
	return perView * (view - 1)
}

// TableFastPathOptimalResilience reproduces the Section 3.4 claim: at
// optimal resilience n = 3f+1 (t = 1), the protocol stays two-step in the
// presence of a single actual Byzantine fault — where all previous
// optimal-resilience protocols lose their fast path.
func TableFastPathOptimalResilience() (*Report, error) {
	r := &Report{
		ID:     "T4",
		Title:  "fast path at optimal resilience n=3f+1 (t=1) with one silent fault",
		Header: []string{"f", "n", "silent", "steps"},
	}
	for f := 2; f <= 4; f++ {
		cfg := types.Generalized(f, 1)
		steps, err := runOurs(cfg, 1, int64(400+f))
		if err != nil {
			return nil, err
		}
		r.AddRow(fmt.Sprintf("%d", f), fmt.Sprintf("%d", cfg.N), "1", fmt.Sprintf("%d", steps))
	}
	r.AddNote("paper: first protocol that stays fast under one Byzantine failure at n = 3f+1")
	return r, nil
}
