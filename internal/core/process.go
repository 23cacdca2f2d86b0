package core

import (
	"time"

	"repro/internal/msg"
	"repro/internal/sigcrypto"
	"repro/internal/types"
	"repro/internal/viewsync"
)

// Process composes the consensus replica with the view synchronizer into
// one deterministic state machine with a single timer. It is the unit the
// simulator and the real runtime drive.
type Process struct {
	replica Replica
	sync    viewsync.Synchronizer
	// enterHook, when set, runs immediately before the replica enters a view
	// the synchronizer selected (see SetEnterHook).
	enterHook func(types.View)
}

// NewProcess builds the full per-process state machine. baseTimeout is the
// view-1 timer duration (viewsync.DefaultBaseTimeout if 0).
// The replica and the synchronizer live inside the Process, one allocation.
func NewProcess(cfg types.Config, id types.ProcessID, signer sigcrypto.Signer, verifier sigcrypto.Verifier, input types.Value, baseTimeout time.Duration) (*Process, error) {
	p := &Process{}
	if err := p.replica.init(cfg, id, signer, verifier, input); err != nil {
		return nil, err
	}
	p.sync = viewsync.Make(cfg.N, cfg.F, id, baseTimeout)
	return p, nil
}

// Replica exposes the consensus state machine (read-mostly: experiments
// inspect views, votes, and decisions through it).
func (p *Process) Replica() *Replica { return &p.replica }

// SetEnterHook registers fn to run synchronously right before the replica
// enters a new view, with the view about to be entered. The synchronizer is
// the only way into a view, so the hook runs once per view entered, view 1
// included: it is the one place a runtime observes view entry. The hook runs
// before any protocol step of the new view — in particular before the
// replica's own vote is recorded and before buffered votes of that view are
// replayed — so a runtime can give the replica its input (SetInput) in time
// for a free selection, no matter how deliveries interleave. The actions
// SetInput returns are the runtime's to carry out, in the hook as anywhere.
func (p *Process) SetEnterHook(fn func(types.View)) { p.enterHook = fn }

// ID returns the process identifier.
func (p *Process) ID() types.ProcessID { return p.replica.ID() }

// Decided returns the decision, if one was reached.
func (p *Process) Decided() (types.Decision, bool) { return p.replica.Decided() }

// View returns the current view.
func (p *Process) View() types.View { return p.replica.View() }

// Init starts the process at time now: enter view 1 and arm the view timer.
func (p *Process) Init(now Time) []Action {
	return p.applySync(p.sync.Init(now))
}

// Deliver routes a message either to the view synchronizer (wishes) or to
// the consensus replica (everything else).
func (p *Process) Deliver(from types.ProcessID, m msg.Message, now Time) []Action {
	if w, ok := m.(*msg.Wish); ok {
		return p.applySync(p.sync.OnWish(from, w.View, now))
	}
	return p.replica.Deliver(from, m)
}

// Tick handles expiry of the view timer.
func (p *Process) Tick(now Time) []Action {
	return p.applySync(p.sync.OnTimeout(now))
}

// applySync converts a synchronizer output into runtime actions, entering
// new views on the replica as needed.
func (p *Process) applySync(out viewsync.Output) []Action {
	var actions []Action
	if out.Wish != nil {
		actions = append(actions, BroadcastAction{Msg: out.Wish})
	}
	if out.Deadline != 0 {
		actions = append(actions, TimerAction{Deadline: out.Deadline})
	}
	if out.Enter != 0 {
		if p.enterHook != nil {
			p.enterHook(out.Enter)
		}
		actions = append(actions, p.replica.EnterView(out.Enter)...)
	}
	return actions
}
