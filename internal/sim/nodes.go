package sim

import (
	"repro/internal/core"
	"repro/internal/msg"
	"repro/internal/types"
)

// Machine is the deterministic state-machine interface adapted into a
// simulated node. *core.Process implements it, as do the baseline protocols
// in internal/baseline.
type Machine = core.Machine

// MachineNode adapts a Machine to the simulator, executing the actions it
// emits: sends, broadcasts, timer updates, and decision recording.
type MachineNode struct {
	m Machine
}

var _ Node = (*MachineNode)(nil)

// NewMachineNode wraps m.
func NewMachineNode(m Machine) *MachineNode {
	return &MachineNode{m: m}
}

// OnStart implements Node.
func (n *MachineNode) OnStart(e *Env) {
	n.apply(e, n.m.Init(e.Now))
}

// OnMessage implements Node.
func (n *MachineNode) OnMessage(from types.ProcessID, m msg.Message, e *Env) {
	n.apply(e, n.m.Deliver(from, m, e.Now))
}

// OnTimer implements Node.
func (n *MachineNode) OnTimer(e *Env) {
	n.apply(e, n.m.Tick(e.Now))
}

func (n *MachineNode) apply(e *Env, actions []core.Action) {
	for _, a := range actions {
		switch act := a.(type) {
		case core.SendAction:
			e.Send(act.To, act.Msg)
		case core.BroadcastAction:
			e.Broadcast(act.Msg)
		case core.TimerAction:
			e.SetTimer(act.Deadline)
		case core.DecideAction:
			e.net.RecordDecision(n.m.ID(), act.Decision)
		case core.EnterViewAction:
			// Observability only.
		}
	}
}

// SilentNode never reacts: a process that is Byzantine by being mute from
// the start.
type SilentNode struct{}

var _ Node = SilentNode{}

// OnStart implements Node.
func (SilentNode) OnStart(*Env) {}

// OnMessage implements Node.
func (SilentNode) OnMessage(types.ProcessID, msg.Message, *Env) {}

// OnTimer implements Node.
func (SilentNode) OnTimer(*Env) {}

// FuncNode builds ad-hoc (usually Byzantine) nodes from closures; nil
// callbacks ignore the event.
type FuncNode struct {
	Start func(e *Env)
	Msg   func(from types.ProcessID, m msg.Message, e *Env)
	Timer func(e *Env)
}

var _ Node = (*FuncNode)(nil)

// OnStart implements Node.
func (n *FuncNode) OnStart(e *Env) {
	if n.Start != nil {
		n.Start(e)
	}
}

// OnMessage implements Node.
func (n *FuncNode) OnMessage(from types.ProcessID, m msg.Message, e *Env) {
	if n.Msg != nil {
		n.Msg(from, m, e)
	}
}

// OnTimer implements Node.
func (n *FuncNode) OnTimer(e *Env) {
	if n.Timer != nil {
		n.Timer(e)
	}
}
