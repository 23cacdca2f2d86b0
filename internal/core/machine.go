package core

import (
	"repro/internal/msg"
	"repro/internal/types"
)

// Machine is the deterministic state-machine interface shared by every
// protocol in the repository (the paper's protocol, the PBFT and FaB
// baselines, the lower-bound strawman, the adversaries of internal/byz): a
// process reacts to initialization, message deliveries, and timer expiries by
// emitting actions. One runtime, internal/node's Runner, drives Machines
// without knowing which protocol they embody — over TCP, an in-memory
// network, or the discrete-event simulator's endpoints (sim.Cluster).
type Machine interface {
	// ID returns the process identifier.
	ID() types.ProcessID
	// Init starts the machine at time now.
	Init(now Time) []Action
	// Deliver hands the machine one message from an authenticated sender.
	Deliver(from types.ProcessID, m msg.Message, now Time) []Action
	// Tick fires the machine's timer.
	Tick(now Time) []Action
}

// Compile-time check: the paper-protocol process is a Machine.
var _ Machine = (*Process)(nil)
