// Package core implements the fast Byzantine consensus protocol of
// "Revisiting Optimal Resilience of Fast Byzantine Consensus" (Kuznetsov,
// Tonkikh, Zhang; PODC 2021): the vanilla n ≥ 5f−1 protocol of Section 3 and
// the generalized n ≥ 3f+2t−1 protocol with the PBFT-like slow path of
// Appendix A.
//
// The implementation is a deterministic, single-threaded state machine:
// every input (initialization, message delivery, timer expiry) returns a
// list of Actions for the embedding runtime to execute. The same state
// machine runs on the node runtime (internal/node) over a real transport and
// over the discrete-event simulator (internal/sim) under the adversarial
// schedules of the experiment harness, which is what makes message-delay
// measurements and safety tests deterministic.
package core

import (
	"time"

	"repro/internal/msg"
	"repro/internal/types"
)

// Time is virtual or real time measured as a duration since the start of
// the execution. The discrete-event simulator advances it in Δ units; the
// real runtime derives it from the wall clock.
type Time = time.Duration

// Action is an instruction emitted by the state machine for the runtime to
// perform.
type Action interface {
	isAction()
}

// SendAction sends Msg to one process.
type SendAction struct {
	To  types.ProcessID
	Msg msg.Message
}

func (SendAction) isAction() {}

// BroadcastAction sends Msg to every process except the sender. The state
// machine processes its own copy internally before emitting the action, so
// runtimes must not loop broadcasts back.
type BroadcastAction struct {
	Msg msg.Message
}

func (BroadcastAction) isAction() {}

// DecideAction reports the Decide callback of Section 2.2. It is emitted at
// most once per process per consensus instance.
type DecideAction struct {
	Decision types.Decision
}

func (DecideAction) isAction() {}

// TimerAction (re)arms the process's single view timer to fire at Deadline.
type TimerAction struct {
	Deadline Time
}

func (TimerAction) isAction() {}
