package msg

import "repro/internal/types"

// This file defines the client-facing messages of the SMR layer: Request,
// an external client's command submission, and Reply, a replica's response
// after executing it. They follow the PBFT client protocol shape: requests
// carry a (client, sequence) pair that replicas use for session-table
// deduplication, and a client accepts a result once f+1 replicas return
// matching replies for the same sequence number — at least one of them is
// correct, so the result is the one the replicated state machine computed.

// MaxClientID bounds the length of a client identifier on the wire. The
// session table is keyed by client identifiers, so unbounded identifiers
// would hand a Byzantine client a per-request memory lever.
const MaxClientID = 128

// Request is an external client's command submission: the client's
// identifier, its per-session monotonically increasing sequence number
// (starting at 1), and the opaque operation bytes the application executes.
// The canonical encoding of a Request is also the SMR command format —
// requests flow through consensus batches byte-for-byte.
//
// Group addresses the consensus group that orders the request (a process
// hosts one group per shard; see internal/group). It is always on the wire,
// a plain uvarint, group 0 included.
type Request struct {
	Client types.ClientID
	Seq    uint64
	Op     []byte
	Group  uint64
}

// Kind implements Message.
func (m *Request) Kind() Kind { return KindRequest }

// InView implements Message. Requests are per-log, not per-view.
func (m *Request) InView() types.View { return types.NoView }

// Reply is a replica's response to an executed Request: the slot the request
// executed in, the responding replica, and the application's result bytes.
// Replicas cache the last reply per client and answer retransmissions from
// the cache without re-executing.
//
// Group echoes the consensus group that executed the request. The per-group
// client sessions of one physical client share sequence-number spaces, so
// the group echo is what lets a client demultiplex replies arriving on a
// shared connection — and reject a reply that bled over from another
// group's session.
type Reply struct {
	Client  types.ClientID
	Seq     uint64
	Slot    uint64
	Replica types.ProcessID
	Result  []byte
	Group   uint64
}

// Kind implements Message.
func (m *Reply) Kind() Kind { return KindReply }

// InView implements Message. Replies are per-log, not per-view.
func (m *Reply) InView() types.View { return types.NoView }

// Compile-time interface checks.
var (
	_ Message = (*Request)(nil)
	_ Message = (*Reply)(nil)
)
