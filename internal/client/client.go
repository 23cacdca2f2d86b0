// Package client implements an external client of the replicated state
// machine, following the PBFT client protocol shape: the client assigns
// per-session monotonically increasing sequence numbers, submits each
// request, retransmits it to every replica when no reply quorum forms in
// time (lost messages, a crashed or deaf leader, a view change in
// progress), and accepts a result once f+1 replicas return matching
// replies for the sequence number — at least one of the f+1 is correct, so
// the result is the one the replicated state machine actually computed.
//
// A replica answers a session over the route of the last request it got
// from it, so the replicas that should answer a request need not all
// receive it. A session's first request goes to every replica. Once a
// request has settled in its first round, each first round goes to the
// group's view-1 leader alone, and the other replicas answer over the
// routes that earlier rounds bound. A first round whose send to the leader
// fails goes to every replica at once; one that times out is retransmitted
// to every replica, and the next requests open with a round to every
// replica, a number of them that doubles with each back-to-back miss.
//
// Replicas deduplicate by (client, seq) session tables and cache the last
// reply per client, so retransmissions are answered without re-execution
// (see internal/smr/session.go).
package client

import (
	"bytes"
	"errors"
	"sync"
	"time"

	"repro/internal/msg"
	"repro/internal/quorum"
	"repro/internal/types"
)

// Errors returned by Execute.
var (
	// ErrTimeout is returned when no reply quorum formed within the
	// configured number of retransmission rounds.
	ErrTimeout = errors.New("client: no reply quorum within the retry budget")
	// ErrClosed is returned by operations on a closed client.
	ErrClosed = errors.New("client: closed")
)

// Transport carries requests from the client to the n replicas and replies
// back. Implementations must authenticate the `from` of delivered replies
// (the f+1 matching-reply rule counts distinct replicas).
type Transport interface {
	// Send delivers one request to replica `to`. Delivery may fail fast
	// (e.g. the replica is down); a failed send to the leader alone makes
	// the client send to the other replicas at once, and any other failure
	// is silence, recovered by retransmission.
	Send(to types.ProcessID, req *msg.Request) error
	// SetHandler installs the reply callback. It must be called before the
	// first Send; replies arriving for unknown sequence numbers are
	// discarded by the client.
	SetHandler(h func(from types.ProcessID, rep *msg.Reply))
	// Close releases the transport.
	Close() error
}

// Config parameterizes a Client.
type Config struct {
	// Cluster is the resilience configuration of the replica group.
	Cluster types.Config
	// ID is this client's session identifier. Reusing an identifier
	// resumes the session: sequence numbers must keep increasing, so a
	// restarting client needs a fresh identifier (or its old high-water
	// mark).
	ID types.ClientID
	// Timeout is one retransmission round (500ms if zero): how long to
	// wait for a reply quorum before retransmitting the request.
	Timeout time.Duration
	// Retries bounds the retransmission rounds per request (20 if zero).
	Retries int
	// Group is the consensus group this session speaks to: requests are
	// stamped with it, and replies for any other group are rejected — the
	// per-group sessions of one physical client share sequence-number
	// spaces, so without the filter a reply from another group's session
	// could settle this one's request.
	Group uint64
}

// maxHoldShift caps the doubling of Client.hold: after k back-to-back
// direct rounds that timed out, the next 2^min(k, maxHoldShift) requests
// open with a round to every replica. A leader that ignores direct requests
// so costs about log2(r) timeouts over r requests, not one in two.
const maxHoldShift = 16

// Client is one external client session.
type Client struct {
	cfg    Config
	need   int             // matching replies required: f+1
	leader types.ProcessID // the group's view-1 leader, a direct round's target
	tr     Transport

	execMu sync.Mutex // serializes Execute: one in-flight request per session
	// Guarded by execMu: whether a first round may go to the leader alone.
	direct bool // an earlier request settled in its first round
	misses int  // back-to-back direct rounds that timed out
	hold   int  // requests left whose first round goes to every replica

	mu      sync.Mutex
	closed  bool
	seq     uint64
	waiters map[uint64]*waiter
}

// waiter accumulates replies for one outstanding sequence number.
type waiter struct {
	done    chan struct{}
	votes   map[types.ProcessID][]byte // per-replica result (latest wins)
	settled bool
	closed  bool // settled by Close, not by a reply quorum
	result  []byte
}

// New builds a client over tr. The transport's reply handler is installed
// here; the caller must not replace it.
func New(cfg Config, tr Transport) (*Client, error) {
	if err := cfg.Cluster.Validate(); err != nil {
		return nil, err
	}
	if len(cfg.ID) == 0 {
		return nil, errors.New("client: empty client id")
	}
	if len(cfg.ID) > msg.MaxClientID {
		return nil, errors.New("client: client id too long")
	}
	if tr == nil {
		return nil, errors.New("client: nil transport")
	}
	if cfg.Timeout <= 0 {
		cfg.Timeout = 500 * time.Millisecond
	}
	if cfg.Retries <= 0 {
		cfg.Retries = 20
	}
	c := &Client{
		cfg:     cfg,
		need:    quorum.New(cfg.Cluster).CertQuorum(),
		leader:  cfg.Cluster.WithLeaderShift(cfg.Group).Leader(1),
		tr:      tr,
		waiters: make(map[uint64]*waiter),
	}
	tr.SetHandler(c.onReply)
	return c, nil
}

// ID returns the client's session identifier.
func (c *Client) ID() types.ClientID { return c.cfg.ID }

// Seq returns the highest sequence number assigned so far.
func (c *Client) Seq() uint64 {
	c.mu.Lock()
	defer c.mu.Unlock()
	return c.seq
}

// Execute submits one operation and blocks until f+1 replicas report a
// matching result (which it returns), the retry budget is exhausted
// (ErrTimeout), or the client is closed. Calls are serialized: the session
// keeps exactly one request in flight, as exactly-once execution requires.
func (c *Client) Execute(op []byte) ([]byte, error) {
	c.execMu.Lock()
	defer c.execMu.Unlock()

	c.mu.Lock()
	if c.closed {
		c.mu.Unlock()
		return nil, ErrClosed
	}
	c.seq++
	seq := c.seq
	w := &waiter{done: make(chan struct{}), votes: make(map[types.ProcessID][]byte)}
	c.waiters[seq] = w
	c.mu.Unlock()
	defer func() {
		c.mu.Lock()
		delete(c.waiters, seq)
		c.mu.Unlock()
	}()

	req := &msg.Request{Client: c.cfg.ID, Seq: seq, Op: op, Group: c.cfg.Group}
	direct := c.firstRound(req)

	timer := time.NewTimer(c.cfg.Timeout)
	defer timer.Stop()
	for round := 0; ; round++ {
		select {
		case <-w.done:
			c.mu.Lock()
			res, closed := w.result, w.closed
			c.mu.Unlock()
			if closed {
				return nil, ErrClosed
			}
			if round == 0 {
				c.direct = true
				if direct {
					c.misses = 0
				}
			}
			return res, nil
		case <-timer.C:
			if round >= c.cfg.Retries {
				return nil, ErrTimeout
			}
			if round == 0 && direct {
				// The leader may be dead, deaf to clients or no longer
				// proposing: open the next requests with rounds to all.
				c.misses++
				c.hold = 1 << min(c.misses, maxHoldShift)
			}
			// No quorum in time: messages were lost, a replica may be
			// faulty, or the cluster is mid view change — retransmit to
			// every replica. Replicas that already executed seq answer from
			// their reply cache without re-executing.
			c.submit(req, types.NoProcess)
			timer.Reset(c.cfg.Timeout)
		}
	}
}

// firstRound sends req's first round and reports whether it went to the
// leader alone. The caller holds execMu.
func (c *Client) firstRound(req *msg.Request) bool {
	skip := types.NoProcess
	if c.hold > 0 {
		c.hold--
	} else if c.direct {
		if c.tr.Send(c.leader, req) == nil {
			return true
		}
		skip = c.leader // it failed just now; the rest go at once
	}
	c.submit(req, skip)
	return false
}

// submit sends req to every replica but skip, the leader first: it is the
// replica that proposes, and duplicates are dropped by the replicas'
// session tables.
func (c *Client) submit(req *msg.Request, skip types.ProcessID) {
	n := c.cfg.Cluster.N
	for i := 0; i < n; i++ {
		if p := types.ProcessID((int(c.leader) + i) % n); p != skip {
			_ = c.tr.Send(p, req)
		}
	}
}

// onReply tallies one replica's reply; f+1 matching results settle the
// request.
func (c *Client) onReply(from types.ProcessID, rep *msg.Reply) {
	if rep == nil || rep.Client != c.cfg.ID || !from.Valid(c.cfg.Cluster.N) {
		return
	}
	if rep.Group != c.cfg.Group {
		return // another group's session; see Config.Group
	}
	if rep.Replica != from {
		return // a replica may only speak for itself
	}
	c.mu.Lock()
	defer c.mu.Unlock()
	w := c.waiters[rep.Seq]
	if w == nil || w.settled {
		return
	}
	w.votes[from] = rep.Result
	matching := 0
	for _, res := range w.votes {
		if bytes.Equal(res, rep.Result) {
			matching++
		}
	}
	if matching < c.need {
		return
	}
	w.settled = true
	w.result = append([]byte(nil), rep.Result...)
	close(w.done)
}

// Close releases the client and its transport; blocked Execute calls
// return.
func (c *Client) Close() error {
	c.mu.Lock()
	if c.closed {
		c.mu.Unlock()
		return nil
	}
	c.closed = true
	for _, w := range c.waiters {
		if !w.settled {
			w.settled, w.closed = true, true
			close(w.done)
		}
	}
	c.mu.Unlock()
	return c.tr.Close()
}
