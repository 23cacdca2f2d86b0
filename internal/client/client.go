// Package client implements an external client of the replicated state
// machine, following the PBFT client protocol shape: the client assigns
// per-session monotonically increasing sequence numbers, submits each
// request to the cluster (preferred entry replica first — replicas reply
// only to clients that contacted them directly, so reaching f+1 distinct
// replicas is what makes a reply quorum possible), retransmits when the
// quorum does not form in time (lost messages, a crashed entry replica, a
// view change in progress), and accepts a result once f+1 replicas return
// matching replies for the sequence number — at least one of the f+1 is
// correct, so the result is the one the replicated state machine actually
// computed.
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
	// (e.g. the replica is down); the client treats failures as silence
	// and falls back to retransmission.
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
	// Entry is the initial entry replica — the presumed leader, contacted
	// first on every submission. A correct follower relays a fresh
	// request to the view-1 leader, so the entry choice affects latency,
	// not safety; after a timeout the session redirects to a replica that
	// demonstrably answers.
	Entry types.ProcessID
	// Group is the consensus group this session speaks to: requests are
	// stamped with it, and replies for any other group are rejected — the
	// per-group sessions of one physical client share sequence-number
	// spaces, so without the filter a reply from another group's session
	// could settle this one's request.
	Group uint64
}

// Client is one external client session.
type Client struct {
	cfg  Config
	need int // matching replies required: f+1
	tr   Transport

	execMu sync.Mutex // serializes Execute: one in-flight request per session

	mu      sync.Mutex
	closed  bool
	seq     uint64
	entry   types.ProcessID
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
	if !cfg.Entry.Valid(cfg.Cluster.N) {
		cfg.Entry = 0
	}
	c := &Client{
		cfg:     cfg,
		need:    quorum.New(cfg.Cluster).CertQuorum(),
		tr:      tr,
		entry:   cfg.Entry,
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
	entry := c.entry
	c.mu.Unlock()
	defer func() {
		c.mu.Lock()
		delete(c.waiters, seq)
		c.mu.Unlock()
	}()

	req := &msg.Request{Client: c.cfg.ID, Seq: seq, Op: op, Group: c.cfg.Group}
	// Submit to the whole cluster, entry replica first: replicas only reply
	// to clients that contacted them directly, and the f+1 matching-reply
	// rule needs answers from at least f+1 distinct replicas — an
	// entry-only first round could never settle. Sending to the entry
	// replica first keeps it the likely proposer; duplicates are dropped by
	// the replicas' session tables.
	c.submit(entry, req)

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
			return res, nil
		case <-timer.C:
			if round >= c.cfg.Retries {
				return nil, ErrTimeout
			}
			// No quorum in time: messages were lost, the entry replica may
			// be faulty, or the cluster is mid view change — retransmit.
			// Replicas that already executed seq answer from their reply
			// cache without re-executing.
			c.mu.Lock()
			entry = c.entry
			c.mu.Unlock()
			c.submit(entry, req)
			timer.Reset(c.cfg.Timeout)
		}
	}
}

// submit sends req to every replica, the preferred entry replica first.
func (c *Client) submit(entry types.ProcessID, req *msg.Request) {
	_ = c.tr.Send(entry, req)
	for p := 0; p < c.cfg.Cluster.N; p++ {
		if types.ProcessID(p) != entry {
			_ = c.tr.Send(types.ProcessID(p), req)
		}
	}
}

// onReply tallies one replica's reply; f+1 matching results settle the
// request and redirect the session to a demonstrably live entry replica.
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
	// Prefer a replica that demonstrably answers; if the old entry replica
	// was dead or demoted, this is the redirect after the view change.
	c.entry = from
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
