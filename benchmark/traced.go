package main

import (
	"encoding/binary"
	"fmt"
	"strconv"
	"sync"

	fastbft "repro"
	"repro/internal/client"
	"repro/internal/group"
	"repro/internal/msg"
	"repro/internal/obs"
	"repro/internal/sigcrypto"
	"repro/internal/smr"
	"repro/internal/storage"
	"repro/internal/transport"
	"repro/internal/types"
)

// The traced replica is the stack fastbft.NewKVReplica builds — TCP
// transport, group mux, one group per shard, client listener — assembled
// here so that group.Config can be handed span-recording wrappers around
// the signer, the verifier, the group's transport view (sends and the
// inbound handler) and the application. The store is opened inside
// group.New and cannot be wrapped; storage is covered by the registry and
// by the isolated timings.

// tracedNode is one traced replica process.
type tracedNode struct {
	tr       *transport.TCPTransport
	clientLn *transport.ClientListener
	groups   []*group.Group
	stores   []*smr.KVStore
	reg      *obs.Registry
	shards   int
}

// newTracedNode mirrors fastbft.NewKVReplica with the wrappers in place.
func newTracedNode(c *cluster, i int, dataDir string) (node, error) {
	self := types.ProcessID(i)
	scheme := sigcrypto.NewEd25519Deterministic(c.cfg.N, c.keySeed)
	reg := obs.NewRegistry()
	labels := obs.Labels{"replica": strconv.Itoa(i)}
	lg := quietLogger().With("replica", i)
	mode, err := storage.ParseSyncMode("group")
	if err != nil {
		return nil, err
	}
	tr, err := transport.NewTCP(transport.TCPConfig{
		Self: self, N: c.cfg.N, ListenAddr: "127.0.0.1:0",
		Signer: scheme.Signer(self), Verifier: scheme.Verifier(),
		Metrics: reg, MetricsLabels: labels,
	})
	if err != nil {
		return nil, err
	}
	nd := &tracedNode{tr: tr, reg: reg, shards: c.w.shards}
	var mux *transport.GroupMux
	if nd.shards > 1 {
		mux = transport.NewGroupMux(tr, nd.shards)
		mux.Instrument(reg, labels)
	}
	for g := 0; g < nd.shards; g++ {
		view := transport.Transport(tr)
		if mux != nil {
			view = mux.View(g)
		}
		store := smr.NewKVStore()
		grp, err := group.New(group.Config{
			Cluster: c.cfg, Index: g, Shards: nd.shards, Self: self,
			Signer:             &tracedSigner{inner: scheme.Signer(self), t: c.tr, node: i, group: g},
			Verifier:           &tracedVerifier{inner: scheme.Verifier(), t: c.tr, node: i, group: g},
			Transport:          &tracedTransport{Transport: view, t: c.tr, node: i, group: g},
			App:                &tracedApp{KVStore: store, t: c.tr, node: i, group: g},
			WindowSize:         windowSize,
			MaxBatch:           c.w.maxBatch,
			CheckpointInterval: checkpointInterval,
			DataDir:            dataDir,
			SyncMode:           mode,
			Metrics:            reg,
			MetricsLabels:      labels,
			Logger:             lg,
		})
		if err != nil {
			_ = nd.Close() // the construction error is the one to report
			return nil, err
		}
		nd.groups = append(nd.groups, grp)
		nd.stores = append(nd.stores, store)
	}
	ln, err := transport.NewClientListener(transport.ClientListenerConfig{
		Self: self, ListenAddr: "127.0.0.1:0", Signer: scheme.Signer(self),
		Handler: func(req *msg.Request, reply func(*msg.Reply)) error {
			if req.Group >= uint64(len(nd.groups)) {
				return fmt.Errorf("request for group %d of %d", req.Group, len(nd.groups))
			}
			start := c.tr.now()
			err := nd.groups[req.Group].Replica().HandleRequest(req, reply)
			c.tr.record(kindRequest, i, int(req.Group), req.Seq, start)
			return err
		},
	})
	if err != nil {
		_ = nd.Close() // the construction error is the one to report
		return nil, err
	}
	nd.clientLn = ln
	return nd, nil
}

func (nd *tracedNode) Addr() string                      { return nd.tr.Addr() }
func (nd *tracedNode) ClientAddr() string                { return nd.clientLn.Addr() }
func (nd *tracedNode) SetPeers(addrs []string) error     { return nd.tr.SetPeers(addrs) }
func (nd *tracedNode) Metrics() *fastbft.MetricsRegistry { return nd.reg }

func (nd *tracedNode) Start() error {
	for _, g := range nd.groups {
		if err := g.Start(); err != nil {
			return err
		}
	}
	return nd.clientLn.Start()
}

// Close stops the listener and every group; the shared transport closes
// with the last group (or here, if no group was built yet).
func (nd *tracedNode) Close() error {
	if nd.clientLn != nil {
		_ = nd.clientLn.Close() // the groups' errors matter more
	}
	if len(nd.groups) == 0 {
		return nd.tr.Close()
	}
	var err error
	for _, g := range nd.groups {
		if cerr := g.Close(); err == nil {
			err = cerr
		}
	}
	return err
}

func (nd *tracedNode) Get(key string) (string, bool) {
	return nd.stores[smr.ShardOf(key, nd.shards)].Get(key)
}

func (nd *tracedNode) AppliedOps() uint64 {
	var total uint64
	for _, st := range nd.stores {
		total += st.AppliedOps()
	}
	return total
}

// tracedSigner records a span around every signature a group makes.
type tracedSigner struct {
	inner       sigcrypto.Signer
	t           *tracer
	node, group int
}

func (s *tracedSigner) ID() types.ProcessID { return s.inner.ID() }

func (s *tracedSigner) Sign(m []byte) sigcrypto.Signature {
	start := s.t.now()
	sig := s.inner.Sign(m)
	s.t.record(kindSign, s.node, s.group, 0, start)
	return sig
}

// tracedVerifier records a span around every signature check.
type tracedVerifier struct {
	inner       sigcrypto.Verifier
	t           *tracer
	node, group int
}

func (v *tracedVerifier) Verify(m []byte, sig sigcrypto.Signature) bool {
	start := v.t.now()
	ok := v.inner.Verify(m, sig)
	v.t.record(kindVerify, v.node, v.group, 0, start)
	return ok
}

// tracedTransport records spans around a group's sends and around its
// inbound handler. The handler span carries the log slot from the frame's
// envelope (reserved control slots included) as its request identifier.
type tracedTransport struct {
	transport.Transport
	t           *tracer
	node, group int
}

func (tt *tracedTransport) Send(to types.ProcessID, payload []byte) error {
	start := tt.t.now()
	err := tt.Transport.Send(to, payload)
	tt.t.record(kindSend, tt.node, tt.group, 0, start)
	return err
}

func (tt *tracedTransport) Broadcast(payload []byte) error {
	start := tt.t.now()
	err := tt.Transport.Broadcast(payload)
	tt.t.record(kindSend, tt.node, tt.group, 0, start)
	return err
}

func (tt *tracedTransport) SetHandler(h transport.Handler) {
	if h == nil {
		tt.Transport.SetHandler(nil)
		return
	}
	tt.Transport.SetHandler(func(from types.ProcessID, payload []byte) {
		slot, _ := binary.Uvarint(payload)
		start := tt.t.now()
		h(from, payload)
		tt.t.record(kindHandler, tt.node, tt.group, slot, start)
	})
}

// tracedApp records a span around every applied command. Snapshot and
// Restore pass through to the embedded store.
type tracedApp struct {
	*smr.KVStore
	t           *tracer
	node, group int
}

func (a *tracedApp) Apply(slot uint64, cmd smr.Command) []byte {
	start := a.t.now()
	res := a.KVStore.Apply(slot, cmd)
	a.t.record(kindApply, a.node, a.group, slot, start)
	return res
}

// tracedSession is fastbft.KVClient over a span-recording client
// transport: one session per group, keys routed by shard.
type tracedSession struct {
	shards int
	inners []*client.Client
}

// newTracedSession mirrors fastbft.NewShardedKVNetworkClient.
func newTracedSession(c *cluster, id string) (session, error) {
	scheme := sigcrypto.NewEd25519Deterministic(c.cfg.N, c.keySeed)
	tcp, err := client.NewTCP(client.TCPConfig{
		N: c.cfg.N, Addrs: append([]string(nil), c.clientAddrs...), Verifier: scheme.Verifier(),
	})
	if err != nil {
		return nil, err
	}
	ct := &tracedClientTransport{
		Transport: tcp, t: c.tr, stats: c.tr.clientStats(c.cfg.F + 1), reqs: make(map[reqKey]*reqTrace),
	}
	s := &tracedSession{shards: c.w.shards}
	views := []client.Transport{ct}
	if s.shards > 1 {
		demux := client.NewDemux(ct, c.cfg.N, s.shards)
		views = views[:0]
		for g := 0; g < s.shards; g++ {
			views = append(views, demux.View(g))
		}
	}
	for g, view := range views {
		inner, err := client.New(client.Config{
			Cluster: c.cfg, ID: types.ClientID(id), Timeout: clientTimeout, Group: uint64(g),
		}, view)
		if err != nil {
			_ = s.Close() // the construction error is the one to report
			for _, rest := range views[g:] {
				_ = rest.Close() // releases the remaining references on tcp
			}
			return nil, err
		}
		s.inners = append(s.inners, inner)
	}
	return s, nil
}

func (s *tracedSession) inner(key string) *client.Client {
	return s.inners[smr.ShardOf(key, s.shards)]
}

func (s *tracedSession) Set(key, value string) (string, error) {
	res, err := s.inner(key).Execute(smr.EncodeKV(smr.KVCommand{Op: smr.OpSet, Key: key, Value: value}))
	return string(res), err
}

func (s *tracedSession) Delete(key string) (string, error) {
	res, err := s.inner(key).Execute(smr.EncodeKV(smr.KVCommand{Op: smr.OpDel, Key: key}))
	return string(res), err
}

func (s *tracedSession) Close() error {
	var err error
	for _, in := range s.inners {
		if cerr := in.Close(); err == nil {
			err = cerr
		}
	}
	return err
}

// clientCounts is what the sessions' transports have done so far.
type clientCounts struct {
	// sends counts request frames handed to the transport; resends the ones
	// that repeat a (session, group, seq, replica) already sent.
	sends, resends, replies int
	// skewNS sums, over the settled requests (those that got f+1 replies),
	// the time from the first reply to the f+1-th.
	skewNS  int64
	settled int
}

// clientStats is the tracer's shared client counters.
type clientStats struct {
	need int // replies that settle a request: f+1
	mu   sync.Mutex
	clientCounts
}

// clientStats returns the tracer's client counters, created on first use.
func (t *tracer) clientStats(need int) *clientStats {
	t.mu.Lock()
	defer t.mu.Unlock()
	if t.client == nil {
		t.client = &clientStats{need: need}
	}
	return t.client
}

// clientSnapshot reads the client counters (zero before any session).
func (t *tracer) clientSnapshot() clientCounts {
	t.mu.Lock()
	cs := t.client
	t.mu.Unlock()
	if cs == nil {
		return clientCounts{}
	}
	cs.mu.Lock()
	defer cs.mu.Unlock()
	return cs.clientCounts
}

// reqKey names one request of one session's transport.
type reqKey struct {
	group, seq uint64
}

// reqTrace is what one session's transport saw of one request.
type reqTrace struct {
	sentTo  map[types.ProcessID]bool
	replies int
	firstNS int64
}

// tracedClientTransport records spans around a session's request sends and
// reply deliveries, and counts sends, retransmissions and replies.
type tracedClientTransport struct {
	client.Transport
	t     *tracer
	stats *clientStats

	mu   sync.Mutex
	reqs map[reqKey]*reqTrace
}

// trace returns the record of a request, creating it on first sight.
func (ct *tracedClientTransport) trace(k reqKey) *reqTrace {
	rt := ct.reqs[k]
	if rt == nil {
		rt = &reqTrace{sentTo: make(map[types.ProcessID]bool)}
		ct.reqs[k] = rt
	}
	return rt
}

func (ct *tracedClientTransport) Send(to types.ProcessID, req *msg.Request) error {
	ct.mu.Lock()
	rt := ct.trace(reqKey{req.Group, req.Seq})
	again := rt.sentTo[to]
	rt.sentTo[to] = true
	ct.mu.Unlock()
	ct.stats.mu.Lock()
	ct.stats.sends++
	if again {
		ct.stats.resends++
	}
	ct.stats.mu.Unlock()

	start := ct.t.now()
	err := ct.Transport.Send(to, req)
	ct.t.record(kindClientSend, clientNode, int(req.Group), req.Seq, start)
	return err
}

func (ct *tracedClientTransport) SetHandler(h func(from types.ProcessID, rep *msg.Reply)) {
	ct.Transport.SetHandler(func(from types.ProcessID, rep *msg.Reply) {
		start := ct.t.now()
		if rep != nil {
			ct.mu.Lock()
			rt := ct.trace(reqKey{rep.Group, rep.Seq})
			rt.replies++
			nth, first := rt.replies, rt.firstNS
			if nth == 1 {
				rt.firstNS = start
			}
			ct.mu.Unlock()
			ct.stats.mu.Lock()
			ct.stats.replies++
			if nth == ct.stats.need {
				ct.stats.skewNS += start - first
				ct.stats.settled++
			}
			ct.stats.mu.Unlock()
		}
		h(from, rep)
		id := uint64(0)
		if rep != nil {
			id = rep.Seq
		}
		ct.t.record(kindClientReply, clientNode, 0, id, start)
	})
}
