package main

import (
	"encoding/json"
	"os"
	"path/filepath"
	"sort"
	"sync"
	"time"
)

// Spans are recorded from the benchmark's own files, around the calls into
// each layer (see traced.go); spans inside the program are a later change.
// They stay in memory and are written out when the run ends.

// spanKind names the call a span was recorded around.
type spanKind uint8

const (
	// kindHandler is the inbound peer-frame handler of one consensus group:
	// smr routing plus the core protocol step, with its signature, send and
	// apply calls nested inside.
	kindHandler spanKind = iota
	// kindRequest is the client-request handler (smr.Replica.HandleRequest).
	kindRequest
	kindSign
	kindVerify
	// kindSend covers Transport.Send and Transport.Broadcast: enqueueing a
	// frame, not the socket write, which happens on the peer's own goroutine.
	kindSend
	kindApply
	// kindClientSend and kindClientReply are the client's transport: one
	// request frame written, one reply delivered to the session.
	kindClientSend
	kindClientReply
)

var kindNames = [...]string{"handler", "request", "sign", "verify", "send", "apply", "client-send", "client-reply"}

// topLevel reports whether spans of this kind hold the replica lock of
// their group for their useful part, with the other replica kinds nested
// inside them.
func (k spanKind) topLevel() bool { return k == kindHandler || k == kindRequest }

// clientNode is the node number of spans recorded on the client side.
const clientNode = -1

// span is one recorded call. Times are nanoseconds since the tracer began.
type span struct {
	kind       spanKind
	node       int // replica index, or clientNode
	group      int
	start, end int64
	// id ties the spans of one request together: the log slot on the
	// replica side, the session's sequence number on the client side (a
	// reply names both, which joins the two).
	id uint64
	// parent is the index of the enclosing top-level span, or -1.
	parent int
	// wait is the part of a top-level span spent queued behind an earlier
	// span of the same replica and group; self is what remains after the
	// wait and the children are taken out.
	wait, self int64
}

func (s *span) dur() int64 { return s.end - s.start }

// maxSpans bounds the tracer's memory; a run that would exceed it stops
// recording and says so.
const maxSpans = 4 << 20

// tracer collects spans from every wrapper of a traced cluster.
type tracer struct {
	begin time.Time
	mu    sync.Mutex
	spans []span
	full  bool
	// client is shared by the transports of every traced session.
	client *clientStats
}

func newTracer() *tracer {
	return &tracer{begin: time.Now(), spans: make([]span, 0, 1<<18)}
}

// now is the tracer's clock.
func (t *tracer) now() int64 { return int64(time.Since(t.begin)) }

// record stores one finished span.
func (t *tracer) record(kind spanKind, node, group int, id uint64, start int64) {
	end := t.now()
	t.mu.Lock()
	if len(t.spans) < maxSpans {
		t.spans = append(t.spans, span{kind: kind, node: node, group: group, id: id, start: start, end: end, parent: -1})
	} else {
		t.full = true
	}
	t.mu.Unlock()
}

// window returns the spans that started in [from, to), sorted by start.
func (t *tracer) window(from, to int64) []span {
	t.mu.Lock()
	defer t.mu.Unlock()
	var out []span
	for _, s := range t.spans {
		if s.start >= from && s.start < to {
			out = append(out, s)
		}
	}
	sort.SliceStable(out, func(i, j int) bool { return out[i].start < out[j].start })
	return out
}

// attribute fills in parent, wait and self for spans sorted by start.
//
// A replica serializes the work of one group behind one lock, so of the
// top-level spans of one (replica, group) open at an instant, the one that
// started first is running and the others are queued behind it. A top-level
// span's own interval is therefore what is left of it after the spans that
// started before it have ended; the time before that is its wait. A nested
// span belongs to the top-level span whose own interval it starts in, and a
// span's self time is its own interval minus its children.
func attribute(spans []span) {
	type domain struct{ node, group int }
	type owned struct {
		from, to int64
		idx      int
	}
	own := make(map[domain][]owned)
	covered := make(map[domain]int64)
	for i := range spans {
		s := &spans[i]
		s.parent = -1
		if !s.kind.topLevel() {
			s.self = s.dur()
			continue
		}
		d := domain{s.node, s.group}
		from := s.start
		if c := covered[d]; c > from {
			from = c
		}
		if from > s.end {
			from = s.end
		}
		s.wait = from - s.start
		s.self = s.end - from
		if s.end > covered[d] {
			covered[d] = s.end
		}
		if s.self > 0 {
			own[d] = append(own[d], owned{from: from, to: s.end, idx: i})
		}
	}
	for i := range spans {
		s := &spans[i]
		if s.kind.topLevel() || s.node == clientNode {
			continue
		}
		// Own intervals of one domain are disjoint and sorted by start.
		iv := own[domain{s.node, s.group}]
		k := sort.Search(len(iv), func(k int) bool { return iv[k].to > s.start })
		if k == len(iv) || iv[k].from > s.start {
			continue
		}
		s.parent = iv[k].idx
		p := &spans[s.parent]
		p.self -= s.dur()
		if p.self < 0 {
			p.self = 0
		}
	}
}

// layerBusy adds up, per layer, the time the attributed spans account for.
type layerBusy struct {
	sign, verify, send, apply int64
	handlerSelf, handlerWait  int64
	client                    int64
	counts                    [len(kindNames)]int
}

func sumLayers(spans []span) layerBusy {
	var b layerBusy
	for i := range spans {
		s := &spans[i]
		b.counts[s.kind]++
		switch s.kind {
		case kindHandler, kindRequest:
			b.handlerSelf += s.self
			b.handlerWait += s.wait
		case kindSign:
			b.sign += s.dur()
		case kindVerify:
			b.verify += s.dur()
		case kindSend:
			b.send += s.dur()
		case kindApply:
			b.apply += s.dur()
		case kindClientSend, kindClientReply:
			b.client += s.dur()
		}
	}
	return b
}

// total is the time all layers together account for.
func (b layerBusy) total() int64 {
	return b.sign + b.verify + b.send + b.apply + b.handlerSelf + b.client
}

// traceFileSpans bounds the spans written to a trace file: the first ones
// of the measured window, so that every written child has its parent.
const traceFileSpans = 50_000

// spanJSON is one span of a trace file. Times are nanoseconds since the
// start of the measured window.
type spanJSON struct {
	Name   string `json:"name"`
	Node   int    `json:"node"`
	Group  int    `json:"group"`
	Start  int64  `json:"start_ns"`
	End    int64  `json:"end_ns"`
	Parent int    `json:"parent"`
	ID     uint64 `json:"id"`
	Self   int64  `json:"self_ns"`
	Wait   int64  `json:"wait_ns,omitempty"`
}

// traceFile is the content of results/trace-<workload>.json.
type traceFile struct {
	Workload   string     `json:"workload"`
	Seed       int64      `json:"seed"`
	WindowNS   int64      `json:"window_ns"`
	SpansTotal int        `json:"spans_total"`
	Truncated  bool       `json:"truncated"`
	Spans      []spanJSON `json:"spans"`
}

// writeTrace writes the attributed spans of a traced episode's window.
func writeTrace(path string, seed int64, ep *episode, full bool) error {
	tf := traceFile{
		Workload: ep.w.name, Seed: seed, WindowNS: int64(ep.winEnd - ep.winStart),
		SpansTotal: len(ep.spans), Truncated: full,
	}
	n := len(ep.spans)
	if n > traceFileSpans {
		n = traceFileSpans
	}
	tf.Spans = make([]spanJSON, 0, n)
	for i := range ep.spans[:n] {
		s := &ep.spans[i]
		tf.Spans = append(tf.Spans, spanJSON{
			Name: kindNames[s.kind], Node: s.node, Group: s.group,
			Start: s.start - ep.spanOrigin, End: s.end - ep.spanOrigin,
			Parent: s.parent, ID: s.id, Self: s.self, Wait: s.wait,
		})
	}
	if err := os.MkdirAll(filepath.Dir(path), 0o755); err != nil {
		return err
	}
	data, err := json.Marshal(tf)
	if err != nil {
		return err
	}
	return os.WriteFile(path, data, 0o644)
}
