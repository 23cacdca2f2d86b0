package client

import (
	"sync"

	"repro/internal/msg"
	"repro/internal/types"
)

// Demux shares one client Transport — typically a single set of TCP
// connections to the cluster — among a client's per-group sessions. Each
// group gets its own Transport view; sends pass through, and replies are
// routed to the view named by their Group echo. Process identifiers are the
// same in every view.
//
// Close is reference-counted: the inner transport closes when the last view
// closes, so the per-group sessions tear down independently.
type Demux struct {
	inner  Transport
	n      int
	mu     sync.Mutex
	views  []*demuxView
	closed bool
}

// NewDemux wraps inner into one view per group for an n-process cluster.
// The caller must not use inner directly once the demux owns it; the demux
// installs the inner handler immediately.
func NewDemux(inner Transport, n, groups int) *Demux {
	d := &Demux{inner: inner, n: n, views: make([]*demuxView, groups)}
	for g := range d.views {
		d.views[g] = &demuxView{demux: d}
	}
	inner.SetHandler(d.dispatch)
	return d
}

// View returns group g's Transport view.
func (d *Demux) View(g int) Transport { return d.views[g] }

// dispatch routes one reply to the view of the group that sent it.
func (d *Demux) dispatch(from types.ProcessID, rep *msg.Reply) {
	if rep == nil || rep.Group >= uint64(len(d.views)) || !from.Valid(d.n) {
		return
	}
	d.mu.Lock()
	v := d.views[rep.Group]
	h := v.handler
	d.mu.Unlock()
	if h != nil {
		h(from, rep)
	}
}

// viewClosed closes the inner transport once every view has closed.
func (d *Demux) viewClosed() error {
	d.mu.Lock()
	if d.closed {
		d.mu.Unlock()
		return nil
	}
	for _, v := range d.views {
		if !v.closed {
			d.mu.Unlock()
			return nil
		}
	}
	d.closed = true
	d.mu.Unlock()
	return d.inner.Close()
}

// demuxView is one group's client transport over the shared demux.
type demuxView struct {
	demux *Demux

	// handler/closed are guarded by demux.mu.
	handler func(from types.ProcessID, rep *msg.Reply)
	closed  bool
}

var _ Transport = (*demuxView)(nil)

// Send implements Transport.
func (v *demuxView) Send(to types.ProcessID, req *msg.Request) error {
	return v.demux.inner.Send(to, req)
}

// SetHandler implements Transport.
func (v *demuxView) SetHandler(h func(from types.ProcessID, rep *msg.Reply)) {
	v.demux.mu.Lock()
	defer v.demux.mu.Unlock()
	v.handler = h
}

// Close implements Transport. The inner transport closes once every view
// has closed.
func (v *demuxView) Close() error {
	v.demux.mu.Lock()
	if v.closed {
		v.demux.mu.Unlock()
		return nil
	}
	v.closed = true
	v.demux.mu.Unlock()
	return v.demux.viewClosed()
}
