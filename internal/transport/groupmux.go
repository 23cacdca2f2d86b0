package transport

import (
	"encoding/binary"
	"fmt"
	"strconv"
	"sync"

	"repro/internal/obs"
	"repro/internal/types"
)

// GroupMux routes the frames of several independent consensus groups over
// one underlying Transport, so a process can host N groups over a single set
// of authenticated channels instead of N listeners and N×n connections.
// Every replica-to-replica frame leads with its group number (one uvarint,
// written by the SMR layer as part of its frame header); the mux peeks at it
// and hands the whole frame, untouched, to that group's view. Outbound
// frames pass through as they are — a frame is bit-identical whether its
// replica sits behind a view or on the raw transport.
//
// Start and Close are reference-counted against the views. The inner
// transport starts only when every view has started — by which point every
// view's handler is installed, so the first delivered payload always finds
// its group's handler (the channels are reliable; dropping early traffic
// would silently break that promise). Symmetrically, the inner transport
// closes when the last view closes.
type GroupMux struct {
	inner  Transport
	groups int

	mu      sync.Mutex
	views   []*groupView
	started int
	closed  bool
}

// NewGroupMux wraps inner into groups independent transport views. The
// caller must not use inner directly once the mux owns it.
func NewGroupMux(inner Transport, groups int) *GroupMux {
	m := &GroupMux{inner: inner, groups: groups, views: make([]*groupView, groups)}
	for g := 0; g < groups; g++ {
		m.views[g] = &groupView{mux: m, group: uint64(g)}
	}
	m.Instrument(nil, nil) // live but unexported counters until Instrument
	return m
}

// Instrument registers per-group frame counters in reg (labels ls plus a
// group label). Call before any view starts; a nil registry leaves the
// counters live but unexported.
func (m *GroupMux) Instrument(reg *obs.Registry, ls obs.Labels) {
	for _, v := range m.views {
		gl := ls.With("group", strconv.FormatUint(v.group, 10))
		v.mFramesIn = reg.Counter("fastbft_mux_frames_in_total", "frames dispatched to this group's handler", gl)
		v.mFramesOut = reg.Counter("fastbft_mux_frames_out_total", "frames this group sent or broadcast (a broadcast counts once)", gl)
	}
}

// View returns group g's Transport view. Views are singletons: the same
// group always yields the same view.
func (m *GroupMux) View(g int) Transport { return m.views[g] }

// dispatch peeks at the group prefix and routes the frame, prefix included,
// to the group's handler. Malformed or out-of-range prefixes are dropped —
// the inner transport authenticated the sender, so this only happens with a
// Byzantine peer, and dropping is the cheapest response.
func (m *GroupMux) dispatch(from types.ProcessID, payload []byte) {
	g, n := binary.Uvarint(payload)
	if n <= 0 || g >= uint64(m.groups) {
		return
	}
	m.mu.Lock()
	v := m.views[g]
	h := v.handler
	m.mu.Unlock()
	if h != nil {
		v.mFramesIn.Inc()
		h(from, payload)
	}
}

// viewStarted records one view's Start; the last one installs the dispatch
// handler and starts the inner transport.
func (m *GroupMux) viewStarted() error {
	m.mu.Lock()
	if m.closed {
		m.mu.Unlock()
		return ErrClosed
	}
	m.started++
	ready := m.started == m.groups
	m.mu.Unlock()
	if !ready {
		return nil
	}
	m.inner.SetHandler(m.dispatch)
	return m.inner.Start()
}

// viewClosed records one view's Close; the last one closes the inner
// transport.
func (m *GroupMux) viewClosed() error {
	m.mu.Lock()
	if m.closed {
		m.mu.Unlock()
		return nil
	}
	for _, v := range m.views {
		if !v.closed {
			m.mu.Unlock()
			return nil
		}
	}
	m.closed = true
	m.mu.Unlock()
	return m.inner.Close()
}

// groupView is one group's endpoint over the shared mux.
type groupView struct {
	mux   *GroupMux
	group uint64

	mFramesIn, mFramesOut *obs.Counter

	// handler/started/closed are guarded by mux.mu: the mux reads the
	// handler on every dispatch, and Start/Close bookkeeping spans views.
	handler Handler
	started bool
	closed  bool
}

var _ Transport = (*groupView)(nil)

// Self implements Transport.
func (v *groupView) Self() types.ProcessID { return v.mux.inner.Self() }

// Send implements Transport.
func (v *groupView) Send(to types.ProcessID, payload []byte) error {
	v.mFramesOut.Inc()
	return v.mux.inner.Send(to, payload)
}

// Broadcast implements Transport.
func (v *groupView) Broadcast(payload []byte) error {
	v.mFramesOut.Inc()
	return v.mux.inner.Broadcast(payload)
}

// SetHandler implements Transport.
func (v *groupView) SetHandler(h Handler) {
	v.mux.mu.Lock()
	defer v.mux.mu.Unlock()
	v.handler = h
}

// Start implements Transport. The inner transport starts once every view
// has started (see GroupMux).
func (v *groupView) Start() error {
	v.mux.mu.Lock()
	if v.closed {
		v.mux.mu.Unlock()
		return ErrClosed
	}
	if v.started {
		v.mux.mu.Unlock()
		return nil
	}
	if v.handler == nil {
		v.mux.mu.Unlock()
		return fmt.Errorf("groupmux group %d: %w", v.group, errNoHandler)
	}
	v.started = true
	v.mux.mu.Unlock()
	return v.mux.viewStarted()
}

// Close implements Transport. The inner transport closes once every view
// has closed.
func (v *groupView) Close() error {
	v.mux.mu.Lock()
	if v.closed {
		v.mux.mu.Unlock()
		return nil
	}
	v.closed = true
	v.mux.mu.Unlock()
	return v.mux.viewClosed()
}
