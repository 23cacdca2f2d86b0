// Package pbft implements a compact PBFT-style Byzantine consensus protocol
// (Castro & Liskov, OSDI'99) as the latency baseline of the reproduction:
// optimal resilience n = 3f+1 but three message delays in the common case
// (pre-prepare → prepare → commit), against the paper's two.
//
// The implementation is single-decree (one consensus instance, like the
// paper's protocol), uses digital signatures rather than MACs, and reuses
// the repository's wish-based view synchronizer for view entry. The view
// change transfers prepared certificates (2f+1 prepare signatures) to the
// new leader, which proposes the value of the highest prepared certificate,
// proving its choice to every replica inside the new-view message — the
// standard PBFT safety argument.
package pbft

import (
	"errors"
	"fmt"
	"time"

	"repro/internal/core"
	"repro/internal/msg"
	"repro/internal/sigcrypto"
	"repro/internal/types"
	"repro/internal/viewsync"
	"repro/internal/wire"
)

// Message subtypes within msg.ProtoPBFT.
const (
	subPrePrepare uint8 = 1
	subPrepare    uint8 = 2
	subCommit     uint8 = 3
	subState      uint8 = 4 // view-change state report to the new leader
	subNewView    uint8 = 5
)

// Signing domains (distinct from the core protocol's 1–4).
const (
	domainPrePrepare byte = 10
	domainPrepare    byte = 11
	domainCommit     byte = 12
	domainState      byte = 13
)

func digest(domain byte, v types.View, x types.Value) []byte {
	w := wire.NewWriter(16 + len(x))
	w.Uint8(domain)
	w.Uvarint(uint64(v))
	w.BytesField(x)
	return w.Bytes()
}

// MinProcesses returns PBFT's resilience requirement, n = 3f+1.
func MinProcesses(f int) int { return 3*f + 1 }

// preparedCert is a PBFT prepared certificate: 2f+1 prepare signatures for
// (Value, View).
type preparedCert struct {
	value types.Value
	view  types.View
	sigs  []sigcrypto.Signature
}

func (c *preparedCert) encode(w *wire.Writer) {
	w.BytesField(c.value)
	w.Uvarint(uint64(c.view))
	w.Uvarint(uint64(len(c.sigs)))
	for _, s := range c.sigs {
		w.Int32(int32(s.Signer))
		w.BytesField(s.Bytes)
	}
}

func decodePreparedCert(r *wire.Reader) *preparedCert {
	var c preparedCert
	c.value = r.BytesField()
	c.view = types.View(r.Uvarint())
	n := r.SliceLen()
	if r.Err() != nil {
		return nil
	}
	for i := 0; i < n; i++ {
		var s sigcrypto.Signature
		s.Signer = types.ProcessID(r.Int32())
		s.Bytes = r.BytesField()
		c.sigs = append(c.sigs, s)
	}
	if r.Err() != nil {
		return nil
	}
	return &c
}

func (c *preparedCert) verify(ver sigcrypto.Verifier, quorum int) bool {
	if c == nil || c.view < 1 {
		return false
	}
	return sigcrypto.VerifyDistinct(ver, digest(domainPrepare, c.view, c.value), c.sigs, quorum)
}

// stateReport is the view-change report a replica sends to the new leader:
// its highest prepared certificate, if any.
type stateReport struct {
	voter    types.ProcessID
	prepared *preparedCert // nil if never prepared
	phi      sigcrypto.Signature
}

func stateDigest(v types.View, prepared *preparedCert) []byte {
	w := wire.NewWriter(64)
	w.Uint8(domainState)
	w.Uvarint(uint64(v))
	if prepared == nil {
		w.Bool(false)
	} else {
		w.Bool(true)
		prepared.encode(w)
	}
	return w.Bytes()
}

func (s *stateReport) encode(w *wire.Writer) {
	w.Int32(int32(s.voter))
	if s.prepared == nil {
		w.Bool(false)
	} else {
		w.Bool(true)
		s.prepared.encode(w)
	}
	w.Int32(int32(s.phi.Signer))
	w.BytesField(s.phi.Bytes)
}

func decodeStateReport(r *wire.Reader) stateReport {
	var s stateReport
	s.voter = types.ProcessID(r.Int32())
	if r.Bool() {
		s.prepared = decodePreparedCert(r)
	}
	s.phi.Signer = types.ProcessID(r.Int32())
	s.phi.Bytes = r.BytesField()
	return s
}

func (s *stateReport) valid(ver sigcrypto.Verifier, v types.View, quorum int, n int) bool {
	if !s.voter.Valid(n) || s.phi.Signer != s.voter {
		return false
	}
	if s.prepared != nil {
		if s.prepared.view >= v || !s.prepared.verify(ver, quorum) {
			return false
		}
	}
	return ver.Verify(stateDigest(v, s.prepared), s.phi)
}

// Replica is the PBFT state machine for one process.
type Replica struct {
	n, f     int
	id       types.ProcessID
	signer   sigcrypto.Signer
	verifier sigcrypto.Verifier
	input    types.Value

	view     types.View
	accepted types.Value // pre-prepared value in the current view (nil if none)
	prepares map[string]*sigcrypto.Set
	commits  map[string]*sigcrypto.Set
	sentCom  map[string]bool
	prepared *preparedCert
	decided  bool
	decision types.Decision

	leaderStates map[types.ProcessID]stateReport
	newViewSent  bool
	pending      map[types.View][]pendingMsg
	nPend        int
}

type pendingMsg struct {
	from types.ProcessID
	m    *msg.Raw
}

const maxPending = 1024

// NewReplica builds a PBFT replica. n must be at least 3f+1.
func NewReplica(n, f int, id types.ProcessID, signer sigcrypto.Signer, verifier sigcrypto.Verifier, input types.Value) (*Replica, error) {
	if f < 1 || n < MinProcesses(f) {
		return nil, fmt.Errorf("pbft: n=%d below 3f+1 for f=%d", n, f)
	}
	if !id.Valid(n) {
		return nil, errors.New("pbft: invalid process id")
	}
	return &Replica{
		n: n, f: f, id: id,
		signer: signer, verifier: verifier,
		input:    input.Clone(),
		prepares: make(map[string]*sigcrypto.Set),
		commits:  make(map[string]*sigcrypto.Set),
		sentCom:  make(map[string]bool),
		pending:  make(map[types.View][]pendingMsg),
	}, nil
}

func (r *Replica) quorum() int { return 2*r.f + 1 }

// View returns the current view.
func (r *Replica) View() types.View { return r.view }

// Decided returns the decision, if reached. PBFT has a single decision path;
// it is reported as types.SlowPath (three delays).
func (r *Replica) Decided() (types.Decision, bool) { return r.decision, r.decided }

func key(v types.View, x types.Value) string {
	return fmt.Sprintf("%d|%s", v, x)
}

// EnterView advances to view v (driven by the synchronizer, the only way
// into a view). Views never decrease and each is entered at most once, so a
// process pre-prepares or prepares at most once per view.
func (r *Replica) EnterView(v types.View) []core.Action {
	if v <= r.view {
		return nil
	}
	r.view = v
	r.accepted = nil
	r.leaderStates = nil
	r.newViewSent = false
	var out []core.Action

	leader := types.Config{N: r.n}.Leader(v)
	switch {
	case leader == r.id && v == 1:
		tau := r.signer.Sign(digest(domainPrePrepare, 1, r.input))
		out = append(out, r.broadcast(r.rawSigned(subPrePrepare, 1, r.input, tau))...)
	case leader == r.id:
		r.leaderStates = make(map[types.ProcessID]stateReport, r.n)
		own := r.makeState(v)
		r.leaderStates[r.id] = own
		out = append(out, r.tryNewView()...)
	case v > 1:
		st := r.makeState(v)
		w := wire.NewWriter(128)
		st.encode(w)
		out = append(out, core.SendAction{To: leader, Msg: &msg.Raw{
			View: v, Proto: msg.ProtoPBFT, Sub: subState, Payload: w.Bytes(),
		}})
	}
	for bv, batch := range r.pending {
		if bv > v {
			continue
		}
		delete(r.pending, bv)
		r.nPend -= len(batch)
		if bv < v {
			continue
		}
		for _, p := range batch {
			out = append(out, r.Deliver(p.from, p.m)...)
		}
	}
	return out
}

func (r *Replica) makeState(v types.View) stateReport {
	return stateReport{
		voter:    r.id,
		prepared: r.prepared,
		phi:      r.signer.Sign(stateDigest(v, r.prepared)),
	}
}

func (r *Replica) rawSigned(sub uint8, v types.View, x types.Value, sig sigcrypto.Signature) *msg.Raw {
	w := wire.NewWriter(72)
	w.Int32(int32(sig.Signer))
	w.BytesField(sig.Bytes)
	return &msg.Raw{View: v, Proto: msg.ProtoPBFT, Sub: sub, X: x.Clone(), Payload: w.Bytes()}
}

func decodeSig(payload []byte) (sigcrypto.Signature, error) {
	r := wire.NewReader(payload)
	var s sigcrypto.Signature
	s.Signer = types.ProcessID(r.Int32())
	s.Bytes = r.BytesField()
	return s, r.Finish()
}

func (r *Replica) broadcast(m *msg.Raw) []core.Action {
	out := []core.Action{core.BroadcastAction{Msg: m}}
	out = append(out, r.Deliver(r.id, m)...)
	return out
}

// Deliver processes one PBFT message.
func (r *Replica) Deliver(from types.ProcessID, raw msg.Message) []core.Action {
	m, ok := raw.(*msg.Raw)
	if !ok || m.Proto != msg.ProtoPBFT || !from.Valid(r.n) {
		return nil
	}
	switch m.Sub {
	case subPrePrepare, subNewView:
		return r.onPrePrepare(from, m)
	case subPrepare:
		return r.onPrepare(from, m)
	case subCommit:
		return r.onCommit(from, m)
	case subState:
		return r.onState(from, m)
	default:
		return nil
	}
}

func (r *Replica) buffer(from types.ProcessID, m *msg.Raw) {
	if r.nPend >= maxPending {
		return
	}
	r.pending[m.View] = append(r.pending[m.View], pendingMsg{from: from, m: m})
	r.nPend++
}

func (r *Replica) onPrePrepare(from types.ProcessID, m *msg.Raw) []core.Action {
	switch {
	case m.View > r.view:
		r.buffer(from, m)
		return nil
	case m.View < r.view:
		return nil
	}
	if r.accepted != nil {
		return nil
	}
	leader := types.Config{N: r.n}.Leader(m.View)
	if from != leader && from != r.id {
		return nil
	}
	var tau sigcrypto.Signature
	if m.Sub == subNewView {
		ok, chosen, sig := r.verifyNewView(m)
		if !ok || !chosen.Equal(m.X) {
			return nil
		}
		tau = sig
	} else {
		sig, err := decodeSig(m.Payload)
		if err != nil || sig.Signer != leader {
			return nil
		}
		tau = sig
	}
	if m.View > 1 && m.Sub != subNewView {
		return nil // views after 1 start with a new-view message
	}
	if !r.verifier.Verify(digest(domainPrePrepare, m.View, m.X), tau) {
		return nil
	}
	r.accepted = m.X.Clone()
	phi := r.signer.Sign(digest(domainPrepare, m.View, m.X))
	return r.broadcast(r.rawSigned(subPrepare, m.View, m.X, phi))
}

func (r *Replica) onPrepare(from types.ProcessID, m *msg.Raw) []core.Action {
	sig, err := decodeSig(m.Payload)
	if err != nil || sig.Signer != from {
		return nil
	}
	k := key(m.View, m.X)
	set, ok := r.prepares[k]
	if !ok {
		if len(r.prepares) >= 4096 {
			return nil
		}
		set = sigcrypto.NewSet(digest(domainPrepare, m.View, m.X))
		r.prepares[k] = set
	}
	if !set.Add(r.verifier, sig) {
		return nil
	}
	if set.Len() >= r.quorum() && !r.sentCom[k] {
		r.sentCom[k] = true
		cert := &preparedCert{value: m.X.Clone(), view: m.View, sigs: set.Signatures()}
		if r.prepared == nil || cert.view > r.prepared.view {
			r.prepared = cert
		}
		phi := r.signer.Sign(digest(domainCommit, m.View, m.X))
		return r.broadcast(r.rawSigned(subCommit, m.View, m.X, phi))
	}
	return nil
}

func (r *Replica) onCommit(from types.ProcessID, m *msg.Raw) []core.Action {
	sig, err := decodeSig(m.Payload)
	if err != nil || sig.Signer != from {
		return nil
	}
	k := key(m.View, m.X)
	set, ok := r.commits[k]
	if !ok {
		if len(r.commits) >= 4096 {
			return nil
		}
		set = sigcrypto.NewSet(digest(domainCommit, m.View, m.X))
		r.commits[k] = set
	}
	if !set.Add(r.verifier, sig) {
		return nil
	}
	if set.Len() >= r.quorum() && !r.decided {
		r.decided = true
		r.decision = types.Decision{Value: m.X.Clone(), View: m.View, Path: types.SlowPath}
		return []core.Action{core.DecideAction{Decision: r.decision}}
	}
	return nil
}

func (r *Replica) onState(from types.ProcessID, m *msg.Raw) []core.Action {
	switch {
	case m.View > r.view:
		r.buffer(from, m)
		return nil
	case m.View < r.view:
		return nil
	}
	if r.leaderStates == nil || (types.Config{N: r.n}).Leader(m.View) != r.id {
		return nil
	}
	rd := wire.NewReader(m.Payload)
	st := decodeStateReport(rd)
	if rd.Finish() != nil || st.voter != from {
		return nil
	}
	if _, dup := r.leaderStates[from]; dup {
		return nil
	}
	if !st.valid(r.verifier, m.View, r.quorum(), r.n) {
		return nil
	}
	r.leaderStates[from] = st
	return r.tryNewView()
}

// tryNewView assembles the new-view message once 2f+1 state reports are in.
func (r *Replica) tryNewView() []core.Action {
	if r.newViewSent || len(r.leaderStates) < r.quorum() {
		return nil
	}
	r.newViewSent = true
	reports := make([]stateReport, 0, len(r.leaderStates))
	for _, st := range r.leaderStates {
		reports = append(reports, st)
	}
	// Deterministic order by voter.
	for i := 1; i < len(reports); i++ {
		for j := i; j > 0 && reports[j].voter < reports[j-1].voter; j-- {
			reports[j], reports[j-1] = reports[j-1], reports[j]
		}
	}
	x := chooseValue(reports, r.input)
	tau := r.signer.Sign(digest(domainPrePrepare, r.view, x))
	w := wire.NewWriter(512)
	w.Int32(int32(tau.Signer))
	w.BytesField(tau.Bytes)
	w.Uvarint(uint64(len(reports)))
	for i := range reports {
		reports[i].encode(w)
	}
	return r.broadcast(&msg.Raw{
		View: r.view, Proto: msg.ProtoPBFT, Sub: subNewView, X: x.Clone(), Payload: w.Bytes(),
	})
}

// chooseValue applies the PBFT view-change rule: the value of the highest
// prepared certificate among the reports, or the leader's input if none.
func chooseValue(reports []stateReport, input types.Value) types.Value {
	var best *preparedCert
	for _, st := range reports {
		if st.prepared == nil {
			continue
		}
		if best == nil || st.prepared.view > best.view {
			best = st.prepared
		}
	}
	if best == nil {
		return input.Clone()
	}
	return best.value.Clone()
}

// verifyNewView checks a new-view message: 2f+1 valid state reports from
// distinct voters and the chosen value consistent with the rule. It returns
// the leader's pre-prepare signature for the chosen value.
func (r *Replica) verifyNewView(m *msg.Raw) (bool, types.Value, sigcrypto.Signature) {
	rd := wire.NewReader(m.Payload)
	var tau sigcrypto.Signature
	tau.Signer = types.ProcessID(rd.Int32())
	tau.Bytes = rd.BytesField()
	cnt := rd.SliceLen()
	if rd.Err() != nil {
		return false, nil, sigcrypto.Signature{}
	}
	seen := make(map[types.ProcessID]struct{}, cnt)
	reports := make([]stateReport, 0, cnt)
	for i := 0; i < cnt; i++ {
		st := decodeStateReport(rd)
		if rd.Err() != nil {
			return false, nil, sigcrypto.Signature{}
		}
		if _, dup := seen[st.voter]; dup {
			continue
		}
		if !st.valid(r.verifier, m.View, r.quorum(), r.n) {
			continue
		}
		seen[st.voter] = struct{}{}
		reports = append(reports, st)
	}
	if rd.Finish() != nil || len(reports) < r.quorum() {
		return false, nil, sigcrypto.Signature{}
	}
	if tau.Signer != (types.Config{N: r.n}).Leader(m.View) {
		return false, nil, sigcrypto.Signature{}
	}
	chosen := chooseValue(reports, m.X) // leader may pick its input when free
	return true, chosen, tau
}

// ---------------------------------------------------------------------------
// Process wrapper (replica + view synchronizer), a core.Machine.
// ---------------------------------------------------------------------------

// Process combines the PBFT replica with the wish-based view synchronizer.
type Process struct {
	replica *Replica
	sync    *viewsync.Synchronizer
}

// NewProcess builds the PBFT per-process machine.
func NewProcess(n, f int, id types.ProcessID, signer sigcrypto.Signer, verifier sigcrypto.Verifier, input types.Value, baseTimeout time.Duration) (*Process, error) {
	r, err := NewReplica(n, f, id, signer, verifier, input)
	if err != nil {
		return nil, err
	}
	return &Process{replica: r, sync: viewsync.New(n, f, id, baseTimeout)}, nil
}

// ID returns the process identifier.
func (p *Process) ID() types.ProcessID { return p.replica.id }

// Decided returns the decision, if reached.
func (p *Process) Decided() (types.Decision, bool) { return p.replica.Decided() }

// View returns the current view.
func (p *Process) View() types.View { return p.replica.View() }

// Init implements core.Machine.
func (p *Process) Init(now core.Time) []core.Action {
	return p.applySync(p.sync.Init(now))
}

// Deliver implements core.Machine.
func (p *Process) Deliver(from types.ProcessID, m msg.Message, now core.Time) []core.Action {
	if w, ok := m.(*msg.Wish); ok {
		return p.applySync(p.sync.OnWish(from, w.View, now))
	}
	return p.replica.Deliver(from, m)
}

// Tick implements core.Machine.
func (p *Process) Tick(now core.Time) []core.Action {
	return p.applySync(p.sync.OnTimeout(now))
}

func (p *Process) applySync(out viewsync.Output) []core.Action {
	var actions []core.Action
	if out.Wish != nil {
		actions = append(actions, core.BroadcastAction{Msg: out.Wish})
	}
	if out.Deadline != 0 {
		actions = append(actions, core.TimerAction{Deadline: out.Deadline})
	}
	if out.Enter != 0 {
		actions = append(actions, p.replica.EnterView(out.Enter)...)
	}
	return actions
}
