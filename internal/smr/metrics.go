package smr

import (
	"time"

	"repro/internal/msg"
	"repro/internal/obs"
)

// maxMsgKind bounds the per-kind message counter arrays; message kinds are
// small consecutive integers starting at 1.
const maxMsgKind = int(msg.KindReply)

// replicaMetrics are the replica's registry-backed counters and the staged
// request tracer. The bundle always exists — a nil Config.Metrics registry
// hands out live, unexported metrics — so the hot path never branches on
// whether observability was requested; the registry is the one read path.
// Everything here is updated with single atomic instructions; quantities
// that already live behind r.mu (queue depths, window occupancy) are
// exported as GaugeFuncs read at scrape time instead of being mirrored into
// a second source of truth.
type replicaMetrics struct {
	decided    *obs.Counter // slots decided locally
	applied    *obs.Counter // well-formed commands executed
	malformed  *obs.Counter // decided values that failed DecodeBatch
	reproposed *obs.Counter // commands returned to the pending queue
	regime     *obs.Counter // no-progress regime-timer fires
	viewsTotal *obs.Counter // slot instances entering a view beyond 1
	pathFast   *obs.Counter // decisions via the fast path (n−t acks)
	pathSlow   *obs.Counter // decisions via the slow path (commit quorum)
	pathXfer   *obs.Counter // decisions learned from a state-transfer tail

	// Held AckSigs released, by trigger: a regime fire or a later slot's
	// decision (the slot was late), or a peer's AckSig (a peer started the
	// slow path).
	slowTimer *obs.Counter
	slowOrder *obs.Counter
	slowPeer  *obs.Counter

	// Per-kind protocol message counters, indexed by msg.Kind (a broadcast
	// counts once here; the transport layer counts physical frames).
	msgIn  [maxMsgKind + 1]*obs.Counter
	msgOut [maxMsgKind + 1]*obs.Counter

	// Signature operations of the scheme, counted by domainSigner and
	// domainVerifier: real crypto calls, not the ones an instance's memo
	// answered.
	signs    *obs.Counter
	verifies *obs.Counter

	tracer *obs.Tracer
}

// initMetricsLocked registers the replica's series in reg under ls (called
// once from NewReplica, before the replica is shared).
func (r *Replica) initMetricsLocked(reg *obs.Registry, ls obs.Labels) {
	m := &r.m
	m.applied = reg.Counter("fastbft_commands_applied_total", "well-formed requests executed by the application", ls)
	m.malformed = reg.Counter("fastbft_malformed_batches_total", "decided non-empty values that failed DecodeBatch (Byzantine-leader evidence)", ls)
	m.reproposed = reg.Counter("fastbft_commands_reproposed_total", "commands returned to the pending queue by a conflicting decision", ls)
	m.regime = reg.Counter("fastbft_regime_timeouts_total", "regime-timer fires that found no progress (leader suspicions)", ls)
	m.viewsTotal = reg.Counter("fastbft_view_changes_total", "slot instances that entered a view beyond 1", ls)
	m.pathFast = reg.Counter("fastbft_decided_path_total", "decisions by protocol path", ls.With("path", "fast"))
	m.pathSlow = reg.Counter("fastbft_decided_path_total", "decisions by protocol path", ls.With("path", "slow"))
	m.pathXfer = reg.Counter("fastbft_decided_path_total", "decisions by protocol path", ls.With("path", "transfer"))
	m.slowTimer = reg.Counter("fastbft_slowpath_started_total", "held AckSigs released, by what started the slot's slow path", ls.With("trigger", "timer"))
	m.slowOrder = reg.Counter("fastbft_slowpath_started_total", "held AckSigs released, by what started the slot's slow path", ls.With("trigger", "order"))
	m.slowPeer = reg.Counter("fastbft_slowpath_started_total", "held AckSigs released, by what started the slot's slow path", ls.With("trigger", "peer"))
	for k := msg.Kind(1); int(k) <= maxMsgKind; k++ {
		m.msgIn[k] = reg.Counter("fastbft_messages_in_total", "protocol messages received, by kind", ls.With("kind", k.String()))
		m.msgOut[k] = reg.Counter("fastbft_messages_out_total", "protocol messages produced, by kind (a broadcast counts once)", ls.With("kind", k.String()))
	}
	m.signs = reg.Counter("fastbft_signatures_total", "signature operations of the replica's scheme, by op", ls.With("op", "sign"))
	m.verifies = reg.Counter("fastbft_signatures_total", "signature operations of the replica's scheme, by op", ls.With("op", "verify"))
	m.tracer = obs.NewTracer(reg, "fastbft_stage_seconds",
		"cumulative request latency from submit to each pipeline stage", ls, r.cfg.Clock.Now())
	reg.GaugeFunc("fastbft_pending_commands", "commands awaiting slot assignment", ls, func() float64 {
		r.mu.Lock()
		defer r.mu.Unlock()
		return float64(r.pending.Len())
	})
	reg.GaugeFunc("fastbft_inflight_commands", "commands assigned to live slot proposals", ls, func() float64 {
		r.mu.Lock()
		defer r.mu.Unlock()
		return float64(len(r.inflight))
	})
	reg.GaugeFunc("fastbft_window_occupancy", "live undecided consensus instances in the window", ls, func() float64 {
		r.mu.Lock()
		defer r.mu.Unlock()
		return float64(r.windowOccupancyLocked())
	})
	reg.GaugeFunc("fastbft_applied_slots", "in-order apply frontier", ls, func() float64 {
		r.mu.Lock()
		defer r.mu.Unlock()
		return float64(r.applyPtr)
	})
	reg.GaugeFunc("fastbft_sessions", "live client sessions", ls, func() float64 {
		return float64(r.SessionCount())
	})
	reg.GaugeFunc("fastbft_regime_timeout_seconds", "leader-suspicion delay the regime timer would use if armed now", ls, func() float64 {
		r.mu.Lock()
		defer r.mu.Unlock()
		return r.regimeDelayLocked().Seconds()
	})
	// A snapshot reads series in registration order. The decided counter
	// goes last: the path counters and the apply frontier it bounds only
	// move after it, so read before it they never exceed it in one scrape.
	m.decided = reg.Counter("fastbft_slots_decided_total", "slots decided locally (consensus or state-transfer tail)", ls)
}

// windowOccupancyLocked counts live undecided instances inside the window.
// The caller holds r.mu.
func (r *Replica) windowOccupancyLocked() int {
	occ := 0
	for s := range r.slots {
		if s < r.next || s >= r.next+uint64(r.cfg.WindowSize) {
			continue
		}
		if _, dec := r.decided[s]; !dec {
			occ++
		}
	}
	return occ
}

// countIn/countOut bump the per-kind message counters; kinds outside the
// registered range (future wire extensions) are ignored rather than
// counted under a wrong label.
func (r *Replica) countIn(k msg.Kind) {
	if k >= 1 && int(k) <= maxMsgKind {
		r.m.msgIn[k].Inc()
	}
}

func (r *Replica) countOut(k msg.Kind) {
	if k >= 1 && int(k) <= maxMsgKind {
		r.m.msgOut[k].Inc()
	}
}

// envOut counts and envelopes one outgoing protocol message.
func (r *Replica) envOut(s uint64, m msg.Message) []byte {
	r.countOut(m.Kind())
	return envelope(r.cfg.Group, s, m)
}

// markStage records pipeline stage st of slot sl at time `at`. A slot that
// no chunk of this replica's fed (a follower's, or a leader's with an empty
// queue) has no enqueue time to backfill: its pipeline clock starts, and it
// is proposed, when its instance opened, so every replica's stage histograms
// fill, not just the proposer's.
func (r *Replica) markStage(sl *slot, st obs.Stage, at time.Time) {
	if sl.trace.At(obs.StageSubmit) == 0 {
		r.m.tracer.MarkAt(&sl.trace, obs.StageSubmit, r.m.tracer.Nanos(sl.born))
		r.m.tracer.Mark(&sl.trace, obs.StageProposed, sl.born)
	}
	r.m.tracer.Mark(&sl.trace, st, at)
}
