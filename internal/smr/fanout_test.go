package smr

import (
	"testing"
	"time"

	"repro/internal/types"
)

// TestCatchUpPastDownPeer: a fetch round must gather f+1 matching tails
// even when one of the peers it asks is down. n = 4, Δ = 1 ms: replica 3
// crashes after 3 writes, the other three apply 12 more, then replica 2
// crashes and 3 comes back empty. The next write needs 3's Ack (0, 1 and 3
// are all that is left of a fast or a commit quorum), and its traffic, past
// 3's window, makes 3 fetch state: first from the leader, 1, then from the
// peers after it. When a round asked f = 1 further peer, that was 2, which
// is down: the round had one response, a tail slot needs f+1 = 2 matching
// ones, and the catch-up, and with it the write, waited out the 1 s
// fetchRetryCooldown (1.004 s). Now a round whose f further asks have not
// moved the applied frontier fetchWiden later asks the f peers after them,
// 0 here: of the 2f+1 peers asked, f+1 correct ones answer despite f faulty
// ones, and the write applies in 68.5 ms, well inside one retry period.
func TestCatchUpPastDownPeer(t *testing.T) {
	cfg := types.Generalized(1, 1)
	const (
		before  = 3
		down    = 12
		lagger  = types.ProcessID(3)
		crashed = types.ProcessID(2)
	)
	g := newSimGroup(t, cfg, 96, groupOpts{delta: time.Millisecond, window: 8})
	write := func(i int, within time.Duration) time.Duration {
		start := g.net.Now()
		g.submitKVAll("c", i, -1)
		g.run(within, g.applied(uint64(i+1)), "a write")
		return g.net.Now() - start
	}
	for i := 0; i < before; i++ {
		write(i, 10*time.Second)
	}
	g.crash(lagger)
	for i := before; i < before+down; i++ {
		write(i, 10*time.Second)
	}
	g.crash(crashed)
	r := g.reboot(lagger)
	if err := r.Start(); err != nil {
		t.Fatal(err)
	}
	took := write(before+down, 10*time.Second)
	t.Logf("the write after the restart applied everywhere in %v of virtual time", took)
	if took >= fetchRetryCooldown/4 {
		t.Fatalf("the write after the restart took %v, want well inside the %v fetch retry period", took, fetchRetryCooldown)
	}
	if xfer := r.m.pathXfer.Load(); xfer != before+down {
		t.Errorf("the restarted replica learned %d slots from tails, want the %d it missed", xfer, before+down)
	}
}
