package smr

import (
	"hash/crc32"
	"testing"
	"time"

	"repro/internal/msg"
	"repro/internal/sim"
	"repro/internal/types"
)

// TestSharedFramesStayUnwritten: a replica decodes the frames its transport
// hands it without copying (msg.DecodeOwned), so the messages it keeps —
// tallied values and signatures, certificates, held and queued requests —
// alias those frames, and the simulator hands every receiver of a broadcast
// the same bytes. n = 4, Δ = 1 ms: 10 fault-free writes, 5 with every Ack
// lost, and every AckSig to follower 3 (so slots decide through AckSigs,
// and at 3 through Commit certificates: at f = 1 the AckSigs alone would
// make it a fast quorum), then the view-1 leader crashes and 5 more writes
// ride the view change. The test
// checksums every frame as it is delivered and again after the run: a
// receiver that wrote into a field it decoded would change a frame's
// checksum, and in a shared frame another receiver's message with it.
func TestSharedFramesStayUnwritten(t *testing.T) {
	cfg := types.Generalized(1, 1)
	type delivered struct {
		frame []byte
		sum   uint32
	}
	var frames []delivered
	receivers := make(map[*byte]int) // by the frame's first byte: how many receivers got it
	g := newSimGroup(t, cfg, 68, groupOpts{delta: time.Millisecond, trace: func(ev sim.TraceEvent) {
		if len(ev.Payload) == 0 {
			return
		}
		frames = append(frames, delivered{ev.Payload, crc32.ChecksumIEEE(ev.Payload)})
		receivers[&ev.Payload[0]]++
	}})
	write := func(i int) {
		g.submitKVAll("c", i, -1)
		g.run(10*time.Second, g.applied(uint64(i+1)), "a write")
	}
	i := 0
	for ; i < 10; i++ {
		write(i)
	}
	g.net.SetPayloadFunc(func(_, to types.ProcessID, payload []byte, _ sim.Time) sim.Fate {
		_, s, inner, ok := openHeader(payload)
		if !ok || s == ctrlSlot || s == syncSlot || len(inner) == 0 {
			return sim.Fate{Delay: time.Millisecond}
		}
		k := msg.Kind(inner[0])
		return sim.Fate{Delay: time.Millisecond, Drop: k == msg.KindAck || k == msg.KindAckSig && to == 3}
	})
	for ; i < 15; i++ {
		write(i)
	}
	g.net.SetPayloadFunc(nil)
	g.crash(cfg.Leader(1))
	for ; i < 20; i++ {
		write(i)
	}
	shared := 0
	for _, n := range receivers {
		if n > 1 {
			shared++
		}
	}
	if shared == 0 {
		t.Fatal("no frame reached two receivers: the test exercises no shared frame")
	}
	for k, d := range frames {
		if crc32.ChecksumIEEE(d.frame) != d.sum {
			t.Fatalf("frame %d of %d (%d bytes) changed after delivery", k, len(frames), len(d.frame))
		}
	}
	var slow, views float64
	g.live(func(p types.ProcessID, r *Replica) {
		slow += float64(r.m.pathSlow.Load())
		views += g.viewChanges(p)
	})
	if slow == 0 || views == 0 {
		t.Fatalf("%v slow decisions and %v view changes: the run missed a path it is meant to cover", slow, views)
	}
	t.Logf("%d frames delivered, %d of them shared by a broadcast's receivers, all unchanged", len(frames), shared)
}
