package main

import (
	"errors"
	"fmt"
	"os"
	"runtime"
	"sync"
	"sync/atomic"
	"time"

	"repro/internal/client"
	"repro/internal/core"
	"repro/internal/msg"
	"repro/internal/sigcrypto"
	"repro/internal/smr"
	"repro/internal/storage"
	"repro/internal/transport"
	"repro/internal/types"
)

// The (µ) per-layer metrics: each layer's public functions timed in
// isolation, for a fraction of a second each. They say what one call costs;
// the traced run says how many calls an operation makes.

// microWait bounds every wait of a layer timing, so that a layer that
// stops answering fails the run instead of hanging it.
const microWait = 5 * time.Second

// timeLoop calls fn for about budget and returns nanoseconds per call.
func timeLoop(budget time.Duration, fn func()) float64 {
	const batch = 16
	calls := 0
	start := time.Now()
	for {
		for i := 0; i < batch; i++ {
			fn()
		}
		calls += batch
		if el := time.Since(start); el >= budget {
			return float64(el) / float64(calls)
		}
	}
}

// await receives from ch or fails after microWait.
func await(ch <-chan struct{}, what string) error {
	select {
	case <-ch:
		return nil
	case <-time.After(microWait):
		return fmt.Errorf("%s: no answer within %v", what, microWait)
	}
}

// runMicro times the layers in isolation. dir is scratch space on a real
// disk for the storage timings.
func runMicro(seed int64, dir string) (map[string]float64, error) {
	out := make(map[string]float64)
	kv := smr.EncodeKV(smr.KVCommand{Op: smr.OpSet, Key: keyName(0, 7), Value: "0123456789abcdef"})
	request := &msg.Request{Client: "bench-00", Seq: 4242, Op: kv}
	value := types.Value(msg.Encode(request))

	// One fast slot under Ed25519 supplies a real message of each kind.
	samples := map[string]msg.Message{
		"request": request,
		"reply":   &msg.Reply{Client: request.Client, Seq: request.Seq, Slot: 1000, Replica: 1, Result: []byte("0123456789abcdef")},
	}
	fastCfg := types.Generalized(1, 1)
	_, err := runSlot(fastCfg, sigcrypto.NewEd25519Deterministic(fastCfg.N, seed), nil, value, func(m msg.Message) {
		if k := m.Kind().String(); samples[k] == nil {
			samples[k] = m
		}
	})
	if err != nil {
		return nil, err
	}
	var ms0, ms1 runtime.MemStats
	encodes := 0
	for _, kind := range msgKinds {
		m := samples[kind]
		if m == nil {
			return nil, fmt.Errorf("the fast slot sent no %s message", kind)
		}
		out["msg.encode_ns."+kind] = timeLoop(30*time.Millisecond, func() { _ = msg.Encode(m) })
		enc := msg.Encode(m)
		var derr error
		out["msg.decode_ns."+kind] = timeLoop(30*time.Millisecond, func() {
			if _, e := msg.Decode(enc); e != nil {
				derr = e
			}
		})
		if derr != nil {
			return nil, fmt.Errorf("decoding a %s: %w", kind, derr)
		}
	}
	runtime.ReadMemStats(&ms0)
	for _, kind := range msgKinds {
		for i := 0; i < 1000; i++ {
			_ = msg.Encode(samples[kind])
			encodes++
		}
	}
	runtime.ReadMemStats(&ms1)
	out["msg.allocs_per_encode"] = float64(ms1.Mallocs-ms0.Mallocs) / float64(encodes)

	ed := sigcrypto.NewEd25519Deterministic(4, seed)
	digest := msg.ProposeDigest(value, 1)
	signer, verifier := ed.Signer(1), ed.Verifier()
	out["sigcrypto.sign_us"] = timeLoop(100*time.Millisecond, func() { _ = signer.Sign(digest) }) / 1e3
	sig := signer.Sign(digest)
	valid := true
	out["sigcrypto.verify_us"] = timeLoop(150*time.Millisecond, func() { valid = valid && verifier.Verify(digest, sig) }) / 1e3
	if !valid {
		return nil, errors.New("a genuine signature did not verify")
	}

	// One consensus slot across n pure core replicas, HMAC so that the
	// protocol logic is what is timed: all live (fast path), then n=7 with
	// two silent (slow path).
	var slotErr error
	slot := func(cfg types.Config, dead map[types.ProcessID]bool, delivers *int) func() {
		scheme := sigcrypto.NewHMAC(cfg.N, seed)
		return func() {
			d, err := runSlot(cfg, scheme, dead, value, nil)
			if err != nil {
				slotErr = err
			}
			*delivers = d
		}
	}
	var fastDelivers, slowDelivers int
	out["core.slot_fast_us"] = timeLoop(150*time.Millisecond, slot(fastCfg, nil, &fastDelivers)) / 1e3
	out["core.delivers_per_slot"] = float64(fastDelivers)
	slowCfg := types.Generalized(2, 1)
	out["core.slot_slow_us"] = timeLoop(150*time.Millisecond,
		slot(slowCfg, map[types.ProcessID]bool{5: true, 6: true}, &slowDelivers)) / 1e3
	if slotErr != nil {
		return nil, slotErr
	}

	if out["smr.memnet_hmac_ops_s"], err = microMemnet(seed, kv); err != nil {
		return nil, fmt.Errorf("smr over memnet: %w", err)
	}
	if err := microStorage(dir, msg.Encode(samples["propose"]), out); err != nil {
		return nil, fmt.Errorf("storage: %w", err)
	}
	if err := microTransport(seed, msg.Encode(samples["propose"]), request, out); err != nil {
		return nil, fmt.Errorf("transport: %w", err)
	}
	return out, nil
}

// runSlot drives one consensus instance across the live replicas of cfg by
// delivering every message in FIFO order until none is left, and returns
// the number of deliveries. Every live replica must decide. observe, if
// set, sees every message sent.
func runSlot(cfg types.Config, scheme sigcrypto.Scheme, dead map[types.ProcessID]bool, input types.Value, observe func(msg.Message)) (int, error) {
	type envelope struct {
		from, to types.ProcessID
		m        msg.Message
	}
	reps := make([]*core.Replica, cfg.N)
	var queue []envelope
	emit := func(from types.ProcessID, actions []core.Action) {
		for _, a := range actions {
			switch a := a.(type) {
			case core.SendAction:
				if observe != nil {
					observe(a.Msg)
				}
				queue = append(queue, envelope{from, a.To, a.Msg})
			case core.BroadcastAction:
				if observe != nil {
					observe(a.Msg)
				}
				for to := 0; to < cfg.N; to++ {
					if types.ProcessID(to) != from {
						queue = append(queue, envelope{from, types.ProcessID(to), a.Msg})
					}
				}
			}
		}
	}
	for i := range reps {
		id := types.ProcessID(i)
		if dead[id] {
			continue
		}
		r, err := core.NewReplica(cfg, id, scheme.Signer(id), scheme.Verifier(), input)
		if err != nil {
			return 0, err
		}
		reps[i] = r
	}
	for i, r := range reps {
		if r != nil {
			emit(types.ProcessID(i), r.Init())
		}
	}
	delivers := 0
	for len(queue) > 0 {
		e := queue[0]
		queue = queue[1:]
		if r := reps[e.to]; r != nil {
			delivers++
			emit(e.to, r.Deliver(e.from, e.m))
		}
	}
	for i, r := range reps {
		if r == nil {
			continue
		}
		if _, ok := r.Decided(); !ok {
			return delivers, fmt.Errorf("core replica %d did not decide", i)
		}
	}
	return delivers, nil
}

// microMemnet measures the ordering ceiling: 4 smr replicas on a zero-delay
// in-memory network with HMAC, driven through HandleRequest on the leader
// by 8 closed-loop clients, each waiting for the leader's reply.
func microMemnet(seed int64, op []byte) (float64, error) {
	cfg := types.Generalized(1, 1)
	net := transport.NewMemNetwork(cfg.N, 0)
	defer net.Close()
	scheme := sigcrypto.NewHMAC(cfg.N, seed)
	reps := make([]*smr.Replica, cfg.N)
	for i := range reps {
		id := types.ProcessID(i)
		r, err := smr.NewReplica(smr.Config{
			Cluster: cfg, Self: id, Signer: scheme.Signer(id), Verifier: scheme.Verifier(),
			Transport: net.Transport(id), App: smr.NewKVStore(),
			WindowSize: windowSize, MaxBatch: 8, CheckpointInterval: checkpointInterval,
			Logger: quietLogger(),
		})
		if err != nil {
			return 0, err
		}
		reps[i] = r
		defer r.Close()
	}
	for _, r := range reps {
		if err := r.Start(); err != nil {
			return 0, err
		}
	}
	leader := reps[1]
	const budget = 400 * time.Millisecond
	var done atomic.Int64
	var wg sync.WaitGroup
	errs := make(chan error, maxSessions)
	start := time.Now()
	for c := 0; c < maxSessions; c++ {
		wg.Add(1)
		go func(c int) {
			defer wg.Done()
			id := types.ClientID(fmt.Sprintf("micro-%d", c))
			replied := make(chan struct{}, 1) // at most one request in flight
			for seq := uint64(1); time.Since(start) < budget; seq++ {
				err := leader.HandleRequest(&msg.Request{Client: id, Seq: seq, Op: op}, func(*msg.Reply) {
					select {
					case replied <- struct{}{}:
					default:
					}
				})
				if err == nil {
					err = await(replied, "reply from the leader")
				}
				if err != nil {
					errs <- err
					return
				}
				done.Add(1)
			}
		}(c)
	}
	wg.Wait()
	elapsed := time.Since(start)
	select {
	case err := <-errs:
		return 0, err
	default:
	}
	return float64(done.Load()) / elapsed.Seconds(), nil
}

// microStorage times a durable append — the record is written, fsynced by
// the group-commit flusher, and its effect runs — with one writer (the
// latency of one fsync round) and with 8 (how well the rounds coalesce).
func microStorage(dir string, payload []byte, out map[string]float64) error {
	if err := os.MkdirAll(dir, 0o755); err != nil {
		return err
	}
	defer os.RemoveAll(dir)
	st, err := storage.Open(storage.Config{Dir: dir, Mode: storage.SyncGroup, Logger: quietLogger()})
	if err != nil {
		return err
	}
	defer st.Close()
	var werr error
	appendOne := func() {
		durable := make(chan struct{})
		st.Append(payload, func() { close(durable) })
		if err := await(durable, "durable append"); err != nil {
			werr = err
		}
	}
	out["storage.append_group_us"] = timeLoop(300*time.Millisecond, appendOne) / 1e3
	if werr != nil {
		return werr
	}
	const budget = 300 * time.Millisecond
	var records atomic.Int64
	var wg sync.WaitGroup
	errs := make(chan error, maxSessions)
	start := time.Now()
	for w := 0; w < maxSessions; w++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for time.Since(start) < budget {
				durable := make(chan struct{})
				st.Append(payload, func() { close(durable) })
				if err := await(durable, "durable append"); err != nil {
					errs <- err
					return
				}
				records.Add(1)
			}
		}()
	}
	wg.Wait()
	out["storage.append_group_8w_rec_s"] = float64(records.Load()) / time.Since(start).Seconds()
	select {
	case err := <-errs:
		return err
	default:
	}
	return st.Err()
}

// microTransport times the peer channel (round trip and one-way frame
// rate between two TCP endpoints) and the client channel (one request
// frame answered by one reply frame).
func microTransport(seed int64, payload []byte, request *msg.Request, out map[string]float64) error {
	scheme := sigcrypto.NewHMAC(2, seed)
	ends := make([]*transport.TCPTransport, 2)
	addrs := make([]string, 2)
	for i := range ends {
		id := types.ProcessID(i)
		t, err := transport.NewTCP(transport.TCPConfig{
			Self: id, N: 2, ListenAddr: "127.0.0.1:0", Signer: scheme.Signer(id), Verifier: scheme.Verifier(),
		})
		if err != nil {
			return err
		}
		defer t.Close()
		ends[i], addrs[i] = t, t.Addr()
	}
	a, b := ends[0], ends[1]
	var echo atomic.Bool
	var received atomic.Int64
	flooded := make(chan struct{}, 1)
	var floodTarget atomic.Int64
	echo.Store(true)
	b.SetHandler(func(from types.ProcessID, p []byte) {
		if echo.Load() {
			_ = b.Send(from, p) // a lost echo shows as a timeout at the sender
			return
		}
		if received.Add(1) == floodTarget.Load() {
			flooded <- struct{}{}
		}
	})
	back := make(chan struct{}, 1)
	a.SetHandler(func(types.ProcessID, []byte) { back <- struct{}{} })
	for _, t := range ends {
		if err := t.SetPeers(addrs); err != nil {
			return err
		}
		if err := t.Start(); err != nil {
			return err
		}
	}
	var terr error
	roundTrip := func() {
		if err := a.Send(1, payload); err != nil {
			terr = err
			return
		}
		if err := await(back, "echoed frame"); err != nil {
			terr = err
		}
	}
	roundTrip() // the first frame pays for the dial and the handshake
	out["transport.tcp_rtt_us"] = timeLoop(200*time.Millisecond, roundTrip) / 1e3
	if terr != nil {
		return terr
	}
	echo.Store(false)
	const frames = 20000
	floodTarget.Store(frames)
	start := time.Now()
	for i := 0; i < frames; i++ {
		if err := a.Send(1, payload); err != nil {
			return err
		}
	}
	if err := await(flooded, "flooded frames"); err != nil {
		return err
	}
	out["transport.tcp_frames_s"] = frames / time.Since(start).Seconds()

	ln, err := transport.NewClientListener(transport.ClientListenerConfig{
		Self: 0, ListenAddr: "127.0.0.1:0", Signer: scheme.Signer(0),
		Handler: func(req *msg.Request, reply func(*msg.Reply)) error {
			reply(&msg.Reply{Client: req.Client, Seq: req.Seq, Replica: 0, Result: req.Op})
			return nil
		},
	})
	if err != nil {
		return err
	}
	defer ln.Close()
	if err := ln.Start(); err != nil {
		return err
	}
	ct, err := client.NewTCP(client.TCPConfig{N: 1, Addrs: []string{ln.Addr()}, Verifier: scheme.Verifier()})
	if err != nil {
		return err
	}
	defer ct.Close()
	answered := make(chan struct{}, 1)
	ct.SetHandler(func(types.ProcessID, *msg.Reply) { answered <- struct{}{} })
	ask := func() {
		if err := ct.Send(0, request); err != nil {
			terr = err
			return
		}
		if err := await(answered, "reply frame"); err != nil {
			terr = err
		}
	}
	ask() // dial and handshake
	out["transport.clientframe_rtt_us"] = timeLoop(200*time.Millisecond, ask) / 1e3
	return terr
}
