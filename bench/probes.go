package main

import (
	"fmt"
	"os"
	"runtime"
	"sync"
	"time"

	"windar/internal/app"
	"windar/internal/ckpt"
	"windar/internal/core"
	"windar/internal/fabric"
	"windar/internal/harness"
	"windar/internal/npb"
	"windar/internal/obs"
	"windar/internal/proto"
	"windar/internal/stable"
	"windar/internal/tag"
	"windar/internal/tel"
	"windar/internal/transport"
	"windar/internal/transport/mem"
	"windar/internal/transport/tcp"
	"windar/internal/vclock"
	"windar/internal/wire"
)

// Layer probes: each drives exported calls of one module from a single
// goroutine for a fixed operation count and reports ns/op (and, where an
// allocation budget exists, allocs/op). The counts are frozen so that a
// probe lasts roughly half a second on the reference box; probeScale
// shrinks them for the toy-size test.
type probeSet struct {
	scale  float64
	outDir string
	out    map[string]float64
}

func (p *probeSet) ops(full int) int {
	n := int(float64(full) * p.scale)
	if n < 32 {
		n = 32
	}
	return n
}

// timeLoop runs body (which loops ops times itself, so no per-operation
// call is added) and returns ns/op and allocs/op.
func timeLoop(ops int, body func()) (nsPerOp, allocsPerOp float64) {
	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	start := time.Now() //windar:allow directclock — probes time real execution
	body()
	elapsed := time.Since(start) //windar:allow directclock — true wall-clock measurement
	runtime.ReadMemStats(&after)
	return float64(elapsed) / float64(ops), float64(after.Mallocs-before.Mallocs) / float64(ops)
}

// floodEnvelope is the message the flood workloads carry: 8 B payload
// under the two-byte empty-delta piggyback.
func floodEnvelope() *wire.Envelope {
	return &wire.Envelope{
		Kind: wire.KindApp, From: 1, To: 0, Tag: 6, SendIndex: 7,
		Piggyback: []byte{wire.VecDeltaMarker, 0}, Payload: make([]byte, 8),
	}
}

// loopReader replays one byte sequence forever.
type loopReader struct {
	b   []byte
	off int
}

func (l *loopReader) Read(p []byte) (int, error) {
	if l.off == len(l.b) {
		l.off = 0
	}
	n := copy(p, l.b[l.off:])
	l.off += n
	return n, nil
}

// runProbes runs every layer probe and returns its metrics by name.
func runProbes(scale float64, outDir string) (map[string]float64, error) {
	p := &probeSet{scale: scale, outDir: outDir, out: make(map[string]float64)}
	p.wire()
	p.core()
	p.baselines()
	p.protoLog()
	if err := p.ckpt(); err != nil {
		return nil, err
	}
	if err := p.stable(); err != nil {
		return nil, err
	}
	if err := p.transport(); err != nil {
		return nil, err
	}
	p.obsAndHarness()
	if err := p.pigAt32(); err != nil {
		return nil, err
	}
	return p.out, nil
}

func (p *probeSet) wire() {
	env := floodEnvelope()
	buf := make([]byte, 0, 256)
	n := p.ops(10_000_000)
	p.out["wire.frame_append_ns"], _ = timeLoop(n, func() {
		for i := 0; i < n; i++ {
			buf = wire.AppendFrame(buf[:0], env)
		}
	})

	fr := wire.NewFrameReader(&loopReader{b: wire.AppendFrame(nil, env)})
	n = p.ops(2_000_000)
	p.out["wire.frame_read_ns"], p.out["wire.frame_read_allocs"] = timeLoop(n, func() {
		for i := 0; i < n; i++ {
			if _, err := fr.Read(); err != nil {
				panic(err)
			}
		}
	})

	// One changed element of four: what a flood delivery does to the
	// vector between two sends.
	base, cur := vclock.Vec{100, 200, 300, 400}, vclock.Vec{100, 216, 300, 400}
	n = p.ops(20_000_000)
	p.out["wire.vecdelta_encode_ns"], _ = timeLoop(n, func() {
		for i := 0; i < n; i++ {
			buf = wire.AppendVecDelta(buf[:0], base, cur)
		}
	})
	delta := wire.AppendVecDelta(nil, base, cur)
	dst := vclock.New(len(base))
	p.out["wire.vecdelta_decode_ns"], _ = timeLoop(n, func() {
		for i := 0; i < n; i++ {
			if _, _, err := wire.ReadVecDeltaInto(dst, delta, base); err != nil {
				panic(err)
			}
		}
	})

	to := wire.GetEnvelope()
	n = p.ops(10_000_000)
	p.out["wire.envelope_copy_ns"], _ = timeLoop(n, func() {
		for i := 0; i < n; i++ {
			wire.CopyInto(to, env)
		}
	})
	wire.Recycle(to)
}

// tdiCycle pre-generates a send sequence from rank 1 to rank 0 shaped
// like the flood's: bursts of floodWindow sends, the sender delivering
// one message (so its vector moves) between bursts. The sequence starts
// with a full vector, so a receiver can replay it any number of times.
func tdiCycle(n, length int) [][]byte {
	sender, feeder := core.New(1, n, nil, nil), core.New(2, n, nil, nil)
	pigs := make([][]byte, length)
	for i := range pigs {
		if i%floodWindow == 0 && i > 0 {
			idx := int64(i / floodWindow)
			fp, _ := feeder.PiggybackForSend(1, idx)
			if err := sender.OnDeliver(&wire.Envelope{Kind: wire.KindApp, From: 2, To: 1, SendIndex: idx, Piggyback: fp}, idx); err != nil {
				panic(err)
			}
		}
		pigs[i], _ = sender.PiggybackForSend(0, int64(i+1))
	}
	return pigs
}

func (p *probeSet) core() {
	const n = ranks
	enc := core.New(0, n, nil, nil)
	ops := p.ops(3_000_000)
	p.out["core.pig_encode_delta_ns"], _ = timeLoop(ops, func() {
		for i := 0; i < ops; i++ {
			enc.PiggybackForSend(1, int64(i+1))
		}
	})
	full := core.New(0, n, nil, nil)
	full.SetRefreshEvery(1)
	p.out["core.pig_encode_full_ns"], _ = timeLoop(ops, func() {
		for i := 0; i < ops; i++ {
			full.PiggybackForSend(1, int64(i+1))
		}
	})

	// The harness probes Deliverable on a fresh FIFO head (a memo miss:
	// decode plus the count comparison), then commits the same message
	// with OnDeliver (a memo hit: merge and base update). scan times the
	// first alone on a receiver primed with the cycle's leading full
	// vector; both times the pair; OnDeliver is the difference.
	pigs := tdiCycle(n, 64*floodWindow)
	env := &wire.Envelope{Kind: wire.KindApp, From: 1, To: 0, SendIndex: 1, Piggyback: pigs[0]}
	scanner, recv := core.New(0, n, nil, nil), core.New(0, n, nil, nil)
	if err := scanner.OnDeliver(env, 1); err != nil {
		panic(err)
	}
	rounds := p.ops(3_000_000) / len(pigs)
	if rounds < 1 {
		rounds = 1
	}
	total := rounds * len(pigs)
	scan, _ := timeLoop(total, func() {
		idx := int64(1)
		for r := 0; r < rounds; r++ {
			for _, pig := range pigs {
				idx++
				env.SendIndex, env.Piggyback = idx, pig
				if _, err := scanner.Deliverable(env, idx); err != nil {
					panic(err)
				}
			}
		}
	})
	both, _ := timeLoop(total, func() {
		idx := int64(0)
		for r := 0; r < rounds; r++ {
			for _, pig := range pigs {
				idx++
				env.SendIndex, env.Piggyback = idx, pig
				if _, err := recv.Deliverable(env, idx); err != nil {
					panic(err)
				}
				if err := recv.OnDeliver(env, idx); err != nil {
					panic(err)
				}
			}
		}
	})
	p.out["core.deliverable_ns"] = scan
	p.out["core.on_deliver_ns"] = both - scan
}

// baselines times the Fig. 7 comparators, TAG and TEL, in a two-rank
// ping-pong with a checkpoint every 200 deliveries so their histories
// stay bounded as they do in the workloads.
func (p *probeSet) baselines() {
	type proc interface {
		PiggybackForSend(dest int, sendIndex int64) ([]byte, int)
		OnDeliver(env *wire.Envelope, deliverIndex int64) error
		OnPeerCheckpoint(peer int, deliveredCount int64)
	}
	pingPong := func(name string, a, b proc, mu sync.Locker, rounds int) {
		var encode, deliver time.Duration
		hop := func(from, to proc, fromRank, toRank int, i int64) {
			mu.Lock()
			start := time.Now() //windar:allow directclock — probes time real execution
			pig, _ := from.PiggybackForSend(toRank, i)
			mid := time.Now() //windar:allow directclock — probes time real execution
			env := &wire.Envelope{Kind: wire.KindApp, From: fromRank, To: toRank, SendIndex: i, Piggyback: pig}
			if err := to.OnDeliver(env, i); err != nil {
				panic(err)
			}
			deliver += time.Since(mid) //windar:allow directclock — true wall-clock measurement
			encode += mid.Sub(start)
			mu.Unlock()
		}
		for i := int64(1); i <= int64(rounds); i++ {
			hop(a, b, 0, 1, i)
			hop(b, a, 1, 0, i)
			if i%200 == 0 {
				mu.Lock()
				for _, x := range []proc{a, b} {
					x.OnPeerCheckpoint(0, i)
					x.OnPeerCheckpoint(1, i)
				}
				mu.Unlock()
			}
		}
		p.out[name+".pig_encode_ns"] = float64(encode) / float64(2*rounds)
		p.out[name+".on_deliver_ns"] = float64(deliver) / float64(2*rounds)
	}
	var mu sync.Mutex
	pingPong("tag", tag.New(0, 2, nil, nil), tag.New(1, 2, nil, nil), &mu, p.ops(25_000))
	lg := tel.NewLogger(2, nil, 0)
	defer lg.Close()
	pingPong("tel", tel.New(0, 2, lg, &mu, nil, nil), tel.New(1, 2, lg, &mu, nil, nil), &mu, p.ops(25_000))
}

func (p *probeSet) protoLog() {
	// Append and release in checkpoint-interval batches, the way a flood
	// rank does: floodCkptEvery steps of floodWindow sends, then one
	// CHECKPOINT_ADVANCE releasing them all.
	const batch = floodCkptEvery * floodWindow
	pig, payload := []byte{wire.VecDeltaMarker, 0}, make([]byte, 8)
	l := proto.NewLog()
	var appendT, releaseT time.Duration
	rounds := p.ops(8_000_000) / batch
	if rounds < 1 {
		rounds = 1
	}
	idx := int64(0)
	for r := 0; r < rounds; r++ {
		start := time.Now() //windar:allow directclock — probes time real execution
		for i := 0; i < batch; i++ {
			idx++
			l.Append(proto.LogItem{Dest: 1, SendIndex: idx, Tag: 6, Piggyback: pig, Payload: payload})
		}
		mid := time.Now() //windar:allow directclock — probes time real execution
		if got := l.Release(1, idx); got != batch {
			panic(fmt.Sprintf("bench: released %d of %d log items", got, batch))
		}
		releaseT += time.Since(mid) //windar:allow directclock — true wall-clock measurement
		appendT += mid.Sub(start)
	}
	p.out["proto.log_append_ns"] = float64(appendT) / float64(rounds*batch)
	p.out["proto.log_release_ns_per_item"] = float64(releaseT) / float64(rounds*batch)

	// The resend lookup a ROLLBACK triggers, at the recovery workload's
	// roll-forward length.
	for i := int64(1); i <= recoveryRollForward; i++ {
		l.Append(proto.LogItem{Dest: 1, SendIndex: idx + i, Tag: 6, Piggyback: pig, Payload: payload})
	}
	n := p.ops(40)
	ns, _ := timeLoop(n, func() {
		for i := 0; i < n; i++ {
			if got := len(l.ItemsFor(1, idx)); got != recoveryRollForward {
				panic(fmt.Sprintf("bench: ItemsFor returned %d items", got))
			}
		}
	})
	p.out["proto.log_items_for_ns_per_item"] = ns / recoveryRollForward
}

func (p *probeSet) ckpt() error {
	cp := &ckpt.Checkpoint{
		Rank: 1, Step: 200, AppImage: make([]byte, 4096), ProtoState: make([]byte, 64),
		LastSendIndex: vclock.New(ranks), LastDeliverIndex: vclock.New(ranks), DeliveredCount: 3200,
	}
	for i := 1; i <= 1000; i++ {
		cp.Log = append(cp.Log, proto.LogItem{
			Dest: i % ranks, SendIndex: int64(i), Tag: 6,
			Piggyback: []byte{wire.VecDeltaMarker, 0}, Payload: make([]byte, 8),
		})
	}
	data, err := ckpt.Encode(cp)
	if err != nil {
		return err
	}
	n := p.ops(1000)
	p.out["ckpt.encode_ns"], _ = timeLoop(n, func() {
		for i := 0; i < n && err == nil; i++ {
			_, err = ckpt.Encode(cp)
		}
	})
	if err != nil {
		return err
	}
	p.out["ckpt.decode_ns"], _ = timeLoop(n, func() {
		for i := 0; i < n && err == nil; i++ {
			_, err = ckpt.Decode(data)
		}
	})
	return err
}

func (p *probeSet) stable() (err error) {
	// LU-line-sized values under slog-style keys, cycling over a key set
	// the size of one checkpoint interval's log.
	keys := make([]string, 4096)
	for i := range keys {
		keys[i] = fmt.Sprintf("slog/1/2/%08d", i)
	}
	val := make([]byte, 320)
	sim := stable.NewSim()
	n := p.ops(1_500_000)
	p.out["stable.sim_put_ns"], _ = timeLoop(n, func() {
		for i := 0; i < n && err == nil; i++ {
			err = sim.Put(keys[i%len(keys)], val)
		}
	})
	if err != nil {
		return err
	}

	if err := os.MkdirAll(p.outDir, 0o755); err != nil {
		return err
	}
	dir, err := os.MkdirTemp(p.outDir, "wal-probe-*")
	if err != nil {
		return err
	}
	defer os.RemoveAll(dir)
	opts := stable.DiskOptions{Dir: dir, FsyncInterval: 2 * time.Millisecond}
	disk, err := stable.OpenDisk(opts)
	if err != nil {
		return err
	}
	defer func() { disk.Close() }() // idempotent; the success path checks Close below

	n = p.ops(120_000)
	p.out["stable.disk_putlazy_ns"], _ = timeLoop(n, func() {
		for i := 0; i < n && err == nil; i++ {
			err = disk.PutLazy(keys[i%len(keys)], val)
		}
	})
	if err == nil {
		err = disk.Sync()
	}
	if err != nil {
		return err
	}

	// A durable Put waits for its group commit, so it is timed per call.
	waits := make([]float64, p.ops(150))
	for i := range waits {
		start := time.Now() //windar:allow directclock — probes time real execution
		if err := disk.Put("ckpt/probe", val); err != nil {
			return err
		}
		waits[i] = float64(time.Since(start)) / 1e3 //windar:allow directclock — true wall-clock measurement
	}
	p.out["stable.disk_put_durable_us_p50"] = quantile(waits, 0.5)

	live := disk.Len()
	if err := disk.Close(); err != nil {
		return err
	}
	start := time.Now() //windar:allow directclock — replay reads real files
	disk, err = stable.OpenDisk(opts)
	if err != nil {
		return err
	}
	elapsed := time.Since(start) //windar:allow directclock — true wall-clock measurement
	if disk.Len() != live {
		return fmt.Errorf("bench: WAL replay recovered %d of %d keys", disk.Len(), live)
	}
	p.out["stable.disk_replay_keys_per_s"] = float64(live) / elapsed.Seconds()
	return disk.Close()
}

// hop sends bursts of floodWindow flood messages from endpoint 0 and
// drains them from endpoint 1's batch inbox, as the harness's sender and
// receiver loops do.
func hop(tr transport.Transport, msgs int) (nsPerMsg, allocsPerMsg float64, err error) {
	in, ok := tr.Inbox(1).(transport.BatchInbox)
	if !ok {
		return 0, 0, fmt.Errorf("bench: %s inbox is not a BatchInbox", tr.Kind())
	}
	inline, _ := tr.(transport.InlineSender)
	buf := make([]*wire.Envelope, 0, 64)
	pig, payload := []byte{wire.VecDeltaMarker, 0}, make([]byte, 8)
	bursts := msgs / floodWindow
	ns, allocs := timeLoop(bursts*floodWindow, func() {
		idx := int64(0)
		for b := 0; b < bursts && err == nil; b++ {
			for i := 0; i < floodWindow; i++ {
				idx++
				env := wire.GetEnvelope()
				env.Kind, env.From, env.To, env.Tag, env.SendIndex = wire.KindApp, 0, 1, 6, idx
				env.Piggyback, env.Payload = pig, payload
				if inline == nil || !inline.TrySend(env) {
					if err = tr.Send(env, transport.SendOpts{}); err != nil {
						return
					}
				}
				wire.Recycle(env)
			}
			for got := 0; got < floodWindow; {
				var ok bool
				if buf, ok = in.RecvBatch(buf[:0]); !ok {
					err = fmt.Errorf("bench: %s inbox closed mid-probe", tr.Kind())
					return
				}
				got += len(buf)
				for _, e := range buf {
					wire.Recycle(e)
				}
			}
		}
	})
	return ns, allocs, err
}

func (p *probeSet) transport() error {
	m := mem.New(fabric.Config{N: 2})
	ns, _, err := hop(m, p.ops(3_000_000))
	m.Close()
	if err != nil {
		return err
	}
	p.out["transport.mem_hop_ns_per_msg"] = ns

	t, err := tcp.New(tcp.Config{N: 2})
	if err != nil {
		return err
	}
	ns, allocs, err := hop(t, p.ops(300_000))
	t.Close()
	if err != nil {
		return err
	}
	p.out["transport.tcp_hop_ns_per_msg"] = ns
	p.out["transport.tcp_hop_allocs_per_msg"] = allocs
	return nil
}

func (p *probeSet) obsAndHarness() {
	var h obs.Hist
	n := p.ops(15_000_000)
	p.out["obs.hist_record_ns"], _ = timeLoop(n, func() {
		v := int64(0)
		for i := 0; i < n; i++ {
			h.Record(v)
			v += 997
		}
	})
	for _, ap := range harness.AllocProbes() {
		switch ap.Name {
		case "delivery_scan", "delivery_scan_chain", "delivery_scan_traced":
			p.out["harness."+ap.Name+"_allocs"] = ap.F()
		}
	}
}

// pigAt32 is a counts-only 32-rank LU run: more ranks than cores, so no
// timing is reported — only how the piggyback grows with n (Fig. 6).
func (p *probeSet) pigAt32() error {
	iters := p.ops(40)
	if iters > 40 {
		iters = 40
	}
	if iters < 4 {
		iters = 4
	}
	factory, err := npb.LU(npb.Params{N: luGrid, Iterations: iters, NormEvery: luNormEvery})
	if err != nil {
		return err
	}
	c, err := harness.NewCluster(harness.Config{
		N: 32, Protocol: harness.TDI, CheckpointEvery: luCkptEvery, StallTimeout: stallTimeout,
	}, app.Factory(factory))
	if err != nil {
		return err
	}
	defer c.Close()
	if err := c.Start(); err != nil {
		return err
	}
	c.Wait()
	tot := c.Metrics().Total()
	if !c.Health().Finished || tot.MsgsSent == 0 {
		return fmt.Errorf("bench: 32-rank LU count run did not finish")
	}
	p.out["core.pig_bytes_per_msg_n32"] = float64(tot.PiggybackBytes) / float64(tot.MsgsSent)
	return nil
}
