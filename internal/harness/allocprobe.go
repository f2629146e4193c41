// Allocation probes for the zero-alloc hot paths. Each probe drives one
// hot path in a steady state and measures its
// allocations per operation with testing.AllocsPerRun; windar-bench
// -fig alloc turns the results into BENCH_alloc.json and CI gates on
// them. The probes live in this package because the delivery-scan probe
// needs an (un-started) rank runtime; the codec and protocol probes ride
// along so the whole budget is measured in one place.
package harness

import (
	"fmt"
	"io"
	"math"
	"os"
	"runtime"
	"testing"
	"time"

	"windar/internal/app"
	"windar/internal/ckpt"
	"windar/internal/core"
	"windar/internal/fabric"
	"windar/internal/obs"
	"windar/internal/proto"
	"windar/internal/stable"
	"windar/internal/transport"
	"windar/internal/transport/tcp"
	"windar/internal/wire"
	"windar/layer"
)

// AllocProbe measures one hot path's steady-state heap allocations.
type AllocProbe struct {
	// Name keys the path in BENCH_alloc.json.
	Name string
	// F returns allocations per operation (testing.AllocsPerRun, which
	// reports whole allocations: an amortised chunk reads as zero).
	F func() float64
	// Max, when positive, is an absolute budget the gate holds the
	// measurement to instead of baseline plus tolerance. The end-to-end
	// probes use it: their figure is a fraction — the amortised chunks of
	// TDI's piggyback arena and the sender log — so a whole-allocation
	// tolerance would hide a regression of the very thing they gate.
	Max float64
}

// allocProbeRuns amortizes one-time warm-up allocations (decode scratch,
// delta bases) far below the gate's 0.5 tolerance.
const allocProbeRuns = 200

// AllocProbes returns the hot-path probe set in a stable order.
func AllocProbes() []AllocProbe {
	return []AllocProbe{
		{Name: "delivery_scan", F: probeDeliveryScan},
		{Name: "delivery_scan_chain", F: probeDeliveryScanChain},
		{Name: "delivery_scan_traced", F: probeDeliveryScanTraced},
		{Name: "pig_encode_delta", F: probePigEncodeDelta},
		{Name: "pig_encode_full", F: probePigEncodeFull},
		{Name: "pig_decode", F: probePigDecode},
		{Name: "hist_record", F: probeHistRecord},
		{Name: "frame_append", F: probeFrameAppend},
		{Name: "frame_read", F: probeFrameRead},
		{Name: "mem_hop", F: probeMemHop},
		{Name: "fabric_queued_hop", F: probeFabricQueuedHop},
		{Name: "tcp_hop", F: probeTCPHop},
		{Name: "pig_full_retained", F: probePigFullRetained},
		{Name: "shard_fifo", F: probeShardFIFO},
		{Name: "msg_roundtrip_mem", F: func() float64 { return pingAllocs(Config{N: 2, Transport: transport.Mem}) }, Max: msgRoundtripMax},
		{Name: "msg_roundtrip_tcp", F: func() float64 { return pingAllocs(Config{N: 2, Transport: transport.TCP}) }, Max: msgRoundtripMax},
		{Name: "none_round_trip", F: func() float64 { return pingAllocs(Config{N: 2, Transport: transport.Mem, Protocol: None}) }, Max: msgRoundtripMax},
		{Name: "slog_append", F: probeSlogAppend, Max: slogAppendMax},
		{Name: "slog_release", F: probeSlogRelease},
		{Name: "log_append", F: probeLogAppend, Max: logAppendMax},
		{Name: "log_all", F: probeLogAll},
		{Name: "log_restore", F: probeLogRestore, Max: logRestoreMax},
		{Name: "ckpt_encode", F: probeCkptEncode},
		{Name: "ckpt_cycle", F: probeCkptCycle, Max: ckptCycleMax},
		{Name: "group_commit", F: probeGroupCommit},
	}
}

// probeApp is the trivial application the delivery probe's cluster is
// built around; its loops never run because the cluster is not started.
type probeApp struct{}

func (probeApp) Steps() int           { return 1 }
func (probeApp) Step(app.Env, int)    {}
func (probeApp) Snapshot() []byte     { return nil }
func (probeApp) Restore([]byte) error { return nil }

// probeDeliveryScan measures one full delivery: the FIFO-head scan and
// take (takeDeliverableLocked, including the TDI Deliverable probe and
// piggyback decode) plus deliverLocked committing the message through
// the handler chain (protocol ingest, counters, observer fan-out). The
// cluster is never started, so the runtime's queues are driven directly
// under its lock, exactly as the receiver loop would.
func probeDeliveryScan() float64 { return deliveryScanAllocs(nil, false) }

// spanProbeObserver is the span-aware observer of the traced probe: the
// harness resolves its SpanObserver view, so the delivery flows through
// the OnDeliverSpan dispatch exactly as it does under a trace recorder —
// without the recorder's own ring costs, which are not the hot path
// under gate.
type spanProbeObserver struct{ nopObserver }

func (spanProbeObserver) OnSendSpan(int, int, int64, bool, layer.SpanContext)            {}
func (spanProbeObserver) OnDeliverSpan(int, int, int64, int64, int64, layer.SpanContext) {}

// probeDeliveryScanTraced is probeDeliveryScan with span tracing on: the
// report layer stamps spans, every queued envelope carries a span
// context, and the observer report takes the span-carrying dispatch.
// Tracing must not add a single allocation to the delivery path — the
// span is copied by value end to end.
func probeDeliveryScanTraced() float64 { return deliveryScanAllocs(nil, true) }

// probeCounter is the user interceptor of the chain probe: a
// Forward-embedding layer counting deliveries with plain integer state —
// the minimal well-behaved custom interceptor.
type probeCounter struct {
	layer.Forward
	delivered int64
}

func (p *probeCounter) Deliver(m *layer.Msg) {
	p.delivered++
	p.Forward.Deliver(m)
}

// probeDeliveryScanChain is probeDeliveryScan with a user interceptor in
// the stack: the layer contract promises that a well-behaved interceptor
// adds zero allocations per delivered message, and this probe gates it.
func probeDeliveryScanChain() float64 {
	counter := &probeCounter{}
	return deliveryScanAllocs([]layer.Interceptor{
		layer.InterceptorFunc(func(next layer.Handler) layer.Handler {
			counter.Next = next
			return counter
		}),
	}, false)
}

// deliveryScanAllocs drives the shared delivery probe with the given
// user interceptors in the chain, optionally with span tracing armed.
func deliveryScanAllocs(interceptors []layer.Interceptor, traced bool) float64 {
	cfg := Config{N: 2, Interceptors: interceptors, SpanTracing: traced}
	if traced {
		cfg.Observer = spanProbeObserver{}
	}
	c, err := NewCluster(cfg, func(rank, n int) app.App { return probeApp{} })
	if err != nil {
		panic(err)
	}
	defer c.Close()
	r, err := c.newRuntime(0, 0)
	if err != nil {
		panic(err)
	}
	// A zero-state peer sender: every piggyback demands 0 deliveries, so
	// each queued message is immediately deliverable in FIFO order.
	sender := core.New(1, 2, nil, nil)
	for i := int64(1); i <= allocProbeRuns+4; i++ {
		pig, _ := sender.PiggybackForSend(0, i)
		env := &wire.Envelope{
			Kind: wire.KindApp, From: 1, To: 0, SendIndex: i, Piggyback: pig,
		}
		if traced {
			id := spanID(1, 0, uint32(i))
			env.Span = layer.SpanContext{Trace: id, Span: id}
		}
		r.shards[1].insert(env)
	}
	return testing.AllocsPerRun(allocProbeRuns, func() {
		r.mu.Lock()
		env := r.takeDeliverableLocked(app.AnySource, app.AnyTag)
		if env == nil {
			r.mu.Unlock()
			panic("allocprobe: queued message not deliverable")
		}
		r.deliverLocked(env)
		r.mu.Unlock()
	})
}

// slogProbe builds an un-started two-rank cluster with durable logs over
// a disk backend in a scratch directory, and returns rank 0's runtime
// and an LU-line-sized item for rank 1. cleanup closes and removes it.
func slogProbe() (r *rankRuntime, it proto.LogItem, cleanup func()) {
	dir, err := os.MkdirTemp("", "windar-slogprobe-*")
	if err != nil {
		panic(err)
	}
	disk, err := stable.OpenDisk(stable.DiskOptions{Dir: dir})
	if err != nil {
		panic(err)
	}
	c, err := NewCluster(Config{N: 2, Stable: disk, DurableLogs: true},
		func(rank, n int) app.App { return probeApp{} })
	if err != nil {
		panic(err)
	}
	if r, err = c.newRuntime(0, 0); err != nil {
		panic(err)
	}
	it = proto.LogItem{Dest: 1, Piggyback: make([]byte, 6), Payload: make([]byte, 320)}
	return r, it, func() {
		c.Close() // also closes the backend the cluster owns
		os.RemoveAll(dir)
	}
}

// slogAppendMax is slog_append's budget, allocations per append.
const slogAppendMax = 1.0 / 128

// probeSlogAppend measures logging one item and mirroring its record
// into its durable stream, framed in place in the shard's write buffer
// with the entry's location in the segment: LU-line-sized appends to one
// destination, the log and the stream cut mid-chunk every 1 000 as a
// CHECKPOINT_ADVANCE cuts them, after two such cuts of warm-up, reported
// as a fraction so that amortised chunks and segment rotations count.
func probeSlogAppend() float64 {
	const warm, appends, releaseEvery = 2000, 256 * 40, 1000
	r, it, cleanup := slogProbe()
	defer cleanup()
	var before, after runtime.MemStats
	for i := 1; i <= warm+appends; i++ {
		if i == warm+1 {
			runtime.ReadMemStats(&before)
		}
		it.SendIndex++
		r.slogAppend(1, r.log.Append(it))
		if i%releaseEvery == 0 {
			r.log.Release(1, it.SendIndex-releaseEvery/2)
			r.c.slogRelease(0, 1, it.SendIndex-releaseEvery/2)
		}
	}
	runtime.ReadMemStats(&after)
	return float64(after.Mallocs-before.Mallocs) / appends
}

// probeSlogRelease measures the durable half of a CHECKPOINT_ADVANCE
// that releases four items: one Truncate, one record.
func probeSlogRelease() float64 {
	r, it, cleanup := slogProbe()
	defer cleanup()
	const batch = 4
	for i := 0; i < (allocProbeRuns+2)*batch; i++ {
		it.SendIndex++
		r.slogAppend(1, r.log.Append(it))
	}
	upTo := int64(0)
	return testing.AllocsPerRun(allocProbeRuns, func() {
		upTo += batch
		r.c.slogRelease(0, 1, upTo)
	})
}

// probeLog fills a sender log with flood-shaped items, spread over dests
// destinations. 1000 items to three are a checkpoint interval's worth.
func probeLog(items, dests int) *proto.Log {
	l := proto.NewLog()
	pig, payload := []byte{wire.VecDeltaMarker, 0}, make([]byte, 8)
	for i := 1; i <= items; i++ {
		l.Append(proto.LogItem{Dest: i % dests, SendIndex: int64(i), Tag: 6, Piggyback: pig, Payload: payload})
	}
	return l
}

// logAppendMax is log_append's budget, allocations per append. Released
// chunks come back as fresh ones, so what remains is the warm-up: the
// log's first chunks and the growth of its free and run lists.
const logAppendMax = 1.0 / 4096

// probeLogAppend measures the sender log on the flood's send path:
// flood-shaped appends to one destination, cut mid-chunk every 1 000 by
// a release, reported as a fraction so that amortised chunks count.
func probeLogAppend() float64 {
	const appends, releaseEvery = 256 * 400, 1000
	l := proto.NewLog()
	pig, payload := []byte{wire.VecDeltaMarker, 0}, make([]byte, 8)
	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	for i := int64(1); i <= appends; i++ {
		l.Append(proto.LogItem{Dest: 1, SendIndex: i, Tag: 6, Piggyback: pig, Payload: payload})
		if i%releaseEvery == 0 {
			l.Release(1, i-releaseEvery/2)
		}
	}
	runtime.ReadMemStats(&after)
	return float64(after.Mallocs-before.Mallocs) / appends
}

// probeLogAll measures the checkpoint's view of the sender log, taken
// under the rank lock on the application goroutine. Contract: exactly
// one allocation, the run list, whatever the item count.
func probeLogAll() float64 {
	l := probeLog(1000, 3)
	return testing.AllocsPerRun(allocProbeRuns, func() { _ = l.View() })
}

// logRestoreMax is log_restore's budget, allocations per destination:
// the destination's bookkeeping and its list of chunks.
const logRestoreMax = 2

// probeLogRestore measures a recovery's restore of the sender log from a
// checkpoint view of 32 768 items to four destinations, the recovery
// workload's roll-forward length, and reports allocations per
// destination. Contract: at most logRestoreMax, whatever the item count —
// the records are adopted in place, never decoded or copied.
func probeLogRestore() float64 {
	const dests = 4
	l := probeLog(32768, dests)
	v := l.View()
	return testing.AllocsPerRun(allocProbeRuns, func() { l.Adopt(v) }) / dests
}

// probeCkptEncode measures turning one 1000-item checkpoint into its
// framed blob on the checkpoint writer, which encodes into the buffer
// of its previous blob. Contract: nothing once the buffer has grown.
func probeCkptEncode() float64 {
	cp := &ckpt.Checkpoint{
		Rank: 1, Step: 200, AppImage: make([]byte, 4096), ProtoState: make([]byte, 64),
		LastSendIndex: make([]int64, 4), LastDeliverIndex: make([]int64, 4), DeliveredCount: 3200,
		LogView: probeLog(1000, 3).View(),
	}
	var buf []byte
	return testing.AllocsPerRun(allocProbeRuns, func() {
		var err error
		if buf, err = ckpt.AppendEncode(buf[:0], cp); err != nil {
			panic(err)
		}
	})
}

// ckptCycleMax is ckpt_cycle's budget, allocations per checkpoint
// besides any the application's Snapshot makes itself.
const ckptCycleMax = 1

// probeCkptCycle measures the steady checkpoint cycle on the end-to-end
// ping with both ranks checkpointing before every step, so each
// checkpoint announces one delivery to the peer: the capture under the
// rank lock, the writer's Save into the sim store, the CHECKPOINT_ADVANCE
// and its ingest at the peer. The application's Snapshot is nil here;
// the window also counts the ping's two messages per step, whose share
// msg_roundtrip_mem gates.
func probeCkptCycle() float64 {
	return pingAllocs(Config{N: 2, CheckpointEvery: 1})
}

// probeGroupCommit measures one group-commit round of the disk backend
// with four dirty shards: a lazy write to each of eight keys spread over
// the four, then the Sync barrier, which waits out the window, the
// shards' parallel fsyncs and the release.
func probeGroupCommit() float64 {
	const shards = 4
	dir, err := os.MkdirTemp("", "windar-commitprobe-*")
	if err != nil {
		panic(err)
	}
	defer os.RemoveAll(dir)
	disk, err := stable.OpenDisk(stable.DiskOptions{Dir: dir, Shards: shards, FsyncInterval: 50 * time.Microsecond})
	if err != nil {
		panic(err)
	}
	defer disk.Close()
	keys := []string{"k0", "k1", "k2", "k3", "k4", "k5", "k6", "k7"}
	val := make([]byte, 64)
	round := func() {
		for _, k := range keys {
			if err := disk.PutLazy(k, val); err != nil {
				panic(err)
			}
		}
		if err := disk.Sync(); err != nil {
			panic(err)
		}
	}
	round()
	before := disk.Stats().Fsyncs
	allocs := testing.AllocsPerRun(allocProbeRuns, round)
	if got := disk.Stats().Fsyncs - before; got != shards*(allocProbeRuns+1) {
		panic(fmt.Sprintf("allocprobe: %d fsyncs in %d rounds, want %d dirty shards a round", got, allocProbeRuns+1, shards))
	}
	return allocs
}

// probePigEncodeDelta measures AppendPiggybackForSend on the default
// differential path (reused buffer): after the first, full, send every
// send to the destination is the empty piggyback.
func probePigEncodeDelta() float64 {
	t := core.New(0, 32, nil, nil)
	buf := make([]byte, 0, 256)
	return testing.AllocsPerRun(allocProbeRuns, func() {
		buf, _ = t.AppendPiggybackForSend(buf[:0], 1, 1)
	})
}

// probePigEncodeFull measures the full-vector encode (SetRefreshEvery(1)
// disables deltas — the Fig. 6 baseline).
func probePigEncodeFull() float64 {
	t := core.New(0, 32, nil, nil)
	t.SetRefreshEvery(1)
	buf := make([]byte, 0, 256)
	return testing.AllocsPerRun(allocProbeRuns, func() {
		buf, _ = t.AppendPiggybackForSend(buf[:0], 1, 1)
	})
}

// probePigDecode measures the receive-side piggyback decode (Deliverable
// on a fresh send index: validating a one-pair delta in place and reading
// the demand).
func probePigDecode() float64 {
	recv := core.New(0, 32, nil, nil)
	sender := core.New(1, 32, nil, nil)
	full, _ := sender.PiggybackForSend(0, 1)
	if err := recv.OnDeliver(&wire.Envelope{
		Kind: wire.KindApp, From: 1, To: 0, SendIndex: 1, Piggyback: full,
	}, 1); err != nil {
		panic(err)
	}
	delta := []byte{2, 0, 0, 2} // one pair: the sender's own element rose by 1 to 1, the receiver's is 0
	env := &wire.Envelope{Kind: wire.KindApp, From: 1, To: 0, Piggyback: delta}
	idx := int64(2)
	return testing.AllocsPerRun(allocProbeRuns, func() {
		env.SendIndex = idx
		idx++
		if _, err := recv.Deliverable(env, 1); err != nil {
			panic(err)
		}
	})
}

// probeHistRecord measures one histogram observation.
func probeHistRecord() float64 {
	var h obs.Hist
	v := int64(0)
	return testing.AllocsPerRun(allocProbeRuns, func() {
		h.Record(v)
		v += 997
	})
}

// probeFrameAppend measures framing one envelope into a reused buffer.
func probeFrameAppend() float64 {
	env := &wire.Envelope{
		Kind: wire.KindApp, From: 1, To: 0, SendIndex: 7,
		Piggyback: []byte{0x00, 0x00}, Payload: []byte("payload-bytes"),
	}
	buf := make([]byte, 0, 256)
	return testing.AllocsPerRun(allocProbeRuns, func() {
		buf = wire.AppendFrame(buf[:0], env)
	})
}

// loopReader replays one byte sequence forever, so the frame-read probe
// never hits EOF.
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

// probeFrameRead measures FrameReader.Read. Its budget is not zero: the
// decoded envelope and its piggyback/payload copies are fresh
// allocations by contract (the inbox retains them past the next Read) —
// the probe exists to pin that budget, not to drive it to zero.
func probeFrameRead() float64 {
	frame := wire.AppendFrame(nil, &wire.Envelope{
		Kind: wire.KindApp, From: 1, To: 0, SendIndex: 7,
		Piggyback: []byte{0x00, 0x00}, Payload: []byte("payload-bytes"),
	})
	fr := wire.NewFrameReader(&loopReader{b: frame})
	return testing.AllocsPerRun(allocProbeRuns, func() {
		if _, err := fr.Read(); err != nil {
			panic(err)
		}
	})
}

var _ io.Reader = (*loopReader)(nil)

// probeTCPHop measures one message crossing the socket path, per
// message: bursts of 16 flood-shaped envelopes go rank 0 → rank 1 over a
// loopback tcp transport the way the harness sends and receives them
// (a buffered Send; RecvBatch; Recycle). The budget is zero:
// the chunk, the read buffer and the envelope are reused, and the
// payload is lent from the envelope's own scratch (see wire.DecodeInto).
func probeTCPHop() float64 {
	tr, err := tcp.New(tcp.Config{N: 2})
	if err != nil {
		panic(err)
	}
	defer tr.Close()
	return hopAllocs(tr)
}

// probeMemHop is probeTCPHop over the instant mem fabric: the inline
// delivery's deep copy (wire.CopyInto into the envelope's scratch).
func probeMemHop() float64 {
	tr := fabric.New(fabric.Config{N: 2})
	defer tr.Close()
	return hopAllocs(tr)
}

func hopAllocs(tr transport.Transport) float64 {
	in := tr.Inbox(1).(transport.BatchInbox)
	const burst = 16
	buf := make([]*wire.Envelope, 0, 64)
	pig, payload := []byte{wire.VecDeltaMarker, 0}, make([]byte, 8)
	idx := int64(0)
	perBurst := testing.AllocsPerRun(allocProbeRuns, func() {
		for i := 0; i < burst; i++ {
			idx++
			env := wire.GetEnvelope()
			env.Kind, env.From, env.To, env.SendIndex = wire.KindApp, 0, 1, idx
			env.Piggyback, env.Payload = pig, payload
			if err := tr.Send(env, transport.SendOpts{}); err != nil {
				panic(err)
			}
			wire.Recycle(env)
		}
		for got := 0; got < burst; {
			var ok bool
			if buf, ok = in.RecvBatch(buf[:0]); !ok {
				panic("allocprobe: inbox closed mid-probe")
			}
			got += len(buf)
			for _, e := range buf {
				wire.Recycle(e)
			}
		}
	})
	return perBurst / burst
}

// probeFabricQueuedHop measures one message across the mem fabric's
// queued path, the one a recovery's resend burst takes once a message is
// parked on its link: encode into the link's ring, the link goroutine's
// hop, decode into a pooled envelope. Each round stalls the destination,
// so a burst of 16 queues behind the first, then unstalls and drains it.
// The budget is zero: the item array, the ring and the envelope are
// reused.
func probeFabricQueuedHop() float64 {
	f := fabric.New(fabric.Config{N: 2})
	defer f.Close()
	in := f.Inbox(1).(transport.BatchInbox)
	const burst = 16
	buf := make([]*wire.Envelope, 0, 64)
	pig, payload := []byte{wire.VecDeltaMarker, 0}, make([]byte, 8)
	idx := int64(0)
	perBurst := testing.AllocsPerRun(allocProbeRuns, func() {
		f.Stall(1)
		for i := 0; i < burst; i++ {
			idx++
			env := wire.GetEnvelope()
			env.Kind, env.From, env.To, env.SendIndex = wire.KindApp, 0, 1, idx
			env.Piggyback, env.Payload = pig, payload
			if err := f.Send(env, transport.SendOpts{}); err != nil {
				panic(err)
			}
			wire.Recycle(env)
		}
		f.Unstall(1)
		for got := 0; got < burst; {
			var ok bool
			if buf, ok = in.RecvBatch(buf[:0]); !ok {
				panic("allocprobe: inbox closed mid-probe")
			}
			got += len(buf)
			for _, e := range buf {
				wire.Recycle(e)
			}
		}
	})
	return perBurst / burst
}

// probePigFullRetained measures PiggybackForSend on the full-vector path
// — a recovered rank's sends at or below a destination's resync floor,
// every send where the full vector is smaller than the delta, and every
// send in the full-vector mode: a full 32-element vector
// per message, retained by the sender log — appended at the tail of the
// instance's arena.
func probePigFullRetained() float64 {
	t := core.New(0, 32, nil, nil)
	t.SetRefreshEvery(1)
	idx := int64(0)
	return testing.AllocsPerRun(allocProbeRuns, func() {
		idx++
		t.PiggybackForSend(1, idx)
	})
}

// probeShardFIFO measures one ingest/deliver round on a delivery shard
// holding a standing backlog: the sorted insert and the pop, with the
// backing array kept.
func probeShardFIFO() float64 {
	var sh deliveryShard
	envs := make([]wire.Envelope, 32)
	idx := int64(0)
	push := func() {
		idx++
		env := &envs[idx%int64(len(envs))]
		env.SendIndex = idx
		sh.insert(env)
	}
	for sh.pending() < 16 {
		push()
	}
	return testing.AllocsPerRun(allocProbeRuns, func() {
		push()
		sh.delivered = sh.front().SendIndex
		sh.pop()
	})
}

// msgRoundtripMax is the end-to-end budget, allocations per delivered
// message. What is left under it is amortised: an arena chunk per ~2 000
// piggybacks, a sender-log chunk per ~800 records.
const msgRoundtripMax = 0.05

// pingApp is the end-to-end probe's application: ranks 0 and 1 bounce an
// 8-byte message, allocating nothing themselves. Rank 0 counts the
// process's mallocs from the end of the warm-up to its last step.
type pingApp struct {
	rank    int
	payload [8]byte
	mallocs uint64
}

const (
	pingSteps  = 60_000
	pingWarmup = 10_000
)

func (a *pingApp) Steps() int { return pingSteps }

func (a *pingApp) Step(env app.Env, s int) {
	if a.rank == 0 {
		if s == pingWarmup {
			var ms runtime.MemStats
			runtime.ReadMemStats(&ms)
			a.mallocs = ms.Mallocs
		}
		env.Send(1, 0, a.payload[:])
		env.Recv(1, 0)
		if s == pingSteps-1 {
			var ms runtime.MemStats
			runtime.ReadMemStats(&ms)
			a.mallocs = ms.Mallocs - a.mallocs
		}
		return
	}
	env.Recv(0, 0)
	env.Send(0, 0, a.payload[:])
}

func (a *pingApp) Snapshot() []byte     { return nil }
func (a *pingApp) Restore([]byte) error { return nil }

// pingAllocs runs a started two-rank cluster under cfg — send chain,
// the protocol and its sender log (none under None), transport,
// receiver loop, shards, delivery — and
// returns heap allocations per delivered message (one per rank-step)
// after warm-up, every goroutine of the process included.
func pingAllocs(cfg Config) float64 {
	apps := make([]*pingApp, 2)
	c, err := NewCluster(cfg, func(rank, n int) app.App {
		apps[rank] = &pingApp{rank: rank}
		return apps[rank]
	})
	if err != nil {
		panic(err)
	}
	defer c.Close()
	if err := c.Start(); err != nil {
		panic(err)
	}
	c.Wait()
	perMsg := float64(apps[0].mallocs) / float64(2*(pingSteps-pingWarmup))
	return math.Round(perMsg*1000) / 1000
}
