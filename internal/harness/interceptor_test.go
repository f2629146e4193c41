package harness

import (
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"windar/layer"
)

// countingInterceptor tallies chain events across every rank; safe for
// concurrent rank goroutines.
type countingInterceptor struct {
	sends, delivers, checkpoints, restores atomic.Int64
	wrapped                                atomic.Int64
}

func (c *countingInterceptor) Wrap(next layer.Handler) layer.Handler {
	c.wrapped.Add(1)
	return &countingHandler{Forward: layer.Forward{Next: next}, c: c}
}

type countingHandler struct {
	layer.Forward
	c *countingInterceptor
}

func (h *countingHandler) Send(m *layer.Msg) {
	h.c.sends.Add(1)
	h.Forward.Send(m)
}

func (h *countingHandler) Deliver(m *layer.Msg) {
	h.c.delivers.Add(1)
	h.Forward.Deliver(m)
}

func (h *countingHandler) Checkpoint(info *layer.CheckpointInfo) {
	h.c.checkpoints.Add(1)
	h.Forward.Checkpoint(info)
}

func (h *countingHandler) Restore(info *layer.RestoreInfo) {
	h.c.restores.Add(1)
	h.Forward.Restore(info)
}

// TestChainCountsMatchMetrics runs a failure-free ring and checks the
// counting interceptor saw exactly the traffic the metrics counted.
func TestChainCountsMatchMetrics(t *testing.T) {
	for _, p := range allProtocols {
		p := p
		t.Run(string(p), func(t *testing.T) {
			t.Parallel()
			counter := &countingInterceptor{}
			cfg := testConfig(4, p)
			cfg.Interceptors = []layer.Interceptor{counter}
			c, err := NewCluster(cfg, ringFactory(20))
			if err != nil {
				t.Fatalf("NewCluster: %v", err)
			}
			defer c.Close()
			if err := c.Start(); err != nil {
				t.Fatalf("Start: %v", err)
			}
			await(t, c, "cluster")
			s := c.Metrics().Total()
			if got := counter.sends.Load(); got != s.MsgsSent {
				t.Errorf("interceptor counted %d sends, metrics %d", got, s.MsgsSent)
			}
			if got := counter.delivers.Load(); got != s.MsgsDelivered {
				t.Errorf("interceptor counted %d deliveries, metrics %d", got, s.MsgsDelivered)
			}
			if counter.checkpoints.Load() == 0 {
				t.Error("interceptor saw no checkpoints (CheckpointEvery=5, 20 steps)")
			}
			if got := counter.wrapped.Load(); got != 4 {
				t.Errorf("Wrap ran %d times, want once per rank (4)", got)
			}
		})
	}
}

// orderProbe records, per chain event, what the harness layers had
// already done by the time the user layer ran — the ordering guarantee:
// the protocol layer is outermost (piggyback attached on send, demand
// extracted on deliver before user layers), the app innermost.
type orderProbe struct {
	mu                sync.Mutex
	sendsWithPig      int
	sendsTotal        int
	deliversWithMeta  int
	deliversTotal     int
	sawDemand         bool
	innerSawTransform bool

	// Set on a SpanTracing run: the observer the report layer feeds, and
	// how many sends reached the outer user layer stamped and already
	// reported.
	spans         *sendReportLog
	sendsStamped  int
	sendsReported int
}

// sendReportLog is an observer remembering every send reported to it
// through the span-carrying callback, keyed by (rank, dest, send index).
type sendReportLog struct {
	nopObserver
	mu   sync.Mutex
	seen map[[3]int64]bool
}

func (l *sendReportLog) OnSendSpan(rank, dest int, sendIndex int64, _ bool, _ layer.SpanContext) {
	l.mu.Lock()
	l.seen[[3]int64{int64(rank), int64(dest), sendIndex}] = true
	l.mu.Unlock()
}

func (l *sendReportLog) OnDeliverSpan(int, int, int64, int64, int64, layer.SpanContext) {}

func (l *sendReportLog) has(rank, dest int, sendIndex int64) bool {
	l.mu.Lock()
	defer l.mu.Unlock()
	return l.seen[[3]int64{int64(rank), int64(dest), sendIndex}]
}

func (o *orderProbe) outer() layer.Interceptor {
	return layer.InterceptorFunc(func(next layer.Handler) layer.Handler {
		return &orderOuter{Forward: layer.Forward{Next: next}, o: o}
	})
}

func (o *orderProbe) inner() layer.Interceptor {
	return layer.InterceptorFunc(func(next layer.Handler) layer.Handler {
		return &orderInner{Forward: layer.Forward{Next: next}, o: o}
	})
}

// orderOuter is the first user interceptor: it tags each message's Tag
// field so the later user layer can prove it ran after.
type orderOuter struct {
	layer.Forward
	o *orderProbe
}

const orderTagBit = int32(1 << 20)

func (h *orderOuter) Send(m *layer.Msg) {
	h.o.mu.Lock()
	h.o.sendsTotal++
	if len(m.Piggyback) > 0 {
		h.o.sendsWithPig++ // protocol layer already ran: piggyback attached
	}
	if h.o.spans != nil && m.Span.Span != 0 {
		h.o.sendsStamped++ // report layer already ran: span stamped
		if h.o.spans.has(int(m.Span.Span>>48), m.Peer, m.SendIndex) {
			h.o.sendsReported++ // ... and the observer already told
		}
	}
	h.o.mu.Unlock()
	saved := m.Tag
	m.Tag |= orderTagBit
	h.Forward.Send(m)
	m.Tag = saved
}

func (h *orderOuter) Deliver(m *layer.Msg) {
	h.o.mu.Lock()
	h.o.deliversTotal++
	if len(m.Piggyback) > 0 {
		h.o.deliversWithMeta++
	}
	if m.Demand >= 0 {
		h.o.sawDemand = true // protocol layer already extracted the demand
	}
	h.o.mu.Unlock()
	h.Forward.Deliver(m)
}

// orderInner is the second user interceptor: listed after orderOuter in
// Config.Interceptors, so it must see the outer layer's tag bit.
type orderInner struct {
	layer.Forward
	o *orderProbe
}

func (h *orderInner) Send(m *layer.Msg) {
	if m.Tag&orderTagBit != 0 {
		h.o.mu.Lock()
		h.o.innerSawTransform = true
		h.o.mu.Unlock()
	}
	h.Forward.Send(m)
}

// TestChainOrderingGuarantees pins the stack order: protocol outermost
// (piggyback/demand populated before user layers), the report layer next
// (under SpanTracing every send reaches the user layers stamped and
// already reported to the observer), user interceptors in Config order,
// app innermost.
func TestChainOrderingGuarantees(t *testing.T) {
	probe := &orderProbe{}
	cfg := testConfig(3, TDI)
	cfg.Interceptors = []layer.Interceptor{probe.outer(), probe.inner()}
	want := run(t, testConfig(3, TDI), ringFactory(15), nil)
	got := run(t, cfg, ringFactory(15), nil)
	// The interceptors are pure observers (orderOuter restores Tag after
	// forwarding), so the run must be unchanged.
	assertSameStates(t, want, got, "with-order-probe")

	probe.mu.Lock()
	if probe.sendsTotal == 0 || probe.deliversTotal == 0 {
		t.Fatal("probe saw no traffic")
	}
	if probe.sendsWithPig != probe.sendsTotal {
		t.Errorf("piggyback attached on %d/%d sends before the user layer; protocol must be outermost",
			probe.sendsWithPig, probe.sendsTotal)
	}
	if !probe.sawDemand {
		t.Error("no deliver carried an extracted demand; TDI demands must be populated before user layers")
	}
	if !probe.innerSawTransform {
		t.Error("second user interceptor never saw the first one's transform; user layers must stack in Config order")
	}
	probe.mu.Unlock()

	traced := &orderProbe{spans: &sendReportLog{seen: map[[3]int64]bool{}}}
	cfg = testConfig(3, TDI)
	cfg.SpanTracing = true
	cfg.Observer = traced.spans
	cfg.Interceptors = []layer.Interceptor{traced.outer(), traced.inner()}
	assertSameStates(t, want, run(t, cfg, ringFactory(15), nil), "traced-order-probe")
	traced.mu.Lock()
	defer traced.mu.Unlock()
	if traced.sendsTotal == 0 {
		t.Fatal("traced probe saw no traffic")
	}
	if traced.sendsStamped != traced.sendsTotal {
		t.Errorf("span stamped on %d/%d sends before the user layer; the report layer must run first",
			traced.sendsStamped, traced.sendsTotal)
	}
	if traced.sendsReported != traced.sendsTotal {
		t.Errorf("OnSendSpan fired on %d/%d sends before the user layer saw them",
			traced.sendsReported, traced.sendsTotal)
	}
}

// xorInterceptor is the mutating test layer: it XOR-masks payloads on
// the way out and unmasks them on delivery, replacing the slice (never
// mutating in place — the layer contract). Because the mask is applied after the app and removed
// before the app, the application is oblivious; because the sender log
// stores the masked bytes, recovery resends replay them and the unmask
// on redelivery stays correct.
type xorInterceptor struct {
	key byte
}

func (x *xorInterceptor) Wrap(next layer.Handler) layer.Handler {
	return &xorHandler{Forward: layer.Forward{Next: next}, key: x.key}
}

type xorHandler struct {
	layer.Forward
	key byte
}

func (h *xorHandler) mask(p []byte) []byte {
	out := make([]byte, len(p))
	for i, b := range p {
		out[i] = b ^ h.key
	}
	return out
}

func (h *xorHandler) Send(m *layer.Msg) {
	m.Payload = h.mask(m.Payload)
	h.Forward.Send(m)
}

func (h *xorHandler) Deliver(m *layer.Msg) {
	m.Payload = h.mask(m.Payload)
	h.Forward.Deliver(m)
}

// TestChainMutatingInterceptor checks a payload-transforming layer is
// transparent to the application, with and without failures.
func TestChainMutatingInterceptor(t *testing.T) {
	want := run(t, testConfig(4, TDI), ringFactory(20), nil)

	cfg := testConfig(4, TDI)
	cfg.Interceptors = []layer.Interceptor{&xorInterceptor{key: 0x5a}}
	got := run(t, cfg, ringFactory(20), nil)
	assertSameStates(t, want, got, "xor-masked")

	cfg = testConfig(4, TDI)
	cfg.Interceptors = []layer.Interceptor{&xorInterceptor{key: 0xa7}}
	got = run(t, cfg, ringFactory(20), func(c *Cluster) {
		time.Sleep(2 * time.Millisecond) //windar:allow directclock — real-sleep chaos timing, matches harness_test idiom
		if err := c.KillAndRecover(2, time.Millisecond); err != nil {
			t.Errorf("KillAndRecover: %v", err)
		}
	})
	assertSameStates(t, want, got, "xor-masked+failure")
}

// TestChainKillRecoverMidChain drives kill/recover with user layers in
// the chain across every protocol: the restore verb must reach the
// interceptor once per recovery, the rebuilt chain must keep counting,
// and the run must converge to the fault-free states.
func TestChainKillRecoverMidChain(t *testing.T) {
	for _, p := range allProtocols {
		p := p
		t.Run(string(p), func(t *testing.T) {
			t.Parallel()
			want := run(t, testConfig(4, p), sumFactory(24), nil)

			counter := &countingInterceptor{}
			cfg := testConfig(4, p)
			cfg.Interceptors = []layer.Interceptor{counter, &xorInterceptor{key: 0x33}}
			got := run(t, cfg, sumFactory(24), func(c *Cluster) {
				time.Sleep(2 * time.Millisecond) //windar:allow directclock — real-sleep chaos timing, matches harness_test idiom
				if err := c.KillAndRecover(1, time.Millisecond); err != nil {
					t.Errorf("KillAndRecover(1): %v", err)
				}
				time.Sleep(time.Millisecond) //windar:allow directclock — real-sleep chaos timing, matches harness_test idiom
				if err := c.KillAndRecover(3, time.Millisecond); err != nil {
					t.Errorf("KillAndRecover(3): %v", err)
				}
			})
			assertSameStates(t, want, got, "chain+failures")
			if got := counter.restores.Load(); got != 2 {
				t.Errorf("interceptor saw %d restores, want 2", got)
			}
			// 4 initial incarnations + 2 revivals, one Wrap each.
			if got := counter.wrapped.Load(); got != 6 {
				t.Errorf("Wrap ran %d times, want 6 (4 ranks + 2 revivals)", got)
			}
			if counter.sends.Load() == 0 || counter.delivers.Load() == 0 {
				t.Error("rebuilt chain stopped counting after recovery")
			}
		})
	}
}

// recordingPolicy checkpoints on even steps only and records the ranks
// it was consulted for.
type recordingPolicy struct {
	mu    sync.Mutex
	asked map[int]bool
}

func (p *recordingPolicy) ShouldCheckpoint(rank, step int) bool {
	p.mu.Lock()
	p.asked[rank] = true
	p.mu.Unlock()
	return step%2 == 0
}

// TestCheckpointPolicyOverride checks Config.CheckpointPolicy replaces
// the CheckpointEvery interval and reaches every rank.
func TestCheckpointPolicyOverride(t *testing.T) {
	pol := &recordingPolicy{asked: map[int]bool{}}
	counter := &countingInterceptor{}
	cfg := testConfig(3, TDI)
	cfg.CheckpointEvery = 1000 // would never fire within 12 steps
	cfg.CheckpointPolicy = pol
	cfg.Interceptors = []layer.Interceptor{counter}
	run(t, cfg, ringFactory(12), nil)

	pol.mu.Lock()
	asked := len(pol.asked)
	pol.mu.Unlock()
	if asked != 3 {
		t.Errorf("policy consulted for %d ranks, want 3", asked)
	}
	// Steps 2,4,6,8,10 are even and eligible (step 0 is excluded): the
	// policy must actually drive checkpoints that CheckpointEvery=1000
	// would have skipped.
	if got := counter.checkpoints.Load(); got != 15 {
		t.Errorf("chain saw %d checkpoints, want 15 (5 eligible even steps x 3 ranks)", got)
	}
}
