package main

import (
	"encoding/json"
	"os"
	"path/filepath"
	"runtime/metrics"
	"sort"
	"sync"
	"sync/atomic"
	"time"

	"windar/internal/app"
	"windar/internal/harness"
	"windar/internal/obs"
	"windar/internal/stable"
	"windar/layer"
)

// Tracing is done entirely from the bench's side of the seams the
// harness exposes: an app.App/app.Env wrapper, a layer.Interceptor, a
// stable.Backend decorator and the Observer (recovery.go). Distributions
// see every call; spans are kept in memory for one message in
// spanSampleEvery per channel (bounded by spanCap per rank) and written
// out after the run.
const (
	spanSampleEvery = 256
	spanCap         = 8192
	// stampRing is the per-channel send-stamp ring; it must exceed the
	// messages in flight on one channel (the flood window is 16).
	stampRing   = 1024
	samplePause = 20 * time.Millisecond
)

// span is one recorded interval. Spans of one message share
// (from, to, send_index); parent names the span of the same message that
// caused this one.
type span struct {
	Name      string `json:"name"`
	StartNS   int64  `json:"start_ns"`
	EndNS     int64  `json:"end_ns"`
	Parent    string `json:"parent,omitempty"`
	From      int    `json:"from"`
	To        int    `json:"to"`
	SendIndex int64  `json:"send_index,omitempty"`
}

// rankTrace is what the app wrapper and the interceptor keep per rank.
// Both run on the rank's application goroutine; the atomics and the span
// lock only matter while a killed incarnation is still unwinding beside
// its successor.
type rankTrace struct {
	sendCall obs.Hist // Env.Send call duration, ns
	flight   obs.Hist // interceptor Send -> Deliver, ns
	recvNS   atomic.Int64
	stepNS   atomic.Int64
	// lastSend / lastDeliver carry the send index of the message the
	// interceptor just saw to the app wrapper, which sees no indices.
	lastSend    atomic.Int64
	lastDeliver atomic.Int64

	mu    sync.Mutex
	spans []span
}

func (rt *rankTrace) add(s span) {
	rt.mu.Lock()
	if len(rt.spans) < cap(rt.spans) {
		rt.spans = append(rt.spans, s)
	}
	rt.mu.Unlock()
}

type tracer struct {
	spec  spec
	epoch time.Time
	store *tracedStore
	ranks [ranks]rankTrace
	// stamps[from][to] is a ring of send times indexed by send index.
	stamps [ranks][ranks][]atomic.Int64

	sampler     sync.WaitGroup
	stopSampler chan struct{}
	logPeak     int64
	heapPeak    uint64
	gcCPU0      float64

	// Filled by end.
	wall         time.Duration
	gcCPU        float64
	groupCommits int64
}

func newTracer(s spec, backend stable.Backend) *tracer {
	t := &tracer{spec: s, stopSampler: make(chan struct{})}
	t.store = &tracedStore{Backend: backend, t: t}
	t.store.spans.spans = make([]span, 0, spanCap)
	for r := range t.ranks {
		t.ranks[r].spans = make([]span, 0, spanCap)
		for p := range t.stamps[r] {
			t.stamps[r][p] = make([]atomic.Int64, stampRing)
		}
	}
	return t
}

// now is nanoseconds since the traced run began.
func (t *tracer) now() int64 {
	return int64(time.Since(t.epoch)) //windar:allow directclock — spans are stamped on the bench's own wall clock
}

// sampled picks the first message of every channel and each
// spanSampleEvery-th after it.
func sampled(sendIndex int64) bool { return sendIndex%spanSampleEvery == 1 }

// begin starts the clock and the sampler that tracks sender-log and heap
// peaks while the cluster runs.
func (t *tracer) begin(c *harness.Cluster) {
	t.epoch = time.Now() //windar:allow directclock — span epoch
	t.gcCPU0 = readGCCPU()
	t.sampler.Add(1)
	go func() {
		defer t.sampler.Done()
		heap := []metrics.Sample{
			{Name: "/memory/classes/heap/objects:bytes"},
			{Name: "/memory/classes/heap/unused:bytes"},
		}
		tick := time.NewTicker(samplePause) //windar:allow directclock — sampling cadence is real time
		defer tick.Stop()
		for {
			select {
			case <-t.stopSampler:
				return
			case <-tick.C:
			}
			if n := int64(c.LogItemsLive()); n > t.logPeak {
				t.logPeak = n
			}
			metrics.Read(heap)
			if b := heap[0].Value.Uint64() + heap[1].Value.Uint64(); b > t.heapPeak {
				t.heapPeak = b
			}
		}
	}()
}

// end stops the sampler and reads what Close would invalidate.
func (t *tracer) end(g *rig) {
	close(t.stopSampler)
	t.sampler.Wait()
	t.wall = time.Duration(t.now())
	t.gcCPU = readGCCPU() - t.gcCPU0
	if g.disk != nil {
		t.groupCommits = g.disk.Commits()
	}
}

func readGCCPU() float64 {
	s := []metrics.Sample{{Name: "/cpu/classes/gc/total:cpu-seconds"}}
	metrics.Read(s)
	if s[0].Value.Kind() != metrics.KindFloat64 {
		return 0
	}
	return s[0].Value.Float64()
}

// Wrap implements layer.Interceptor. One handler serves every rank and
// incarnation: its state is indexed by the rank each message names.
func (t *tracer) Wrap(next layer.Handler) layer.Handler {
	return &traceHandler{Forward: layer.Forward{Next: next}, t: t}
}

type traceHandler struct {
	layer.Forward
	t *tracer
}

func (h *traceHandler) Send(m *layer.Msg) {
	t := h.t
	t.ranks[m.Rank].lastSend.Store(m.SendIndex)
	t.stamps[m.Rank][m.Peer][m.SendIndex%stampRing].Store(t.now())
	h.Forward.Send(m)
}

func (h *traceHandler) Deliver(m *layer.Msg) {
	t := h.t
	rt := &t.ranks[m.Rank]
	rt.lastDeliver.Store(m.SendIndex)
	// A resent message was stamped by an incarnation long gone; its ring
	// slot has been overwritten.
	if !m.Resent {
		sent, now := t.stamps[m.Peer][m.Rank][m.SendIndex%stampRing].Load(), t.now()
		rt.flight.Record(now - sent)
		if sampled(m.SendIndex) {
			rt.add(span{Name: "harness.flight", StartNS: sent, EndNS: now, Parent: "app.send",
				From: m.Peer, To: m.Rank, SendIndex: m.SendIndex})
		}
	}
	h.Forward.Deliver(m)
}

// wrapFactory wraps every application instance so each Env.Send and
// Env.Recv it makes is timed.
func (t *tracer) wrapFactory(inner app.Factory) app.Factory {
	return func(rank, n int) app.App {
		a := &tracedApp{App: inner(rank, n), t: t, rank: rank}
		a.env = tracedEnv{t: t, rank: rank}
		return a
	}
}

type tracedApp struct {
	app.App
	t    *tracer
	rank int
	env  tracedEnv
}

func (a *tracedApp) Step(env app.Env, s int) {
	a.env.Env = env
	start := a.t.now()
	a.App.Step(&a.env, s)
	a.t.ranks[a.rank].stepNS.Add(a.t.now() - start)
}

type tracedEnv struct {
	app.Env
	t    *tracer
	rank int
}

func (e *tracedEnv) Send(dest int, tag int32, data []byte) {
	rt := &e.t.ranks[e.rank]
	start := e.t.now()
	e.Env.Send(dest, tag, data)
	end := e.t.now()
	rt.sendCall.Record(end - start)
	if idx := rt.lastSend.Load(); sampled(idx) {
		rt.add(span{Name: "app.send", StartNS: start, EndNS: end, From: e.rank, To: dest, SendIndex: idx})
	}
}

func (e *tracedEnv) Recv(source int, tag int32) ([]byte, int) {
	rt := &e.t.ranks[e.rank]
	start := e.t.now()
	data, from := e.Env.Recv(source, tag)
	end := e.t.now()
	rt.recvNS.Add(end - start)
	if idx := rt.lastDeliver.Load(); sampled(idx) {
		rt.add(span{Name: "app.recv", StartNS: start, EndNS: end, Parent: "harness.flight",
			From: from, To: e.rank, SendIndex: idx})
	}
	return data, from
}

// tracedStore decorates the stable backend: calls, bytes and time spent
// inside it, as the harness's checkpoint writers and log mirror see it.
type tracedStore struct {
	stable.Backend
	t *tracer

	puts, lazyPuts, syncs atomic.Int64
	bytes, busyNS         atomic.Int64
	putWait               obs.Hist // durable Put/Rename/Sync wait, ns
	spans                 rankTrace
}

func (s *tracedStore) timed(name string, durable bool, n int, f func() error) error {
	start := s.t.now()
	err := f()
	end := s.t.now()
	s.busyNS.Add(end - start)
	s.bytes.Add(int64(n))
	if durable {
		s.putWait.Record(end - start)
	}
	if durable || sampled(s.lazyPuts.Load()) {
		s.spans.add(span{Name: name, StartNS: start, EndNS: end, From: -1, To: -1})
	}
	return err
}

func (s *tracedStore) Put(key string, data []byte) error {
	s.puts.Add(1)
	return s.timed("stable.put", true, len(data), func() error { return s.Backend.Put(key, data) })
}

func (s *tracedStore) PutLazy(key string, data []byte) error {
	s.lazyPuts.Add(1)
	return s.timed("stable.put_lazy", false, len(data), func() error { return s.Backend.PutLazy(key, data) })
}

func (s *tracedStore) Rename(oldKey, newKey string) error {
	s.puts.Add(1)
	return s.timed("stable.rename", true, 0, func() error { return s.Backend.Rename(oldKey, newKey) })
}

func (s *tracedStore) Delete(key string) error {
	return s.timed("stable.delete", false, 0, func() error { return s.Backend.Delete(key) })
}

func (s *tracedStore) Sync() error {
	s.syncs.Add(1)
	return s.timed("stable.sync", true, 0, s.Backend.Sync)
}

// writeSpans writes every kept span, ordered by start, to
// <dir>/trace-<workload>.json.
func (t *tracer) writeSpans(dir string, rec *recoveryDriver) (string, error) {
	all := append([]span(nil), t.store.spans.spans...)
	for r := range t.ranks {
		all = append(all, t.ranks[r].spans...)
	}
	all = append(all, rec.spans(t.epoch)...)
	sort.SliceStable(all, func(i, j int) bool { return all[i].StartNS < all[j].StartNS })
	if err := os.MkdirAll(dir, 0o755); err != nil {
		return "", err
	}
	path := filepath.Join(dir, "trace-"+t.spec.Name+".json")
	data, err := json.Marshal(all)
	if err != nil {
		return "", err
	}
	return path, os.WriteFile(path, data, 0o644)
}
