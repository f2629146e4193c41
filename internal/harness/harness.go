// Package harness is the rollback-recovery layer of the paper's Fig. 4:
// it sits between the application (internal/app) and the communication
// substrate (internal/transport — the simulated fabric or real TCP
// loopback), embedding one of the causal message logging protocols
// (internal/core, internal/tag, internal/tel).
//
// Per rank it owns:
//
//   - the application goroutine's sends, buffered (non-blocking mode)
//     or rendezvous (blocking mode) — the two communication
//     architectures Fig. 8 compares. The transport's bounded per-link
//     buffer is queue A: a buffered send returns once the link owns the
//     frame and waits only while the link is full;
//   - queue B (the receiving queue) and a receiver goroutine, plus the
//     delivery manager that enforces duplicate suppression, per-channel
//     FIFO order, and the protocol's delivery predicate (Algorithm 1
//     lines 15-31);
//   - the sender-based message log and its release on CHECKPOINT_ADVANCE
//     (lines 8-12, 32-39);
//   - checkpointing to stable storage and the full recovery exchange —
//     ROLLBACK broadcast, RESPONSE, log resend, repetitive-send
//     suppression (lines 40-53).
//
// The Cluster orchestrates n ranks over one transport and injects failures:
// Kill drops a rank's volatile state mid-run and Recover starts an
// incarnation from its last checkpoint.
package harness

import (
	"bytes"
	"fmt"
	"strings"
	"sync"
	"sync/atomic"
	"time"

	"windar/internal/app"
	"windar/internal/ckpt"
	"windar/internal/clock"
	"windar/internal/core"
	"windar/internal/fabric"
	"windar/internal/metrics"
	"windar/internal/obs"
	"windar/internal/proto"
	"windar/internal/stable"
	"windar/internal/tag"
	"windar/internal/tel"
	"windar/internal/transport"
	"windar/internal/transport/tcp"
	"windar/layer"
)

// ProtocolKind selects the logging protocol.
type ProtocolKind string

const (
	// TDI is the paper's lightweight protocol (internal/core).
	TDI ProtocolKind = "tdi"
	// TAG is the antecedence-graph baseline (internal/tag).
	TAG ProtocolKind = "tag"
	// TEL is the event-logger baseline (internal/tel).
	TEL ProtocolKind = "tel"
	// None is the unprotected baseline: no piggyback, no sender log, no
	// checkpoints and no recovery — the denominator of what logging
	// costs. Fault-free runs only.
	None ProtocolKind = "none"
)

// Mode selects the communication architecture of Fig. 4.
type Mode int

const (
	// NonBlocking is Fig. 4(b): sends are buffered in the transport's
	// bounded per-link buffer (queue A) and transmitted by the link; the
	// application never blocks on a peer's failure, only while its link
	// to the peer already holds LinkBufferBytes.
	NonBlocking Mode = iota
	// Blocking is Fig. 4(a): the application thread performs rendezvous
	// sends directly and stalls while the destination is dead or the
	// link buffer is full.
	Blocking
)

// String implements fmt.Stringer.
func (m Mode) String() string {
	if m == Blocking {
		return "blocking"
	}
	return "non-blocking"
}

// Recovery phase names, in the order they begin during one recovery.
// They label the spans emitted through Observer.OnRecoveryPhase and the
// obs histogram families (recovery_phase_<snake>_ns).
const (
	// PhaseCollectDemands spans the ROLLBACK broadcast until the last of
	// the n-1 peer RESPONSEs arrives (Algorithm 1 lines 46-53's demand
	// collection).
	PhaseCollectDemands = "collect-demands"
	// PhaseReplayLogged spans the first resent logged message delivered
	// while rolling forward until recovery completes.
	PhaseReplayLogged = "replay-logged"
	// PhaseRollForward spans the whole roll: checkpoint restore until
	// the delivered count reaches the pre-failure target.
	PhaseRollForward = "roll-forward"
	// PhaseLogRelease spans recovery completion until the rank's next
	// checkpoint advertises CHECKPOINT_ADVANCE, letting peers release
	// the logs the replay consumed.
	PhaseLogRelease = "log-release"
)

// RecoveryPhases lists every phase name, in span-start order.
var RecoveryPhases = []string{PhaseCollectDemands, PhaseReplayLogged, PhaseRollForward, PhaseLogRelease}

// PhaseFamilyName maps a recovery phase name to its obs histogram
// family ("collect-demands" -> "recovery_phase_collect_demands_ns").
func PhaseFamilyName(phase string) string {
	return "recovery_phase_" + strings.ReplaceAll(phase, "-", "_") + "_ns"
}

// Observer receives harness events. All callbacks may be invoked
// concurrently from different rank goroutines; implementations
// synchronize internally. Any method may be a no-op.
type Observer interface {
	OnSend(rank, dest int, sendIndex int64, resent bool)
	// OnDeliver reports a delivery. demand is the protocol's dependency
	// requirement extracted from the piggyback (the depend_interval
	// element for the receiving rank, TDI only); -1 when the protocol
	// exposes none. Trace invariant checking relies on it.
	OnDeliver(rank, from int, sendIndex, deliverIndex, demand int64)
	OnCheckpoint(rank, step int, deliveredCount int64)
	OnKill(rank int)
	OnRecover(rank, fromStep int)
	// OnRecoveryPhase reports one completed recovery phase span (a
	// Phase* constant) of duration d.
	OnRecoveryPhase(rank int, phase string, d time.Duration)
	OnRecoveryComplete(rank int, d time.Duration)
	// OnRollback reports rank broadcasting a ROLLBACK expecting
	// expect RESPONSEs: one from every other rank, n-1. A peer that is
	// down answers after it revives.
	OnRollback(rank, expect int)
	// OnResponse reports rank absorbing a RESPONSE from from (an answer
	// to its ROLLBACK or a stale one to a predecessor; the trace pairing
	// rule deduplicates responders).
	OnResponse(rank, from int)
	// OnIngestRejected reports rank dropping hostile input: a control
	// message whose payload failed to decode ("rollback", "response",
	// "ckpt-advance"), an envelope with an out-of-range rank or unknown
	// kind ("envelope"), or an app message whose piggyback failed to
	// decode ("piggyback").
	OnIngestRejected(rank int, kind string)
}

// Config describes one cluster run.
type Config struct {
	// N is the number of ranks. Required.
	N int
	// Protocol selects the logging protocol. Default TDI.
	Protocol ProtocolKind
	// Mode selects blocking vs non-blocking communication.
	Mode Mode
	// CheckpointEvery takes a checkpoint before every k-th application
	// step (k > 0). 0 disables periodic checkpoints (recovery then
	// restarts from the initial state). Ignored when CheckpointPolicy is
	// set.
	CheckpointEvery int
	// CheckpointPolicy, if non-nil, decides at which step boundaries each
	// rank checkpoints, overriding CheckpointEvery. See
	// layer.CheckpointPolicy for the calling contract.
	CheckpointPolicy layer.CheckpointPolicy
	// Interceptors are user-supplied chain layers, slotted between the
	// harness's own layers (protocol piggyback, obs, observer fan-out)
	// and the rank core, in order — the first interceptor is outermost
	// among them. Each interceptor's Wrap runs once per rank incarnation;
	// see the layer package documentation for the hot-path contract.
	Interceptors []layer.Interceptor
	// Transport selects the communication substrate: transport.Mem (the
	// default, the in-process simulated fabric) or transport.TCP (real
	// loopback connections with the framed wire format).
	Transport transport.Kind
	// Fabric configures the interconnect; N and Clock are filled in. The
	// latency/bandwidth model applies to the mem transport; for tcp only
	// LinkBufferBytes carries over (real sockets impose their own
	// timing).
	Fabric fabric.Config
	// EventLoggerLatency is the TEL stable event-logger round trip.
	EventLoggerLatency time.Duration
	// Stable selects the stable-storage backend. Nil uses the simulated
	// in-memory backend, which survives rank (goroutine) kills but not
	// process death; a disk backend (stable.OpenDisk) survives SIGKILL
	// and enables Cluster.StartFromStable. The cluster owns the backend
	// and closes it in Close.
	Stable stable.Backend
	// DurableLogs mirrors every sender-log append into the stable store,
	// one slog/ stream per channel (truncated when CHECKPOINT_ADVANCE
	// releases items). Checkpoints then become incremental: the blob
	// omits the sender log (LogExternal) and recovery rebuilds it from the
	// streams, so the checkpoint write is O(app state) instead of
	// O(app state + retained log).
	DurableLogs bool
	// Clock defaults to the real clock.
	Clock clock.Clock
	// Observer, if non-nil, receives harness events.
	Observer Observer
	// Obs, if non-nil, receives latency/size histograms from the hot
	// paths (deliver latency, piggyback sizes, tracking time, TCP
	// backoff) and recovery-phase spans. Size it with the run's N.
	Obs *obs.Registry
	// StallTimeout, if positive, panics with a state dump when a rank's
	// delivery wait exceeds it — a debugging aid for misbehaving
	// applications; production runs leave it zero.
	StallTimeout time.Duration
	// FullVectors makes TDI piggyback the whole depend_interval on every
	// message — the paper's published protocol, which the figure sweeps
	// reproduce. Off, TDI sends only the elements that changed since the
	// last send to the destination.
	FullVectors bool
	// SpanTracing stamps every application message with a causal span
	// context (see span.go) carried in the wire envelope. Off by default;
	// when off the wire encoding is byte-identical to a build without the
	// feature, and span-aware observers receive zero contexts.
	SpanTracing bool
}

// Cluster is one n-rank run: transport, stable storage, protocol instances,
// rank runtimes and the failure controller.
type Cluster struct {
	cfg     Config
	clk     clock.Clock
	tr      transport.Transport
	store   stable.Backend
	ckpts   *ckpt.Manager
	coll    *metrics.Collector
	telLog  *tel.Logger
	factory app.Factory

	// ckptPolicy is the resolved checkpoint policy (Config.CheckpointPolicy,
	// or EveryKSteps derived from CheckpointEvery; nil disables periodic
	// checkpoints).
	ckptPolicy layer.CheckpointPolicy

	// spanObs is the configured observer's optional SpanObserver view,
	// resolved once at construction (nil when unimplemented) so neither
	// the chain nor the recovery resend path repeats the type assertion.
	spanObs SpanObserver

	// durableLogs is Config.DurableLogs resolved once: the hot send path
	// and the advance handler branch on it.
	durableLogs bool
	// slogNames[rank][dest] is the stable-store stream mirroring rank's
	// sender log for dest; nil unless durableLogs.
	slogNames [][]string

	// ckptWG counts the per-rank checkpoint writer goroutines; Close
	// waits for them (they drain queued saves) before closing the store.
	ckptWG sync.WaitGroup

	// Observability families (nil handles when cfg.Obs is nil; records
	// through them no-op).
	deliverLat   *obs.Family
	recvBatchFam *obs.Family
	ckptStallFam *obs.Family
	phaseFam     map[string]*obs.Family

	// replayReordered is set, never cleared, by the first AnySource
	// delivery of a restored incarnation, or by a restart: from then on a
	// replay may have delivered in another order than the run it
	// re-executes, and TDI's resync floors gate deltas
	// (core.TDI.SetReorderFlag).
	replayReordered atomic.Bool

	ranksMu  sync.Mutex
	ranks    []*rankRuntime
	finished []bool
	failedAt []int64 // high-water delivered count across kills, -1 before any
	waitCh   chan struct{}

	closed chan struct{}
}

// NewCluster builds a cluster. Call Start to launch the application,
// Wait for completion, and Close to release resources.
func NewCluster(cfg Config, factory app.Factory) (*Cluster, error) {
	if cfg.N <= 0 {
		return nil, fmt.Errorf("harness: N must be positive, got %d", cfg.N)
	}
	if factory == nil {
		return nil, fmt.Errorf("harness: nil app factory")
	}
	if cfg.Protocol == "" {
		cfg.Protocol = TDI
	}
	if cfg.Protocol == None && (cfg.CheckpointEvery > 0 || cfg.CheckpointPolicy != nil || cfg.DurableLogs) {
		return nil, fmt.Errorf("harness: protocol none takes no checkpoints and keeps no logs")
	}
	if cfg.Clock == nil {
		cfg.Clock = clock.Real{}
	}
	if cfg.Stable == nil {
		cfg.Stable = stable.NewSim()
	}
	tr, err := newTransport(cfg)
	if err != nil {
		return nil, err
	}
	if _, ok := tr.Inbox(0).(transport.BatchInbox); !ok {
		tr.Close()
		return nil, fmt.Errorf("harness: %s transport's inbox does not drain in batches (transport.BatchInbox)", tr.Kind())
	}
	c := &Cluster{
		cfg:     cfg,
		clk:     cfg.Clock,
		tr:      tr,
		store:   cfg.Stable,
		coll:    metrics.NewCollector(cfg.N),
		factory: factory,
		ranks:   make([]*rankRuntime, cfg.N),
		closed:  make(chan struct{}),
	}
	c.ckptPolicy = cfg.CheckpointPolicy
	if c.ckptPolicy == nil && cfg.CheckpointEvery > 0 {
		c.ckptPolicy = layer.EveryKSteps(cfg.CheckpointEvery)
	}
	c.coll.AttachObs(cfg.Obs)
	c.deliverLat = cfg.Obs.Family("deliver_latency_ns",
		"Time from the application entering Recv to the message being delivered.", "ns")
	c.recvBatchFam = cfg.Obs.Family("recv_batch_envelopes",
		"Envelopes drained from the transport inbox per receiver wakeup.", "envelopes")
	c.ckptStallFam = cfg.Obs.Family("ckpt_stall_ns",
		"Time the application is blocked by a checkpoint (the snapshot); the durable write and CHECKPOINT_ADVANCE fan-out run off the critical path.", "ns")
	c.phaseFam = make(map[string]*obs.Family, len(RecoveryPhases))
	for _, phase := range RecoveryPhases {
		c.phaseFam[phase] = cfg.Obs.Family(PhaseFamilyName(phase),
			"Duration of the "+phase+" recovery phase.", "ns")
	}
	c.ckpts = ckpt.NewManager(c.store)
	c.durableLogs = cfg.DurableLogs
	if c.durableLogs {
		c.slogNames = make([][]string, cfg.N)
		for rank := range c.slogNames {
			c.slogNames[rank] = slogStreams(rank, cfg.N)
		}
	}
	c.finished = make([]bool, cfg.N)
	c.failedAt = make([]int64, cfg.N)
	for i := range c.failedAt {
		c.failedAt[i] = -1
	}
	c.waitCh = make(chan struct{}, 1)
	if cfg.Protocol == TEL {
		c.telLog = tel.NewLogger(cfg.N, cfg.Clock, cfg.EventLoggerLatency)
	}
	// Observers that record run metadata (trace.Recorder) learn which
	// transport carried the run without the harness importing them.
	if s, ok := cfg.Observer.(interface{ SetTransport(kind string) }); ok {
		s.SetTransport(tr.Kind())
	}
	c.spanObs, _ = cfg.Observer.(SpanObserver)
	return c, nil
}

// newTransport builds the configured communication substrate.
func newTransport(cfg Config) (transport.Transport, error) {
	batchFam := cfg.Obs.Family("send_batch_frames",
		"Frames carried by one link write.", "frames")
	switch cfg.Transport {
	case "", transport.Mem:
		fcfg := cfg.Fabric
		fcfg.N = cfg.N
		fcfg.Clock = cfg.Clock
		fcfg.Batch = batchFam
		return fabric.New(fcfg), nil
	case transport.TCP:
		return tcp.New(tcp.Config{
			N:               cfg.N,
			LinkBufferBytes: cfg.Fabric.LinkBufferBytes,
			Seed:            cfg.Fabric.Seed,
			Clock:           cfg.Clock,
			Backoff: cfg.Obs.Family("tcp_reconnect_backoff_ns",
				"Backoff delay slept before each TCP reconnect attempt.", "ns"),
			Batch: batchFam,
		})
	default:
		return nil, fmt.Errorf("harness: unknown transport %q", cfg.Transport)
	}
}

// Transport exposes the cluster's communication substrate (tests,
// diagnostics, trace headers).
func (c *Cluster) Transport() transport.Transport { return c.tr }

// N returns the number of ranks.
func (c *Cluster) N() int { return c.cfg.N }

// newProtocol builds a protocol instance bound to runtime r.
func (c *Cluster) newProtocol(r *rankRuntime) (proto.Protocol, error) {
	m := c.coll.Rank(r.id)
	switch c.cfg.Protocol {
	case TDI:
		p := core.New(r.id, c.cfg.N, m, c.clk)
		if c.cfg.FullVectors {
			p.SetRefreshEvery(1)
		}
		p.SetReorderFlag(&c.replayReordered)
		return p, nil
	case TAG:
		return tag.New(r.id, c.cfg.N, m, c.clk), nil
	case TEL:
		return tel.New(r.id, c.cfg.N, c.telLog, &r.mu, m, c.clk), nil
	case None:
		return unprotected{}, nil
	default:
		return nil, fmt.Errorf("harness: unknown protocol %q", c.cfg.Protocol)
	}
}

// Start launches every rank's goroutines and the application.
func (c *Cluster) Start() error {
	for rank := 0; rank < c.cfg.N; rank++ {
		r, err := c.newRuntime(rank, 0)
		if err != nil {
			return err
		}
		if err := r.slogRewind(); err != nil {
			return err
		}
		c.ranksMu.Lock()
		c.ranks[rank] = r
		c.ranksMu.Unlock()
		r.start(0)
	}
	if c.cfg.StallTimeout > 0 {
		go c.stallWatchdog()
	}
	return nil
}

// stallWatchdog periodically wakes every delivery wait so the stall
// timeout in Recv can fire (sync.Cond has no timed wait).
func (c *Cluster) stallWatchdog() {
	period := c.cfg.StallTimeout / 4
	if period < 10*time.Millisecond {
		period = 10 * time.Millisecond
	}
	for {
		select {
		case <-c.closed:
			return
		case <-c.clk.After(period):
		}
		c.ranksMu.Lock()
		rs := append([]*rankRuntime(nil), c.ranks...)
		c.ranksMu.Unlock()
		for _, r := range rs {
			if r != nil {
				r.mu.Lock()
				r.cond.Broadcast()
				r.mu.Unlock()
			}
		}
	}
}

// notifyWait nudges Wait to re-examine completion state.
func (c *Cluster) notifyWait() {
	select {
	case c.waitCh <- struct{}{}:
	default:
	}
}

// Wait blocks until every rank's application has completed (surviving
// failures and recoveries along the way).
func (c *Cluster) Wait() {
	for {
		c.ranksMu.Lock()
		done := true
		for _, f := range c.finished {
			if !f {
				done = false
				break
			}
		}
		c.ranksMu.Unlock()
		if done {
			return
		}
		select {
		case <-c.waitCh:
		case <-c.closed:
			return
		}
	}
}

// Metrics returns the per-rank overhead counters.
func (c *Cluster) Metrics() *metrics.Collector { return c.coll }

// AppSnapshot returns a copy of the current application snapshot for
// rank. Call it after Wait: while the application goroutine is running,
// the snapshot may be mid-step.
func (c *Cluster) AppSnapshot(rank int) []byte {
	c.ranksMu.Lock()
	r := c.ranks[rank]
	c.ranksMu.Unlock()
	if r == nil {
		return nil
	}
	r.mu.Lock()
	defer r.mu.Unlock()
	return bytes.Clone(r.theApp.Snapshot())
}

// Store exposes the stable-storage backend (tests, diagnostics).
func (c *Cluster) Store() stable.Backend { return c.store }

// LogItemsLive reports the current total sender-log population across
// live ranks (the memory the CHECKPOINT_ADVANCE rule bounds).
func (c *Cluster) LogItemsLive() int {
	total := 0
	c.ranksMu.Lock()
	defer c.ranksMu.Unlock()
	for _, r := range c.ranks {
		if r == nil {
			continue
		}
		r.mu.Lock()
		total += r.log.Len()
		r.mu.Unlock()
	}
	return total
}

// RankSnapshots returns each rank's counters with the LogItemsLive gauge
// read, as LogItemsLive reads it, from the rank's current log under its
// lock: the per-rank counters the debug endpoint serves.
func (c *Cluster) RankSnapshots() []metrics.Snapshot {
	out := c.coll.PerRank()
	c.ranksMu.Lock()
	defer c.ranksMu.Unlock()
	for i, r := range c.ranks {
		if r != nil {
			r.mu.Lock()
			out[i].LogItemsLive = int64(r.log.Len())
			r.mu.Unlock()
		}
	}
	return out
}

// Close tears the cluster down: all rank goroutines exit, queued
// checkpoint saves are flushed, and the stable backend is released.
func (c *Cluster) Close() {
	select {
	case <-c.closed:
		return
	default:
	}
	close(c.closed)
	c.ranksMu.Lock()
	rs := append([]*rankRuntime(nil), c.ranks...)
	c.ranksMu.Unlock()
	for _, r := range rs {
		if r != nil {
			r.kill()
		}
	}
	if c.telLog != nil {
		c.telLog.Close()
	}
	c.tr.Close()
	// A receiver may still be serving a ROLLBACK or absorbing a RESPONSE
	// when the kill lands; once its goroutines are out, no observer event
	// follows Close, so a trace exported afterwards is complete.
	for _, r := range rs {
		if r != nil {
			r.senders.Wait()
		}
	}
	// Checkpoint writers drain their queues after the kill, so a clean
	// shutdown never loses a taken checkpoint's durable write; only then
	// is the backend (and its WAL committer) closed.
	c.ckptWG.Wait()
	c.store.Close()
}

// nopObs is the prebuilt no-op observer interface value, so observer()
// on the delivery hot path never constructs an interface.
var nopObs Observer = nopObserver{}

// observer returns the configured observer or a no-op.
func (c *Cluster) observer() Observer {
	if c.cfg.Observer != nil {
		return c.cfg.Observer
	}
	return nopObs
}

// emitPhase records one completed recovery-phase span into its obs
// family and forwards it to the observer.
func (c *Cluster) emitPhase(rank int, phase string, d time.Duration) {
	if f := c.phaseFam[phase]; f != nil {
		f.Rank(rank).RecordDuration(d)
	}
	c.observer().OnRecoveryPhase(rank, phase, d)
}

// Health reports per-rank liveness, incarnation and completion — the
// /healthz payload of the debug server.
func (c *Cluster) Health() obs.Health {
	c.ranksMu.Lock()
	defer c.ranksMu.Unlock()
	h := obs.Health{Finished: true, Ranks: make([]obs.RankHealth, len(c.ranks))}
	for i, r := range c.ranks {
		rh := obs.RankHealth{Rank: i, Finished: c.finished[i]}
		if r != nil {
			rh.Alive = !r.isKilled()
			rh.Incarnation = int(r.incarnation)
		}
		if !rh.Finished {
			h.Finished = false
		}
		h.Ranks[i] = rh
	}
	return h
}

// Clock exposes the cluster's time source (the debug server's sampler
// and uptime run on it).
func (c *Cluster) Clock() clock.Clock { return c.clk }

type nopObserver struct{}

func (nopObserver) OnSend(int, int, int64, bool)               {}
func (nopObserver) OnDeliver(int, int, int64, int64, int64)    {}
func (nopObserver) OnCheckpoint(int, int, int64)               {}
func (nopObserver) OnKill(int)                                 {}
func (nopObserver) OnRecover(int, int)                         {}
func (nopObserver) OnRecoveryPhase(int, string, time.Duration) {}
func (nopObserver) OnRecoveryComplete(int, time.Duration)      {}
func (nopObserver) OnRollback(int, int)                        {}
func (nopObserver) OnResponse(int, int)                        {}
func (nopObserver) OnIngestRejected(int, string)               {}
