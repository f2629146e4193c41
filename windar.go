// Package windar is a from-scratch Go reproduction of the system in
// Jin-Min Yang, "A Lightweight Causal Message Logging Protocol to Lower
// Fault Tolerance Overhead" (IEEE CLUSTER 2016): the TDI causal message
// logging protocol, the TAG (antecedence graph) and TEL (event logger)
// baselines it is evaluated against, a simulated cluster substrate
// (fabric, MPI-style messaging, stable storage, checkpointing, failure
// injection) and NPB-like LU/BT/SP workloads. cmd/windar-bench
// regenerates the paper's Fig. 6, Fig. 7 and Fig. 8.
//
// Quick start:
//
//	cfg := windar.Config{Procs: 4, Protocol: windar.TDI, CheckpointEvery: 3}
//	factory, _ := windar.WorkloadFactory("ring", 50)
//	c, _ := windar.NewCluster(cfg, factory)
//	c.Start()
//	c.KillAndRecover(2, time.Millisecond) // inject a failure, recover it
//	c.Wait()
//
// Applications implement the App interface (deterministic,
// step-structured, snapshot-restorable); the harness runs one instance
// per rank, logs messages causally under the chosen protocol,
// checkpoints to simulated stable storage, and recovers killed ranks by
// rolling forward from their last checkpoint.
//
// # Embedding
//
// windar is designed to embed as a library: every message flows through
// a composable handler/interceptor chain (package windar/layer), and
// Config.Interceptors slots custom layers between the harness's own
// concerns (protocol piggyback, metrics, trace/chaos observers) and the
// application. An interceptor sees sends, deliveries, checkpoints and
// restores, may transform payloads, and runs with zero per-message
// allocation when it follows the layer contract. See cmd/windar-gateway
// for an HTTP service fronting a causally-logged cluster, and
// examples/interceptor for a minimal custom layer.
//
// # API stability
//
// The symbols exported here are the supported surface. Several are type
// aliases that intentionally re-export an internal type wholesale —
// Env, App, Factory, Stats, TraceRecorder, ObsRegistry and Clock below —
// because their full method sets are the product (the application
// model the harness runs, counter snapshots, trace validation,
// histogram export, the time source). Each alias documents its own
// stability boundary: what embedders may rely on, and what is an
// implementation detail that can change between minor versions.
// Everything under internal/ that is not re-exported here is out of
// bounds; the windar-lint pubapi analyzer enforces that examples and
// shipped binaries respect the boundary.
package windar

import (
	"fmt"
	"time"

	iapp "windar/internal/app"
	"windar/internal/clock"
	"windar/internal/fabric"
	"windar/internal/harness"
	"windar/internal/metrics"
	"windar/internal/npb"
	"windar/internal/obs"
	"windar/internal/stable"
	"windar/internal/trace"
	"windar/internal/workload"
	"windar/layer"
)

// Protocol selects the causal message logging protocol.
type Protocol string

const (
	// TDI is the paper's lightweight dependent-interval protocol.
	TDI Protocol = "tdi"
	// TAG is the antecedence-graph baseline (Manetho/LogOn style).
	TAG Protocol = "tag"
	// TEL is the event-logger baseline (Bouteiller et al. style).
	TEL Protocol = "tel"
	// None logs nothing: the unprotected baseline logging's cost is
	// measured against. It takes no checkpoints and cannot recover, so
	// it serves fault-free runs only.
	None Protocol = "none"
)

// Mode selects the communication architecture of the paper's Fig. 4.
type Mode int

const (
	// NonBlocking buffers sends in the transport's bounded per-link
	// buffer, queue A of Fig. 4b: a send returns once the link owns the
	// message and waits only while that link is full.
	NonBlocking Mode = iota
	// Blocking performs rendezvous sends from the application thread
	// (Fig. 4a).
	Blocking
)

// TransportKind selects the communication substrate a cluster runs
// over.
type TransportKind = string

const (
	// TransportMem is the in-process simulated fabric with the paper's
	// latency/bandwidth/jitter model (the default, and the substrate for
	// the figure experiments).
	TransportMem TransportKind = "mem"
	// TransportTCP runs every rank pair over a real loopback TCP
	// connection with the framed wire format; the latency knobs below do
	// not apply.
	TransportTCP TransportKind = "tcp"
)

// StableKind selects the stable-storage backend a cluster checkpoints
// to.
type StableKind = string

const (
	// StableSim is the simulated in-memory stable store (the default,
	// and the backend for the figure experiments). It survives rank
	// kills; nothing survives the process.
	StableSim StableKind = "sim"
	// StableDisk persists checkpoints (and, with DurableLogs, sender
	// logs) in Config.StableDir through per-rank parallel WAL files with
	// group commit — rank state then survives SIGKILL, and
	// Cluster.StartFromStable resumes a new process from the directory.
	StableDisk StableKind = "disk"
)

// AnySource matches any sender in Recv — MPI_ANY_SOURCE.
const AnySource = iapp.AnySource

// Env is the communication interface handed to applications. Delivery is
// strictly FIFO per sender channel.
type Env = iapp.Env

// App is a deterministic step-structured application; see the paper's
// execution model discussion (Section II). Apps using AnySource must be
// insensitive to the matched arrival order.
type App = iapp.App

// Factory creates the rank-th application instance; called again for
// every incarnation after a failure.
type Factory = iapp.Factory

// Handler is the app-facing chain surface: the Send/Deliver/
// Checkpoint/Restore verbs interceptors wrap. Alias of layer.Handler —
// the windar/layer package is public and stable; embedders may import it
// directly.
type Handler = layer.Handler

// Interceptor wraps a Handler with a custom chain layer; supply them
// through Config.Interceptors. Alias of layer.Interceptor.
type Interceptor = layer.Interceptor

// Msg is one application message traversing the chain. Alias of
// layer.Msg; see its field and reuse contract there.
type Msg = layer.Msg

// Forward is an embeddable Handler base forwarding every verb to Next.
// Alias of layer.Forward.
type Forward = layer.Forward

// CheckpointInfo describes one completed checkpoint observed by the
// chain. Alias of layer.CheckpointInfo.
type CheckpointInfo = layer.CheckpointInfo

// RestoreInfo describes one incarnation resuming from a checkpoint.
// Alias of layer.RestoreInfo.
type RestoreInfo = layer.RestoreInfo

// CheckpointPolicy decides at which step boundaries ranks checkpoint;
// set Config.CheckpointPolicy to override the CheckpointEvery interval.
// Alias of layer.CheckpointPolicy.
type CheckpointPolicy = layer.CheckpointPolicy

// Stats is the per-run overhead counter snapshot (piggyback identifiers
// and bytes, tracking time, log retention, recovery counts...).
//
// Stability: intentionally aliased to the internal metrics snapshot so
// embedders get every counter without a translation layer. The exported
// field set may grow in any release; existing fields keep their names
// and meaning. Vars() is the stable enumeration for generic export.
type Stats = metrics.Snapshot

// TraceRecorder records harness events for global-consistency
// validation. It is also the crash "black box": a bounded recorder armed
// for the whole run keeps the last window of events, ServeDebug streams
// that window at /debug/flight, and WriteFile dumps it to a JSONL file
// that windar-trace checks exactly as the live recorder validates.
//
// Stability: intentionally aliased to the internal trace recorder — its
// validation and export methods (Validate, Export, WriteFile, Events)
// are the product. The recorded event schema may gain kinds and
// fields; the JSONL header carries the version embedders should check.
type TraceRecorder = trace.Recorder

// NewBoundedTrace returns a TraceRecorder that retains at most capacity
// raw events. Validation stays exact across evictions (the streaming
// checker absorbs evicted events), which keeps long soak runs from
// growing the trace without bound.
func NewBoundedTrace(capacity int) *TraceRecorder { return trace.NewBounded(capacity) }

// ObsRegistry collects latency/size histograms from the cluster's hot
// paths (deliver latency, piggyback sizes, tracking time, TCP reconnect
// backoff) and recovery-phase durations. Build one with NewObsRegistry,
// set Config.Obs, and expose it live with Cluster.ServeDebug.
//
// Stability: intentionally aliased to the internal registry so embedders
// can walk families and histograms directly. Family names recorded by
// the harness are stable identifiers; new families may appear in any
// release. Bucket layout is an implementation detail — consume
// histograms through their quantile/export methods.
type ObsRegistry = obs.Registry

// NewObsRegistry returns an observability registry for an n-rank run.
func NewObsRegistry(n int) *ObsRegistry { return obs.NewRegistry(n) }

// Clock abstracts time. The windar-lint directclock analyzer keeps
// every package but internal/clock off the time package, so commands and
// examples sleep and read time through RealClock.
//
// Stability: intentionally aliased to the internal clock interface; its
// method set only grows with a major version.
type Clock = clock.Clock

// RealClock returns the wall clock.
func RealClock() Clock { return clock.Real{} }

// Config describes a cluster run.
type Config struct {
	// Procs is the number of ranks. Required.
	Procs int
	// Protocol defaults to TDI. TDI is cheap because it does not record
	// the order of AnySource deliveries: a recovering rank may receive
	// them in a new order, so an app that uses AnySource under TDI must
	// compute the same state whatever the arrival order of the messages
	// a receive matches. TAG and TEL replay the recorded order and carry
	// no such contract; an app whose state depends on arrival order needs
	// one of them. Under TDI an AnySource app also pays full-vector
	// piggybacks in replays, up to each peer's resync floor; an app that
	// names every source replays with the deltas of its first run, except
	// after a whole-cluster restart.
	Protocol Protocol
	// Mode defaults to NonBlocking.
	Mode Mode
	// CheckpointEvery takes a checkpoint before every k-th step; 0
	// disables periodic checkpoints. Ignored when CheckpointPolicy is
	// set.
	CheckpointEvery int
	// CheckpointPolicy, if non-nil, replaces the CheckpointEvery interval
	// with a custom per-rank, per-step decision (layer.CheckpointPolicy).
	CheckpointPolicy CheckpointPolicy
	// Interceptors are custom chain layers slotted between the harness's
	// built-in concerns and the application, outermost first. Each
	// interceptor's Wrap runs once per rank incarnation; Send/Deliver run
	// on the hot path — see the windar/layer package documentation for
	// the full contract.
	Interceptors []Interceptor
	// Transport selects the communication substrate: TransportMem
	// (default; a 20µs per-message latency with infinite bandwidth) or
	// TransportTCP. JitterFraction and Seed shape the mem fabric only;
	// TCP runs at loopback speed.
	Transport TransportKind
	// JitterFraction adds up to that fraction of the base latency as
	// extra random delay.
	JitterFraction float64
	// Seed makes network jitter reproducible.
	Seed int64
	// EventLoggerLatency is TEL's stable event-logger round trip.
	EventLoggerLatency time.Duration
	// Stable selects the stable-storage backend: StableSim (default), an
	// in-memory medium that survives rank kills, or StableDisk, a
	// write-ahead log that survives process death. No latency is
	// modelled: a checkpoint costs what the backend really costs.
	Stable StableKind
	// StableDir is the disk backend's directory (created if missing).
	// Required when Stable is StableDisk.
	StableDir string
	// FsyncEvery is the disk backend's group-commit window: durable
	// writes wait at most about this long while neighbouring writes
	// share one fsync. 0 commits as soon as the committer observes a
	// write. Ignored by StableSim.
	FsyncEvery time.Duration
	// DurableLogs mirrors every sender-log append into the stable store,
	// making checkpoints incremental (the blob omits the log) and — on
	// StableDisk — the retained log replayable after a process kill.
	DurableLogs bool
	// StallTimeout, when positive, crashes with a diagnostic if a rank's
	// receive waits longer than this (a debugging aid).
	StallTimeout time.Duration
	// Trace, if non-nil, records every send/deliver/checkpoint/failure
	// event for validation. It is also the crash flight recorder: a
	// bounded one (NewBoundedTrace) can stay armed for a whole run,
	// ServeDebug streams its window at /debug/flight, and WriteFile dumps
	// it whenever something dies.
	Trace *TraceRecorder
	// Tracing stamps every message with a causal SpanContext carried in
	// the wire envelope, so per-rank traces can be stitched into a
	// cross-rank causal DAG (cmd/windar-trace). Off by default; when off
	// the wire encoding is unchanged and spans stay zero. The hot path
	// remains allocation-free with tracing on (the delivery_scan_traced
	// alloc probe gates it).
	Tracing bool
	// Obs, if non-nil, wires the hot paths to histogram families
	// (deliver latency, piggyback sizes, tracking time, recovery
	// phases). Expose it over HTTP with Cluster.ServeDebug. Nil keeps
	// every recording site a no-op.
	Obs *ObsRegistry
}

func (c Config) internal() harness.Config {
	cfg := harness.Config{
		N:               c.Procs,
		Protocol:        harness.ProtocolKind(c.Protocol),
		CheckpointEvery: c.CheckpointEvery,
		Transport:       c.Transport,
		Fabric: fabric.Config{
			BaseLatency:    20 * time.Microsecond,
			JitterFraction: c.JitterFraction,
			Seed:           c.Seed,
		},
		EventLoggerLatency: c.EventLoggerLatency,
		StallTimeout:       c.StallTimeout,
		CheckpointPolicy:   c.CheckpointPolicy,
		Interceptors:       c.Interceptors,
		SpanTracing:        c.Tracing,
	}
	if c.Mode == Blocking {
		cfg.Mode = harness.Blocking
	}
	if c.Trace != nil {
		cfg.Observer = c.Trace
	}
	cfg.Obs = c.Obs
	return cfg
}

// Cluster is a running n-rank system with failure injection.
type Cluster struct {
	inner *harness.Cluster
	obs   *ObsRegistry
	meta  map[string]string
	trace *TraceRecorder
}

// NewCluster builds a cluster executing factory's application under cfg.
func NewCluster(cfg Config, factory Factory) (*Cluster, error) {
	if factory == nil {
		return nil, fmt.Errorf("windar: nil factory")
	}
	icfg := cfg.internal()
	switch cfg.Stable {
	case "", StableSim:
	case StableDisk:
		if cfg.StableDir == "" {
			return nil, fmt.Errorf("windar: Stable %q requires StableDir", StableDisk)
		}
		d, err := stable.OpenDisk(stable.DiskOptions{Dir: cfg.StableDir, FsyncInterval: cfg.FsyncEvery})
		if err != nil {
			return nil, err
		}
		icfg.Stable = d
	default:
		return nil, fmt.Errorf("windar: unknown stable backend %q", cfg.Stable)
	}
	icfg.DurableLogs = cfg.DurableLogs
	inner, err := harness.NewCluster(icfg, factory)
	if err != nil {
		if icfg.Stable != nil {
			icfg.Stable.Close()
		}
		return nil, err
	}
	protocol := cfg.Protocol
	if protocol == "" {
		protocol = TDI
	}
	tk := cfg.Transport
	if tk == "" {
		tk = TransportMem
	}
	sk := cfg.Stable
	if sk == "" {
		sk = StableSim
	}
	meta := map[string]string{
		"procs":     fmt.Sprint(cfg.Procs),
		"protocol":  string(protocol),
		"transport": tk,
		"stable":    sk,
	}
	return &Cluster{inner: inner, obs: cfg.Obs, meta: meta, trace: cfg.Trace}, nil
}

// Start launches every rank.
func (c *Cluster) Start() error { return c.inner.Start() }

// StartFromStable launches the cluster with every rank restored from its
// durable checkpoint — the restart path after the previous process was
// killed while running over StableDisk on the same StableDir. A rank
// without a durable checkpoint restores the initial state, so on an
// empty directory the run reaches the same result as Start. Every rank
// broadcasts a ROLLBACK and rolls forward exactly as a single-rank
// recovery does, through the same restore path; when Config.Trace
// is set the recorder is seeded with the restored checkpoint baselines
// so validation measures the resumed run correctly, and its export
// carries the seed, so the file validates the same way offline.
func (c *Cluster) StartFromStable() error { return c.inner.StartFromStable() }

// Wait blocks until every rank's application completed, across any
// injected failures and recoveries.
func (c *Cluster) Wait() { c.inner.Wait() }

// Close releases all resources.
func (c *Cluster) Close() { c.inner.Close() }

// Kill injects a failure: the rank loses all volatile state.
func (c *Cluster) Kill(rank int) error { return c.inner.Kill(rank) }

// Recover starts the failed rank's incarnation from its last checkpoint.
func (c *Cluster) Recover(rank int) error { return c.inner.Recover(rank) }

// KillAndRecover kills rank and recovers it after detectDelay.
func (c *Cluster) KillAndRecover(rank int, detectDelay time.Duration) error {
	return c.inner.KillAndRecover(rank, detectDelay)
}

// Stats returns the aggregated overhead counters.
func (c *Cluster) Stats() Stats { return c.inner.Metrics().Total() }

// AppSnapshot returns rank's current application snapshot (call after
// Wait).
func (c *Cluster) AppSnapshot(rank int) []byte { return c.inner.AppSnapshot(rank) }

// LogItemsLive reports the retained sender-log population across ranks.
func (c *Cluster) LogItemsLive() int { return c.inner.LogItemsLive() }

// DebugServer is a live debug/telemetry endpoint set for one cluster:
// /metrics (Prometheus text), /debug/vars (JSON snapshot polled by
// windar-top), /healthz (per-rank liveness and incarnations),
// /debug/flight and /debug/pprof/*. Close it before the cluster.
type DebugServer struct{ srv *obs.Server }

// Addr returns the bound listen address (useful with port 0).
func (d *DebugServer) Addr() string { return d.srv.Addr() }

// Close stops the HTTP listener.
func (d *DebugServer) Close() error { return d.srv.Close() }

// ServeDebug starts the debug HTTP server on addr (e.g.
// "127.0.0.1:8077"; port 0 picks a free one — read it back from Addr).
// The endpoints expose the cluster's counters, the Config.Obs histogram
// families when a registry was attached, per-rank health, and the
// Config.Trace recorder's current window at /debug/flight (404 when
// Trace is nil).
func (c *Cluster) ServeDebug(addr string) (*DebugServer, error) {
	counters := func() []obs.RankCounters {
		per := c.inner.RankSnapshots()
		out := make([]obs.RankCounters, len(per))
		for i, s := range per {
			out[i] = obs.RankCounters{Rank: i, Counters: s.Vars()}
		}
		return out
	}
	src := obs.Source{
		Registry: c.obs,
		Counters: counters,
		Health:   c.inner.Health,
		Meta:     c.meta,
		Clock:    c.inner.Clock(),
	}
	if c.trace != nil {
		src.Flight = c.trace.Export
	}
	srv, err := obs.Serve(addr, src)
	if err != nil {
		return nil, err
	}
	return &DebugServer{srv: srv}, nil
}

// NPBFactory returns one of the paper's benchmarks: "lu", "bt" or "sp",
// on an N^3 domain for the given iteration count.
func NPBFactory(name string, n, iterations int) (Factory, error) {
	return npb.Benchmark(name, npb.Params{N: n, Iterations: iterations, NormEvery: 4})
}

// WorkloadFactory returns a synthetic workload: "ring", "halo",
// "masterworker" or "pairs".
func WorkloadFactory(name string, steps int) (Factory, error) {
	return workload.ByName(name, steps)
}
