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
// Stats, TraceRecorder, ObsRegistry and Clock below — because their full
// method sets are the product (counter snapshots, trace validation,
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
)

// Mode selects the communication architecture of the paper's Fig. 4.
type Mode int

const (
	// NonBlocking buffers sends in queue A with a dedicated sender
	// goroutine (Fig. 4b).
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
type Env interface {
	Rank() int
	N() int
	Send(dest int, tag int32, data []byte)
	Recv(source int, tag int32) (data []byte, from int)
}

// App is a deterministic step-structured application; see the paper's
// execution model discussion (Section II). Apps using AnySource must be
// insensitive to the matched arrival order.
type App interface {
	Steps() int
	Step(env Env, s int)
	Snapshot() []byte
	Restore(data []byte) error
}

// Factory creates the rank-th application instance; called again for
// every incarnation after a failure.
type Factory func(rank, n int) App

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
// validation.
//
// Stability: intentionally aliased to the internal trace recorder — its
// validation and export methods (Validate, CheckInvariants, WriteJSONL,
// Events) are the product. The recorded event schema may gain kinds and
// fields; the JSONL header carries the version embedders should check.
type TraceRecorder = trace.Recorder

// NewBoundedTrace returns a TraceRecorder that retains at most capacity
// raw events. Validation stays exact across evictions (the streaming
// validators absorb evicted events), which keeps long soak runs from
// growing the trace without bound.
func NewBoundedTrace(capacity int) *TraceRecorder { return trace.NewBounded(capacity) }

// FlightRecorder is the crash "black box": a bounded trace ring armed
// for the whole run, dumpable to a JSONL file (Dump) or streamed from
// the debug server's /debug/flight endpoint. Arm one with ArmFlight,
// point Config.Flight at it, and every chaos failure or crash can ship
// the trace window that reproduces it.
//
// Stability: intentionally aliased to the internal flight recorder; the
// dump file format is the versioned trace JSONL that windar-trace and
// Import consume.
type FlightRecorder = trace.FlightRecorder

// ArmFlight builds a FlightRecorder around a fresh bounded trace ring
// holding events entries (<= 0 selects a default sized for soak runs).
// Dumps land in dir.
func ArmFlight(dir string, events int) *FlightRecorder { return trace.ArmFlight(dir, events) }

// NewFlightRecorder wraps an existing TraceRecorder so its contents can
// be dumped — use it when the run already records a trace for validation
// and the flight dumps should share that ring.
func NewFlightRecorder(rec *TraceRecorder, dir string) *FlightRecorder {
	return trace.NewFlightRecorder(rec, dir)
}

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
	// one of them.
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
	// event for validation.
	Trace *TraceRecorder
	// Tracing stamps every message with a causal SpanContext carried in
	// the wire envelope, so per-rank traces can be stitched into a
	// cross-rank causal DAG (cmd/windar-trace). Off by default; when off
	// the wire encoding is unchanged and spans stay zero. The hot path
	// remains allocation-free with tracing on (the delivery_scan_traced
	// alloc probe gates it).
	Tracing bool
	// Flight arms the crash flight recorder: its ring receives every
	// harness event and ServeDebug exposes the window at /debug/flight.
	// When Trace is nil the flight ring is installed as the cluster
	// observer; when both are set they must share one recorder (build the
	// FlightRecorder with NewFlightRecorder(Trace, dir)) — disjoint rings
	// would leave one of them empty, so NewCluster rejects that.
	Flight *FlightRecorder
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
	} else if c.Flight != nil {
		cfg.Observer = c.Flight.Recorder()
	}
	cfg.Obs = c.Obs
	return cfg
}

// appAdapter bridges the public App to the internal application model.
type appAdapter struct{ inner App }

func (a appAdapter) Steps() int               { return a.inner.Steps() }
func (a appAdapter) Step(env iapp.Env, s int) { a.inner.Step(env, s) }
func (a appAdapter) Snapshot() []byte         { return a.inner.Snapshot() }
func (a appAdapter) Restore(b []byte) error   { return a.inner.Restore(b) }

// Cluster is a running n-rank system with failure injection.
type Cluster struct {
	inner  *harness.Cluster
	obs    *ObsRegistry
	meta   map[string]string
	flight *FlightRecorder
}

// NewCluster builds a cluster executing factory's application under cfg.
func NewCluster(cfg Config, factory Factory) (*Cluster, error) {
	if factory == nil {
		return nil, fmt.Errorf("windar: nil factory")
	}
	if cfg.Flight != nil && cfg.Trace != nil && cfg.Flight.Recorder() != cfg.Trace {
		return nil, fmt.Errorf("windar: Config.Flight and Config.Trace carry different recorders; share one with NewFlightRecorder(Trace, dir)")
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
	inner, err := harness.NewCluster(icfg, func(rank, n int) iapp.App {
		a := factory(rank, n)
		if a == nil {
			return nil
		}
		return appAdapter{inner: a}
	})
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
	return &Cluster{inner: inner, obs: cfg.Obs, meta: meta, flight: cfg.Flight}, nil
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
// so validation measures the resumed run correctly (the seed is
// in-process only — an exported trace of a resumed run covers just the
// resumed suffix).
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
// windar-top), /healthz (per-rank liveness and incarnations) and
// /debug/pprof/*. Close it before the cluster.
type DebugServer struct {
	srv *obs.Server
	smp *obs.Sampler
}

// Addr returns the bound listen address (useful with port 0).
func (d *DebugServer) Addr() string { return d.srv.Addr() }

// Close stops the sampler and the HTTP listener.
func (d *DebugServer) Close() error {
	d.smp.Stop()
	return d.srv.Close()
}

// ServeDebug starts the debug HTTP server on addr (e.g.
// "127.0.0.1:8077"; port 0 picks a free one — read it back from Addr).
// The endpoints expose the cluster's counters, the Config.Obs histogram
// families when a registry was attached, per-rank health, and a short
// sampled history of the aggregate counters for rate computation.
func (c *Cluster) ServeDebug(addr string) (*DebugServer, error) {
	counters := func() []obs.RankCounters {
		per := c.inner.Metrics().PerRank()
		out := make([]obs.RankCounters, len(per))
		for i, s := range per {
			out[i] = obs.RankCounters{Rank: i, Counters: countersOf(s)}
		}
		return out
	}
	smp := obs.NewSampler(c.inner.Clock(), 250*time.Millisecond, 240, func() []obs.Counter {
		return countersOf(c.inner.Metrics().Total())
	})
	src := obs.Source{
		Registry: c.obs,
		Counters: counters,
		Health:   c.inner.Health,
		Sampler:  smp,
		Meta:     c.meta,
		Clock:    c.inner.Clock(),
	}
	if c.flight != nil {
		src.Flight = c.flight.WriteSnapshot
	}
	srv, err := obs.Serve(addr, src)
	if err != nil {
		return nil, err
	}
	smp.Start()
	return &DebugServer{srv: srv, smp: smp}, nil
}

// countersOf flattens a metrics snapshot into the obs counter schema.
func countersOf(s metrics.Snapshot) []obs.Counter {
	vars := s.Vars()
	out := make([]obs.Counter, len(vars))
	for i, v := range vars {
		out[i] = obs.Counter{Name: v.Name, Value: v.Value}
	}
	return out
}

// NPBFactory returns one of the paper's benchmarks: "lu", "bt" or "sp",
// on an N^3 domain for the given iteration count.
func NPBFactory(name string, n, iterations int) (Factory, error) {
	inner, err := npb.Benchmark(name, npb.Params{N: n, Iterations: iterations, NormEvery: 4})
	if err != nil {
		return nil, err
	}
	return wrapFactory(inner), nil
}

// WorkloadFactory returns a synthetic workload: "ring", "halo",
// "masterworker" or "pairs".
func WorkloadFactory(name string, steps int) (Factory, error) {
	inner, err := workload.ByName(name, steps)
	if err != nil {
		return nil, err
	}
	return wrapFactory(inner), nil
}

// wrapFactory adapts an internal factory to the public Factory type.
func wrapFactory(inner iapp.Factory) Factory {
	return func(rank, n int) App {
		a := inner(rank, n)
		return publicApp{inner: a}
	}
}

// publicApp bridges internal apps back out through the public interface.
type publicApp struct{ inner iapp.App }

func (p publicApp) Steps() int             { return p.inner.Steps() }
func (p publicApp) Step(env Env, s int)    { p.inner.Step(env, s) }
func (p publicApp) Snapshot() []byte       { return p.inner.Snapshot() }
func (p publicApp) Restore(b []byte) error { return p.inner.Restore(b) }
