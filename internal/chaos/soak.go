package chaos

import (
	"bytes"
	"fmt"
	"io"
	"path/filepath"
	"strings"
	"time"

	"windar/internal/app"
	"windar/internal/fabric"
	"windar/internal/harness"
	"windar/internal/npb"
	"windar/internal/trace"
	"windar/internal/transport"
	"windar/internal/workload"
)

// telLoggerLatency is the event-logger round trip every run configures.
// Only TEL uses it; at 100µs its determinants are still in flight when
// kills land, which is the window the TEL cells exist to hit.
const telLoggerLatency = 100 * time.Microsecond

// RunOptions configures one chaos run.
type RunOptions struct {
	// Schedule is the fault sequence to execute.
	Schedule Schedule
	// Transport selects the substrate; "" means transport.Mem.
	Transport transport.Kind
	// Procs is the cluster size. Required.
	Procs int
	// App names the workload: a synthetic one (workload.ByName: "ring",
	// "halo", "masterworker", "pairs") or an NPB kernel ("lu", "bt",
	// "sp" on a 6^3 domain). Default "ring".
	App string
	// AppSteps is the application step count (NPB iterations). Default 40.
	AppSteps int
	// Protocol defaults to TDI.
	Protocol harness.ProtocolKind
	// CheckpointEvery defaults to 3, and to none under protocol None.
	CheckpointEvery int
	// Seed feeds the mem fabric's jitter model so network timing is tied
	// to the schedule seed.
	Seed int64
	// StallTimeout arms the harness's stall watchdog: a regression that
	// hangs a delivery wait panics with a state dump instead of wedging
	// the soak. 0 disables it.
	StallTimeout time.Duration
	// SpanTracing stamps every message with a causal span context, so the
	// run's trace reconstructs into a cross-rank lineage DAG
	// (trace.BuildLineage). Adds three uvarints per wire message and
	// nothing to the delivery allocation budget.
	SpanTracing bool
}

func (o *RunOptions) fill() {
	if o.App == "" {
		o.App = "ring"
	}
	if o.AppSteps == 0 {
		o.AppSteps = 40
	}
	if o.Protocol == "" {
		o.Protocol = harness.TDI
	}
	if o.CheckpointEvery == 0 && o.Protocol != harness.None {
		o.CheckpointEvery = 3
	}
}

// RunResult is one chaos run's evidence.
type RunResult struct {
	// Log is the engine's timestamp-free action log (schedule order).
	Log []string
	// States holds every rank's final application snapshot.
	States [][]byte
	// Problems aggregates trace validation and invariant violations
	// (including the rollback-response pairing rule). Empty on a clean
	// run.
	Problems []trace.Problem
	// Trace is the run's full recorder — export it, build a lineage from
	// it, or dump it as a flight file when the run fails.
	Trace *trace.Recorder
}

// appFactory resolves RunOptions.App.
func appFactory(name string, steps int) (app.Factory, error) {
	switch name {
	case "lu", "bt", "sp":
		return npb.Benchmark(name, npb.Params{N: 6, Iterations: steps, NormEvery: 4})
	}
	return workload.ByName(name, steps)
}

// RunSchedule executes one schedule against a fresh cluster and
// validates the run through the file path an operator uses: the trace
// is exported to JSONL and re-imported, and the imported copy must pass
// Validate (auditExport). The final per-rank application states are
// returned for baseline comparison.
func RunSchedule(o RunOptions) (*RunResult, error) {
	o.fill()
	if err := o.Schedule.Validate(o.Procs); err != nil {
		return nil, err
	}
	factory, err := appFactory(o.App, o.AppSteps)
	if err != nil {
		return nil, err
	}
	rec := &trace.Recorder{}
	eng := NewEngine(o.Schedule, rec)
	cfg := harness.Config{
		N:                  o.Procs,
		Protocol:           o.Protocol,
		CheckpointEvery:    o.CheckpointEvery,
		Transport:          o.Transport,
		Fabric:             fabric.Config{BaseLatency: 20 * time.Microsecond, JitterFraction: 0.2, Seed: o.Seed},
		Observer:           eng,
		StallTimeout:       o.StallTimeout,
		SpanTracing:        o.SpanTracing,
		EventLoggerLatency: telLoggerLatency,
	}
	c, err := harness.NewCluster(cfg, factory)
	if err != nil {
		return nil, err
	}
	defer c.Close()
	if err := c.Start(); err != nil {
		return nil, err
	}
	eng.Start(c)
	eng.Wait()
	c.Wait()

	res := &RunResult{Log: eng.Log(), States: make([][]byte, o.Procs), Trace: rec}
	for rank := 0; rank < o.Procs; rank++ {
		res.States[rank] = c.AppSnapshot(rank)
	}
	// Close before exporting: over TCP, late control traffic can still
	// record events after Wait, and the round trip compares counts.
	c.Close()
	var buf bytes.Buffer
	if err := rec.Export(&buf); err != nil {
		return nil, fmt.Errorf("trace export: %w", err)
	}
	imported, problems, err := auditExport(rec, &buf, true)
	if err != nil {
		return nil, err
	}
	res.Problems = problems
	if o.SpanTracing {
		res.Problems = append(res.Problems, trace.BuildLineage(imported).Check()...)
	}
	return res, nil
}

// auditExport re-imports data, the JSONL export of rec, and checks the
// imported copy rather than rec: it must carry rec's event count,
// transport and dropped count, and then goes through Validate (per-link
// order, deliver-index monotonicity, demand satisfaction, checkpoint
// counts, no duplicate, rollback-response pairing and, when the run
// finished, no loss). It returns the imported copy for further checks.
func auditExport(rec *trace.Recorder, data io.Reader, finished bool) (*trace.Recorder, []trace.Problem, error) {
	imported, err := trace.Import(data)
	if err != nil {
		return nil, nil, fmt.Errorf("trace import: %w", err)
	}
	if imported.Len() != rec.Len() {
		return nil, nil, fmt.Errorf("trace round trip: %d events in, %d out", rec.Len(), imported.Len())
	}
	if got, want := imported.Transport(), rec.Transport(); got != want {
		return nil, nil, fmt.Errorf("trace round trip: transport header %q, want %q", got, want)
	}
	if got, want := imported.Dropped(), rec.Dropped(); got != want {
		return nil, nil, fmt.Errorf("trace round trip: dropped count %d, want %d", got, want)
	}
	return imported, imported.Validate(finished), nil
}

// Baseline runs the same workload fault-free (on the mem transport; the
// application's final state is transport-independent) and returns the
// per-rank final snapshots every chaos run must reproduce.
func Baseline(o RunOptions) ([][]byte, error) {
	o.fill()
	factory, err := appFactory(o.App, o.AppSteps)
	if err != nil {
		return nil, err
	}
	cfg := harness.Config{
		N:                  o.Procs,
		Protocol:           o.Protocol,
		CheckpointEvery:    o.CheckpointEvery,
		Fabric:             fabric.Config{BaseLatency: 20 * time.Microsecond},
		StallTimeout:       o.StallTimeout,
		EventLoggerLatency: telLoggerLatency,
	}
	c, err := harness.NewCluster(cfg, factory)
	if err != nil {
		return nil, err
	}
	defer c.Close()
	if err := c.Start(); err != nil {
		return nil, err
	}
	c.Wait()
	states := make([][]byte, o.Procs)
	for rank := 0; rank < o.Procs; rank++ {
		states[rank] = c.AppSnapshot(rank)
	}
	return states, nil
}

// SoakOptions configures a seed-matrix soak.
type SoakOptions struct {
	// Seeds lists the schedules to run (one Generate per seed, unless
	// Schedule pins an explicit one for every seed).
	Seeds []int64
	// Transports lists the substrates to cover; default {mem}.
	Transports []transport.Kind
	// Run carries the per-run knobs (Procs, App, Protocol, ...). Its
	// Schedule and Seed fields are filled per run.
	Run RunOptions
	// Faults, Spacing and Stalls shape Generate (ignored when Schedule
	// is set).
	Faults  int
	Spacing time.Duration
	// Stalls includes transport stall/unstall actions.
	Stalls bool
	// Schedule, when non-nil, replaces generation: every seed runs this
	// exact schedule (the seed still feeds network jitter).
	Schedule *Schedule
	// Replay runs every (seed, transport) cell twice and requires the
	// two action logs to match byte-for-byte and the final states to
	// agree — the determinism acceptance check.
	Replay bool
	// FlightDir, when non-empty, dumps the failing run's full trace there
	// as flight-seed<seed>-<transport>.jsonl (loadable by windar-trace)
	// and names the path in the soak error — the post-mortem for a seed
	// that only fails in CI.
	FlightDir string
	// TraceDir, when non-empty, exports every cell's trace (pass or fail)
	// there as trace-seed<seed>-<transport>.jsonl, ready for windar-trace
	// lineage reconstruction.
	TraceDir string
	// Logf, when non-nil, receives one progress line per run.
	Logf func(format string, args ...any)
}

// Soak runs the seed x transport matrix. It returns nil when every run
// completes with baseline-identical application state and a clean
// trace; otherwise the error names the first failing seed and transport
// and carries a windar-chaos reproduction command.
func Soak(o SoakOptions) error {
	if len(o.Transports) == 0 {
		o.Transports = []transport.Kind{transport.Mem}
	}
	o.Run.fill()
	base, err := Baseline(o.Run)
	if err != nil {
		return fmt.Errorf("chaos: baseline: %w", err)
	}
	for _, tk := range o.Transports {
		for _, seed := range o.Seeds {
			if err := o.runCell(tk, seed, base); err != nil {
				return err
			}
		}
	}
	return nil
}

// runCell executes one (transport, seed) cell, including the optional
// determinism replay.
func (o *SoakOptions) runCell(tk transport.Kind, seed int64, base [][]byte) error {
	ro := o.Run
	ro.Transport = tk
	ro.Seed = seed
	if o.Schedule != nil {
		ro.Schedule = *o.Schedule
	} else {
		ro.Schedule = Generate(seed, GenOptions{
			N: ro.Procs, Faults: o.Faults, Spacing: o.Spacing, Stalls: o.Stalls,
		})
	}
	var lastTrace *trace.Recorder
	fail := func(format string, args ...any) error {
		msg := fmt.Sprintf(format, args...)
		if o.FlightDir != "" && lastTrace != nil {
			path := filepath.Join(o.FlightDir, fmt.Sprintf("flight-seed%d-%s.jsonl", seed, tk))
			if err := lastTrace.WriteFile(path); err != nil {
				msg += fmt.Sprintf(" (flight dump failed: %v)", err)
			} else {
				msg += "\nflight trace: " + path
			}
		}
		return fmt.Errorf("chaos: seed %d transport %s: %s\nreproduce: %s",
			seed, tk, msg, o.repro(tk, seed))
	}
	res, err := RunSchedule(ro)
	if err != nil {
		return fail("%v", err)
	}
	lastTrace = res.Trace
	if o.TraceDir != "" {
		if err := res.Trace.WriteFile(filepath.Join(o.TraceDir, fmt.Sprintf("trace-seed%d-%s.jsonl", seed, tk))); err != nil {
			return fail("trace export: %v", err)
		}
	}
	if len(res.Problems) > 0 {
		return fail("trace violations: %v", res.Problems)
	}
	if err := sameStates(base, res.States); err != nil {
		return fail("final state diverged from fault-free baseline: %v", err)
	}
	if o.Replay {
		res2, err := RunSchedule(ro)
		if err != nil {
			return fail("replay: %v", err)
		}
		if a, b := strings.Join(res.Log, "\n"), strings.Join(res2.Log, "\n"); a != b {
			return fail("replay action log diverged:\nrun 1:\n%s\nrun 2:\n%s", a, b)
		}
		if err := sameStates(res.States, res2.States); err != nil {
			return fail("replay state diverged: %v", err)
		}
	}
	if o.Logf != nil {
		o.Logf("chaos: seed %d transport %s: ok (%d actions, %d ranks)",
			seed, tk, len(ro.Schedule.Actions), ro.Procs)
	}
	return nil
}

// repro renders the windar-chaos invocation that replays one cell.
func (o *SoakOptions) repro(tk transport.Kind, seed int64) string {
	cmd := fmt.Sprintf("go run ./cmd/windar-chaos -seeds %d -transports %s -procs %d -app %s -steps %d -protocol %s",
		seed, tk, o.Run.Procs, o.Run.App, o.Run.AppSteps, o.Run.Protocol)
	if o.Faults != 0 {
		cmd += fmt.Sprintf(" -faults %d", o.Faults)
	}
	if o.Stalls {
		cmd += " -stalls"
	}
	if o.Run.SpanTracing {
		cmd += " -tracing"
	}
	if o.Schedule != nil {
		cmd += fmt.Sprintf(" -schedule %q", strings.ReplaceAll(o.Schedule.String(), "\n", "; "))
	}
	return cmd
}

// sameStates compares two per-rank snapshot sets.
func sameStates(want, got [][]byte) error {
	if len(want) != len(got) {
		return fmt.Errorf("rank count %d vs %d", len(want), len(got))
	}
	for rank := range want {
		if !bytes.Equal(want[rank], got[rank]) {
			return fmt.Errorf("rank %d: %x vs %x", rank, want[rank], got[rank])
		}
	}
	return nil
}
