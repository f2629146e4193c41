package main

import (
	"fmt"
	"os"
	"runtime"
	"syscall"
	"time"

	"windar/internal/fabric"
	"windar/internal/harness"
	"windar/internal/metrics"
	"windar/internal/obs"
	"windar/internal/stable"
	"windar/layer"
)

// stallTimeout bounds a wedged run: a rank blocked in Recv this long
// panics with a state dump instead of hanging the pipeline.
const stallTimeout = 60 * time.Second

// options are the per-invocation settings every run of a workload shares.
type options struct {
	Seed int64
	// OutDir holds WAL directories (removed after each run) and span
	// files. It is inside the checkout so the benchmark writes nowhere
	// else.
	OutDir string
	// Golden overrides the committed LU references (tests corrupt it).
	Golden map[string]golden
}

// rig is one constructed, not yet started cluster with its fixtures and
// whatever measures it from outside.
type rig struct {
	spec    spec
	opts    options
	cluster *harness.Cluster
	walDir  string
	disk    *stable.Disk
	reg     *obs.Registry
	rec     *recoveryDriver
	tr      *tracer
	seg     *segmenter
}

// segmenter cuts the timed section into equal-work segments from outside
// the harness: it is the cluster's checkpoint policy, which every rank's
// application loop consults at each step boundary, and it notes wall and
// CPU time whenever the marker rank crosses a multiple of size steps.
//
// The segments exist because the reference box has a fast and a slow
// mode lasting seconds to tens of seconds each (the host, not the
// program). Interference can only slow a segment down, so the fastest
// decile of segment times estimates the undisturbed cost; it repeats up
// to twice as well as the whole-run figure (bench/README.md).
type segmenter struct {
	every  layer.EveryKSteps
	marker int
	size   int
	next   int
	// marks is appended to by the marker rank's application goroutine
	// only, and read after Cluster.Wait.
	marks []mark
}

type mark struct {
	at  time.Time
	cpu time.Duration
}

func (s *segmenter) ShouldCheckpoint(rank, step int) bool {
	// A recovering rank replays steps below next; only the first crossing
	// of each boundary counts.
	if rank == s.marker && step >= s.next {
		s.marks = append(s.marks, mark{time.Now(), processCPU()}) //windar:allow directclock — segment ends are true wall-clock instants
		s.next += s.size
	}
	return s.every.ShouldCheckpoint(rank, step)
}

// fastDecile returns the 10th-percentile wall and CPU time of a segment.
func (s *segmenter) fastDecile() (wall, cpu time.Duration, all []time.Duration) {
	var walls, cpus []float64
	for i := 1; i < len(s.marks); i++ {
		d := s.marks[i].at.Sub(s.marks[i-1].at)
		all = append(all, d)
		walls = append(walls, float64(d))
		cpus = append(cpus, float64(s.marks[i].cpu-s.marks[i-1].cpu))
	}
	return time.Duration(quantile(walls, 0.1)), time.Duration(quantile(cpus, 0.1)), all
}

// newRig builds s's fixtures and cluster. With traced set, the bench-side
// decorators (app wrapper, interceptor, stable decorator, observer, obs
// registry) are attached; otherwise the cluster carries only what the
// workload's own configuration names.
func newRig(s spec, o options, traced bool) (_ *rig, err error) {
	g := &rig{spec: s, opts: o}
	defer func() {
		if err != nil {
			g.discard()
		}
	}()
	factory, err := s.factory(o.Seed)
	if err != nil {
		return nil, err
	}
	victim := int(uint64(o.Seed) % ranks)
	// The marker rank is never the victim, so its steps are never replayed.
	g.seg = &segmenter{
		every: layer.EveryKSteps(s.CkptEvery), marker: (victim + 2) % ranks,
		size: s.SegmentSteps, next: s.SegmentSteps,
	}
	cfg := harness.Config{
		N:                ranks,
		Protocol:         harness.TDI,
		CheckpointPolicy: g.seg,
		Transport:        s.Transport,
		Fabric:           fabric.Config{Seed: o.Seed},
		StallTimeout:     stallTimeout,
	}
	var backend stable.Backend
	if s.Deployed {
		if err := os.MkdirAll(o.OutDir, 0o755); err != nil {
			return nil, err
		}
		if g.walDir, err = os.MkdirTemp(o.OutDir, "wal-*"); err != nil {
			return nil, err
		}
		g.disk, err = stable.OpenDisk(stable.DiskOptions{Dir: g.walDir, FsyncInterval: 2 * time.Millisecond})
		if err != nil {
			return nil, err
		}
		backend = g.disk
		cfg.DurableLogs = true
		cfg.SpanTracing = true
		g.reg = obs.NewRegistry(ranks)
	}
	if s.Cycles > 0 || traced {
		g.rec = newRecoveryDriver(s, victim)
		cfg.Observer = g.rec
	}
	if traced {
		if g.reg == nil {
			g.reg = obs.NewRegistry(ranks)
		}
		if backend == nil {
			backend = stable.NewSim()
		}
		g.tr = newTracer(s, backend)
		backend = g.tr.store
		factory = g.tr.wrapFactory(factory)
		cfg.Interceptors = append(cfg.Interceptors, g.tr)
	}
	cfg.Stable = backend
	cfg.Obs = g.reg
	g.cluster, err = harness.NewCluster(cfg, factory)
	if err != nil {
		return nil, err
	}
	if g.rec != nil {
		g.rec.cluster = g.cluster
	}
	return g, nil
}

// discard releases a rig's cluster and fixtures; safe on a partly built
// or already discarded rig.
func (g *rig) discard() {
	if g.cluster != nil {
		g.cluster.Close() // also closes the stable backend it owns
		g.cluster = nil
	} else if g.disk != nil {
		g.disk.Close()
	}
	g.disk = nil
	if g.walDir != "" {
		os.RemoveAll(g.walDir)
		g.walDir = ""
	}
}

// measurement is what one started-to-closed cluster run yields.
type measurement struct {
	Wall    time.Duration
	CPU     time.Duration
	Mallocs uint64
	// Msgs is the closed-form count of application messages the workload
	// had to deliver; Total is what the cluster's counters saw (on a
	// recovery run that includes replayed deliveries).
	Msgs   int64
	Total  metrics.Snapshot
	Cycles []cycle
	// SegmentWall and SegmentCPU are the fastest-decile wall and process
	// CPU time of the equal-work segments, SegmentMsgs messages each, the
	// section was cut into; SegmentWalls are all their wall times.
	SegmentWall, SegmentCPU time.Duration
	SegmentMsgs             float64
	SegmentWalls            []time.Duration
	// Failed counts messages not delivered, every delivery of a rank
	// whose final snapshot differs from the reference, and kill/recover
	// cycles not completed.
	Failed int64
	// Why lists what Failed counted, for the operator.
	Why []string
}

// attempted is the denominator of the failed-operations share.
func (m measurement) attempted() int64 { return m.Msgs + int64(len(m.Cycles)) }

// run executes the rig's single timed section — Start, Wait, Close — then
// checks the outputs against the reference. The rig is spent afterwards.
func (g *rig) run() (measurement, error) {
	defer g.discard()
	m := measurement{Msgs: g.spec.expectedMsgs(ranks)}

	var before, after runtime.MemStats
	runtime.GC()
	runtime.ReadMemStats(&before)
	cpu0 := processCPU()
	start := time.Now() //windar:allow directclock — the timed section is a true wall-clock measurement
	if g.tr != nil {
		g.tr.begin(g.cluster)
	}
	if err := g.cluster.Start(); err != nil {
		return m, err
	}
	stopCycles := g.rec.drive()
	g.cluster.Wait()
	m.Cycles = stopCycles()
	m.SegmentWall, m.SegmentCPU, m.SegmentWalls = g.seg.fastDecile()
	m.SegmentMsgs = float64(m.Msgs) * float64(g.spec.SegmentSteps) / float64(g.spec.Steps)
	m.Total = g.cluster.Metrics().Total()
	perRank := g.cluster.Metrics().PerRank()
	health := g.cluster.Health()
	snaps := make([][]byte, ranks)
	for r := range snaps {
		snaps[r] = g.cluster.AppSnapshot(r)
	}
	if g.tr != nil {
		g.tr.end(g) // reads backend counters that Close invalidates
	}
	g.cluster.Close()
	m.Wall = time.Since(start) //windar:allow directclock — true wall-clock measurement
	m.CPU = processCPU() - cpu0
	runtime.ReadMemStats(&after)
	m.Mallocs = after.Mallocs - before.Mallocs
	if len(m.SegmentWalls) == 0 {
		// Too short to cut (toy sizes): the whole section is the segment.
		m.SegmentWall, m.SegmentCPU, m.SegmentMsgs = m.Wall, m.CPU, float64(m.Msgs)
	}
	g.cluster = nil // closed; discard only removes the fixtures

	if !health.Finished {
		m.Failed = m.attempted()
		m.Why = append(m.Why, "cluster did not finish")
		return m, nil
	}
	if missing := m.Msgs - m.Total.MsgsDelivered; missing > 0 {
		m.Failed += missing
		m.Why = append(m.Why, fmt.Sprintf("%d messages not delivered", missing))
	}
	want, err := g.reference()
	if err != nil {
		return m, err
	}
	for r, snap := range snaps {
		if digest(snap) != want[r] {
			m.Failed += perRank[r].MsgsDelivered
			m.Why = append(m.Why, fmt.Sprintf("rank %d final snapshot differs from the reference", r))
		}
	}
	for _, c := range m.Cycles {
		if !c.Completed {
			m.Failed++
			m.Why = append(m.Why, "kill/recover cycle not complete within its deadline")
		}
	}
	if m.Failed > m.attempted() {
		m.Failed = m.attempted()
	}
	return m, nil
}

// reference returns the expected digest of every rank's final snapshot:
// recomputed arithmetically for the flood, read from golden.json for LU.
func (g *rig) reference() ([]string, error) {
	if !g.spec.LU {
		ref := floodReference(ranks, g.spec.Steps, g.opts.Seed)
		out := make([]string, len(ref))
		for r, b := range ref {
			out[r] = digest(b)
		}
		return out, nil
	}
	gold, err := luGolden(g.opts.Golden, ranks, g.spec.Steps)
	if err != nil {
		return nil, err
	}
	return gold.Digests, nil
}

// processCPU is the process's user+system CPU time so far.
func processCPU() time.Duration {
	var ru syscall.Rusage
	if err := syscall.Getrusage(syscall.RUSAGE_SELF, &ru); err != nil {
		return 0
	}
	return time.Duration(ru.Utime.Nano() + ru.Stime.Nano())
}

// warmUp runs warmupShare of s in its own cluster and discards the
// numbers: it fills the envelope and buffer pools, grows the heap and
// warms the page cache, so the timed section starts from steady state.
func warmUp(s spec, o options) error {
	g, err := newRig(s, o, false)
	if err != nil {
		return err
	}
	m, err := g.run()
	if err != nil {
		return err
	}
	if m.Failed > 0 {
		return fmt.Errorf("warm-up of %s failed: %v", s.Name, m.Why)
	}
	return nil
}
