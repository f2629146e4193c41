// Command bench is the repository benchmark: four ~10 s workloads at
// n=4 ranks, the end-to-end metrics a user of the system sees, and an
// outside-in attribution of their cost to the layers a message crosses.
// See README.md in this directory and BENCHMARK.json at the repo root.
//
//	go run ./bench                       all four workloads, one JSON document
//	go run ./bench -workload flood_tcp   one workload; the last line is the driver's result object
//	go run ./bench -trace 1              layer probes + quarter-size traced runs: the per-layer metrics
//	go run ./bench -selfcheck -runs 10   two interleaved sets in fresh processes, medians and spreads vs bounds
//	go run ./bench -write-golden         regenerate golden.json from bare mem LU runs
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"io"
	"math"
	"os"
	"path/filepath"
	"runtime"
	"strings"
	"time"
)

// processStart anchors setup_s; it is read before anything else runs.
var processStart = time.Now() //windar:allow directclock — set-up time is a true wall-clock measurement

// setupRepeats is how many times a run sets up (fixtures, warm-up run,
// cluster construction); setup_s is the median, the last one is timed.
const setupRepeats = 3

// probeScale 1 makes each layer probe last about half a second.
const probeScale = 1.0

func main() {
	var (
		workloadFlag = flag.String("workload", "", "comma-separated workloads to run (default: all four)")
		seed         = flag.Int64("seed", 1, "seeds the fabric, the flood's payloads and the victim rank")
		seconds      = flag.Float64("seconds", calibratedSeconds, "target length of each timed section; scales the frozen step counts linearly")
		trace        = flag.Int("trace", 0, "1: run the layer probes and quarter-size traced runs and report the per-layer metrics")
		selfcheck    = flag.Bool("selfcheck", false, "run two complete sets in fresh processes and compare their medians against the bounds")
		runs         = flag.Int("runs", 3, "runs per workload and set under -selfcheck")
		writeGolden  = flag.Bool("write-golden", false, "rewrite golden.json from bare mem LU runs and exit")
		outDir       = flag.String("out", filepath.Join("bench", "out"), "directory for WAL fixtures (removed after use) and span files")
	)
	flag.Parse()
	if flag.NArg() > 0 || *seconds <= 0 || (*trace != 0 && *trace != 1) {
		flag.Usage()
		os.Exit(2)
	}
	runtime.GOMAXPROCS(min(runtime.NumCPU(), ranks))

	scale := *seconds / calibratedSeconds
	selected, err := selectWorkloads(specs(scale), *workloadFlag)
	if err != nil {
		fatal(err)
	}
	opts := options{Seed: *seed, OutDir: *outDir}
	switch {
	case *writeGolden:
		err = writeGoldenFile(scale)
	case *selfcheck:
		err = selfCheck(selected, opts, *seconds, *runs)
	default:
		err = report(os.Stdout, selected, opts, scale, *seconds, *trace == 1)
	}
	if err != nil {
		fatal(err)
	}
}

func fatal(err error) {
	fmt.Fprintln(os.Stderr, "bench:", err)
	os.Exit(1)
}

func selectWorkloads(all []spec, names string) ([]spec, error) {
	if names == "" {
		return all, nil
	}
	var out []spec
	for _, name := range strings.Split(names, ",") {
		found := false
		for _, s := range all {
			if s.Name == name {
				out, found = append(out, s), true
			}
		}
		if !found {
			return nil, fmt.Errorf("unknown workload %q", name)
		}
	}
	return out, nil
}

// verdict is the object the driver reads off the last line of output.
type verdict struct {
	Correct   bool              `json:"correct"`
	Attempted int64             `json:"attempted"`
	Failed    int64             `json:"failed"`
	Metrics   map[string]metric `json:"metrics"`
}

// result is one workload's entry in the document.
type result struct {
	verdict
	Workload string   `json:"workload,omitempty"`
	Why      []string `json:"failures,omitempty"`
	// Samples says how many observations stand behind the figures.
	Samples map[string]int64 `json:"samples,omitempty"`
	// TimedSection is the wall time of the Start-Wait-Close section, and
	// WholeRun the plain totals over it — ungated, beside the fast-decile
	// figures in Metrics.
	TimedSection float64            `json:"timed_section_s"`
	WholeRun     map[string]float64 `json:"whole_run"`
	// SegmentMS are the wall times of the equal-work segments, in order.
	SegmentMS []float64 `json:"segment_ms"`
	Sizes     spec      `json:"sizes"`
	Spans     string    `json:"span_file,omitempty"`
}

// document is what one invocation prints.
type document struct {
	GOMAXPROCS int      `json:"gomaxprocs"`
	NProc      int      `json:"nproc"`
	Seed       int64    `json:"seed"`
	Seconds    float64  `json:"seconds"`
	Traced     bool     `json:"traced"`
	Workloads  []result `json:"workloads"`
}

// report runs the selected workloads and prints the document. When
// exactly one workload was selected the last line is additionally the
// bare result object, as the driver's contract asks. An incorrect run
// exits non-zero after printing.
func report(w io.Writer, selected []spec, o options, scale, seconds float64, traced bool) error {
	if err := sweepStaleFixtures(o.OutDir); err != nil {
		return err
	}
	doc := document{
		GOMAXPROCS: runtime.GOMAXPROCS(0), NProc: runtime.NumCPU(),
		Seed: o.Seed, Seconds: seconds, Traced: traced,
	}
	var probes map[string]float64
	if traced {
		var err error
		if probes, err = runProbes(probeScale, o.OutDir); err != nil {
			return err
		}
	}
	correct := true
	for _, s := range selected {
		var (
			r   result
			err error
		)
		if traced {
			r, err = tracedResult(s, o, scale, probes)
		} else {
			r, err = timedResult(s, o, scale)
		}
		if err != nil {
			return fmt.Errorf("%s: %w", s.Name, err)
		}
		correct = correct && r.Correct
		doc.Workloads = append(doc.Workloads, r)
	}
	pretty, err := json.MarshalIndent(doc, "", "  ")
	if err != nil {
		return err
	}
	fmt.Fprintln(w, string(pretty))
	if len(doc.Workloads) == 1 {
		v := doc.Workloads[0].verdict
		v.Metrics = driverMetrics(v.Metrics, traced)
		line, err := json.Marshal(v)
		if err != nil {
			return err
		}
		fmt.Fprintln(w, string(line))
	}
	if !correct {
		return fmt.Errorf("outputs differ from the reference")
	}
	return nil
}

// driverMetrics keeps exactly the metrics BENCHMARK.json declares for
// the mode: every per-layer one when traced, else the end-to-end ones
// defined on every workload.
func driverMetrics(all map[string]metric, traced bool) map[string]metric {
	defs := endToEnd[:driverEndToEnd]
	if traced {
		defs = perLayer
	}
	out := make(map[string]metric, len(defs))
	for _, d := range defs {
		out[d.Name] = all[d.Name]
	}
	return out
}

// sweepStaleFixtures removes WAL directories a crashed predecessor left
// in dir (a rank that panics on the stall timeout skips every defer).
func sweepStaleFixtures(dir string) error {
	stale, err := filepath.Glob(filepath.Join(dir, "wal-*"))
	if err != nil {
		return err
	}
	for _, d := range stale {
		if err := os.RemoveAll(d); err != nil {
			return err
		}
	}
	return nil
}

func median(ds []time.Duration) time.Duration {
	v := make([]float64, len(ds))
	for i, d := range ds {
		v[i] = float64(d)
	}
	return time.Duration(quantile(v, 0.5))
}

// timedResult sets s up setupRepeats times — each time the fixtures, a
// discarded warm-up run in its own cluster and the construction of the
// timed cluster — then runs the last cluster's timed section.
func timedResult(s spec, o options, scale float64) (result, error) {
	warm := specAt(s.Name, scale*warmupShare)
	var (
		setups []time.Duration
		g      *rig
	)
	for i := 0; i < setupRepeats; i++ {
		start := time.Now() //windar:allow directclock — set-up time is a true wall-clock measurement
		if i == 0 {
			start = processStart // the first set-up includes process start
		}
		if err := warmUp(warm, o); err != nil {
			return result{}, err
		}
		var err error
		if g, err = newRig(s, o, false); err != nil {
			return result{}, err
		}
		setups = append(setups, time.Since(start)) //windar:allow directclock — true wall-clock measurement
		if i < setupRepeats-1 {
			g.discard()
		}
	}
	m, err := g.run()
	if err != nil {
		return result{}, err
	}
	r := newResult(s, m, endToEnd, endToEndMetrics(m, median(setups)), false)
	r.Samples["setups"] = setupRepeats
	return r, nil
}

// specAt is the named workload at the given scale.
func specAt(name string, scale float64) spec {
	for _, s := range specs(scale) {
		if s.Name == name {
			return s
		}
	}
	panic("bench: unknown workload " + name)
}

// tracedResult runs s at tracedShare of its size twice, each after its
// own warm-up: once as configured and once with the bench-side decorators
// attached. The pair gives the tracing overhead; the traced run and the
// probes give the per-layer metrics.
func tracedResult(s spec, o options, scale float64, probes map[string]float64) (result, error) {
	quarter := specAt(s.Name, scale*tracedShare)
	warm := specAt(s.Name, scale*tracedShare*warmupShare)
	run := func(traced bool) (*rig, measurement, error) {
		if err := warmUp(warm, o); err != nil {
			return nil, measurement{}, err
		}
		g, err := newRig(quarter, o, traced)
		if err != nil {
			return nil, measurement{}, err
		}
		m, err := g.run()
		return g, m, err
	}
	_, plain, err := run(false)
	if err != nil {
		return result{}, err
	}
	g, m, err := run(true)
	if err != nil {
		return result{}, err
	}
	values := tracedMetrics(g, m)
	for name, v := range probes {
		values[name] = v
	}
	rate := func(m measurement) float64 { return float64(m.Msgs) / m.Wall.Seconds() }
	values["trace.overhead_pct"] = 100 * (rate(plain) - rate(m)) / rate(plain)
	values["harness.unattributed_ns_per_msg"] = float64(plain.CPU)/float64(plain.Msgs) - attributed(quarter, probes)

	// Both runs are checked; either failing fails the workload.
	m.Failed += plain.Failed
	m.Why = append(m.Why, plain.Why...)
	r := newResult(quarter, m, perLayer, values, true)
	if r.Spans, err = g.tr.writeSpans(o.OutDir, g.rec); err != nil {
		return result{}, err
	}
	return r, nil
}

// newResult reports the metrics defs names out of values. With zeroFill a
// metric values lacks reads 0 (per-layer metrics are all reported on
// every workload, exercised or not); otherwise it is left out.
func newResult(s spec, m measurement, defs []metricDef, values map[string]float64, zeroFill bool) result {
	r := result{
		verdict: verdict{
			Correct: m.Failed == 0, Attempted: m.attempted(), Failed: m.Failed,
			Metrics: make(map[string]metric, len(defs)),
		},
		Workload: s.Name, Why: m.Why, Sizes: s, TimedSection: m.Wall.Seconds(),
		Samples: map[string]int64{"msgs": m.Msgs, "cycles": int64(len(m.Cycles)), "segments": int64(len(m.SegmentWalls))},
		WholeRun: map[string]float64{
			"msgs_per_s":     float64(m.Msgs) / m.Wall.Seconds(),
			"cpu_us_per_msg": float64(m.CPU) / 1e3 / float64(m.Msgs),
		},
	}
	for _, d := range m.SegmentWalls {
		r.SegmentMS = append(r.SegmentMS, float64(d)/1e6)
	}
	for _, d := range defs {
		if v, ok := values[d.Name]; ok && !math.IsNaN(v) && !math.IsInf(v, 0) {
			r.Metrics[d.Name] = metric{Value: v, Unit: d.Unit}
		} else if zeroFill {
			r.Metrics[d.Name] = metric{Unit: d.Unit}
		}
	}
	return r
}
