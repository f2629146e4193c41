// Package experiments reproduces the paper's evaluation (Section IV):
//
//   - Fig. 6 — average piggyback amount per message (in identifiers) for
//     the TDI, TAG and TEL protocols on LU, BT and SP at 4-32 processes;
//   - Fig. 7 — dependency-tracking time overhead for the same sweep;
//   - Fig. 8 — normalized accomplishment time of blocking vs
//     non-blocking communication under one injected fault (TDI).
//
// Absolute numbers differ from the paper's 2006-era Windows/MPICH
// testbed; the drivers exist to regenerate the *shape* of each figure:
// who wins, by what factor, and how the curves move with process count
// and message frequency.
package experiments

import (
	"fmt"
	"sort"
	"time"

	"windar/internal/app"
	"windar/internal/clock"
	"windar/internal/fabric"
	"windar/internal/harness"
	"windar/internal/metrics"
	"windar/internal/npb"
)

// Benchmarks is the paper's benchmark set.
var Benchmarks = []string{"lu", "bt", "sp"}

// Protocols is the paper's protocol set.
var Protocols = []harness.ProtocolKind{harness.TDI, harness.TAG, harness.TEL}

// Options configures an experiment sweep.
type Options struct {
	// Benchmarks to run; default lu, bt, sp.
	Benchmarks []string
	// ProcCounts to sweep; default 4, 8, 16, 32.
	ProcCounts []int
	// N is the global grid edge; default 8 (class-S scale).
	N int
	// Iterations per benchmark; SP conventionally runs twice BT's count.
	// Zero selects the defaults (lu 6, bt 6, sp 12).
	Iterations map[string]int
	// CheckpointEvery in steps; default 3.
	CheckpointEvery int
	// EventLoggerLatency for TEL; default 200µs.
	EventLoggerLatency time.Duration
	// Seed for the fabric jitter.
	Seed int64
	// FaultAfter is Fig. 8's failure-injection delay (the paper's 180 s
	// of effective computation, scaled); default 10ms.
	FaultAfter time.Duration
	// FaultRank is the rank Fig. 8 kills; default 1.
	FaultRank int
	// DetectDelay is the failure-detection latency before the
	// incarnation starts; default 1ms.
	DetectDelay time.Duration
	// Fig8Bandwidth is the link bandwidth for the blocking comparison.
	// The default, 50 MB/s, approximates the regime of the paper's
	// 100 Mb Ethernet relative to message sizes: a BT face occupies the
	// link long enough that a rendezvous send visibly stalls the
	// application thread. Default 50 MiB/s.
	Fig8Bandwidth int64
	// Repetitions for each Fig. 8 cell; the median duration is reported.
	// Default 3.
	Repetitions int
	// Clock drives run timing (duration measurement, fault-injection
	// delays) and is handed to every cluster; default the wall clock.
	Clock clock.Clock
}

func (o Options) withDefaults() Options {
	if len(o.Benchmarks) == 0 {
		o.Benchmarks = Benchmarks
	}
	if len(o.ProcCounts) == 0 {
		o.ProcCounts = []int{4, 8, 16, 32}
	}
	if o.N == 0 {
		o.N = 8
	}
	if o.Iterations == nil {
		o.Iterations = map[string]int{"lu": 6, "bt": 6, "sp": 12}
	}
	if o.CheckpointEvery == 0 {
		o.CheckpointEvery = 3
	}
	if o.EventLoggerLatency == 0 {
		// A fast stable event logger: TEL's unstable window stays below
		// TAG's full-graph piggyback, matching the paper's ordering
		// TDI < TEL < TAG even for LU's message rates.
		o.EventLoggerLatency = 8 * time.Microsecond
	}
	if o.FaultAfter == 0 {
		o.FaultAfter = 10 * time.Millisecond
	}
	if o.FaultRank == 0 {
		o.FaultRank = 1
	}
	if o.DetectDelay == 0 {
		o.DetectDelay = 4 * time.Millisecond
	}
	if o.Fig8Bandwidth == 0 {
		o.Fig8Bandwidth = 50 << 20
	}
	if o.Repetitions == 0 {
		o.Repetitions = 3
	}
	if o.Clock == nil {
		o.Clock = clock.Real{}
	}
	return o
}

func (o Options) params(bench string) npb.Params {
	iters := o.Iterations[bench]
	if iters == 0 {
		iters = 6
	}
	return npb.Params{N: o.N, Iterations: iters, NormEvery: 4}
}

func (o Options) clusterConfig(procs int, p harness.ProtocolKind, mode harness.Mode) harness.Config {
	return harness.Config{
		N:               procs,
		Protocol:        p,
		Mode:            mode,
		CheckpointEvery: o.CheckpointEvery,
		// The figure sweeps reproduce the published protocol, which
		// piggybacks the full depend_interval on every message (Fig. 6's
		// headline: exactly n identifiers). The differential piggyback is
		// measured separately by RunPiggybackCompare.
		FullVectors: true,
		Fabric: fabric.Config{
			BaseLatency:    20 * time.Microsecond,
			BytesPerSecond: 1 << 30, // ~1 GiB/s links: size matters, mildly
			JitterFraction: 0.5,
			Seed:           o.Seed,
		},
		EventLoggerLatency: o.EventLoggerLatency,
		StallTimeout:       60 * time.Second,
		Clock:              o.Clock,
	}
}

// runOnce executes one cluster to completion and returns the aggregated
// metrics and the wall-clock duration. chaos, if non-nil, runs after
// startup (failure injection).
func runOnce(clk clock.Clock, cfg harness.Config, factory app.Factory, chaos func(*harness.Cluster) error) (metrics.Snapshot, time.Duration, error) {
	c, err := harness.NewCluster(cfg, factory)
	if err != nil {
		return metrics.Snapshot{}, 0, err
	}
	defer c.Close()
	start := clk.Now()
	if err := c.Start(); err != nil {
		return metrics.Snapshot{}, 0, err
	}
	if chaos != nil {
		if err := chaos(c); err != nil {
			return metrics.Snapshot{}, 0, err
		}
	}
	c.Wait()
	dur := clk.Now().Sub(start)
	return c.Metrics().Total(), dur, nil
}

// OverheadRow is one cell of the Fig. 6 / Fig. 7 sweep.
type OverheadRow struct {
	Bench string
	Procs int
	Proto harness.ProtocolKind
	// AvgPiggybackIDs is Fig. 6's y-axis: identifiers per message.
	AvgPiggybackIDs float64
	// AvgPiggybackBytes is the byte-denominated companion.
	AvgPiggybackBytes float64
	// TrackingTime is Fig. 7's y-axis: total send+deliver tracking time.
	TrackingTime time.Duration
	// TrackingPerMsg is TrackingTime averaged over sent messages.
	TrackingPerMsg time.Duration
	// MsgsSent is the workload's application message count.
	MsgsSent int64
}

// RunOverheadSweep runs every (benchmark, procs, protocol) cell of the
// Fig. 6 / Fig. 7 sweep in failure-free non-blocking mode, exactly as the
// paper measures normal-execution logging overhead.
func RunOverheadSweep(o Options) ([]OverheadRow, error) {
	o = o.withDefaults()
	var rows []OverheadRow
	for _, bench := range o.Benchmarks {
		for _, procs := range o.ProcCounts {
			for _, p := range Protocols {
				factory, err := npb.Benchmark(bench, o.params(bench))
				if err != nil {
					return nil, err
				}
				tot, _, err := runOnce(o.Clock, o.clusterConfig(procs, p, harness.NonBlocking), factory, nil)
				if err != nil {
					return nil, fmt.Errorf("experiments: %s/%d/%s: %w", bench, procs, p, err)
				}
				row := OverheadRow{
					Bench: bench, Procs: procs, Proto: p,
					AvgPiggybackIDs:   tot.AvgPiggybackIDs(),
					AvgPiggybackBytes: tot.AvgPiggybackBytes(),
					TrackingTime:      tot.TrackingTime(),
					MsgsSent:          tot.MsgsSent,
				}
				if tot.MsgsSent > 0 {
					row.TrackingPerMsg = row.TrackingTime / time.Duration(tot.MsgsSent)
				}
				rows = append(rows, row)
			}
		}
	}
	return rows, nil
}

// Fig6Table renders the piggyback-amount rows as the paper's Fig. 6
// series (one column per protocol).
func Fig6Table(rows []OverheadRow) *metrics.Table {
	t := &metrics.Table{
		Title:  "Fig. 6 — average piggyback per message (identifiers)",
		Header: []string{"bench", "procs", "TDI", "TAG", "TEL", "TAG/TDI", "TEL/TDI"},
	}
	addProtocolTable(t, rows, func(r OverheadRow) float64 { return r.AvgPiggybackIDs })
	return t
}

// Fig7Table renders the tracking-time rows as the paper's Fig. 7 series.
func Fig7Table(rows []OverheadRow) *metrics.Table {
	t := &metrics.Table{
		Title:  "Fig. 7 — tracking time per message (µs)",
		Header: []string{"bench", "procs", "TDI", "TAG", "TEL", "TAG/TDI", "TEL/TDI"},
	}
	addProtocolTable(t, rows, func(r OverheadRow) float64 {
		return float64(r.TrackingPerMsg) / float64(time.Microsecond)
	})
	return t
}

func addProtocolTable(t *metrics.Table, rows []OverheadRow, metric func(OverheadRow) float64) {
	type key struct {
		bench string
		procs int
	}
	cells := map[key]map[harness.ProtocolKind]float64{}
	var order []key
	for _, r := range rows {
		k := key{r.Bench, r.Procs}
		if cells[k] == nil {
			cells[k] = map[harness.ProtocolKind]float64{}
			order = append(order, k)
		}
		cells[k][r.Proto] = metric(r)
	}
	for _, k := range order {
		c := cells[k]
		ratio := func(p harness.ProtocolKind) string {
			if c[harness.TDI] == 0 {
				return "-"
			}
			return metrics.F(c[p] / c[harness.TDI])
		}
		t.AddRow(k.bench, fmt.Sprint(k.procs),
			metrics.F(c[harness.TDI]), metrics.F(c[harness.TAG]), metrics.F(c[harness.TEL]),
			ratio(harness.TAG), ratio(harness.TEL))
	}
}

// PigRow compares TDI's differential piggyback against the paper's
// full-vector baseline on one TDI workload.
type PigRow struct {
	Bench string `json:"bench"`
	Procs int    `json:"procs"`
	// FullBytes and DeltaBytes are average piggyback bytes per message
	// under the full-vector baseline and the default differential
	// encoding respectively.
	FullBytes  float64 `json:"full_bytes_per_msg"`
	DeltaBytes float64 `json:"delta_bytes_per_msg"`
	// FullIDs and DeltaIDs are the identifier-denominated companions
	// (Fig. 6's unit).
	FullIDs  float64 `json:"full_ids_per_msg"`
	DeltaIDs float64 `json:"delta_ids_per_msg"`
	// DeltaMsgs and FullVectors count, in the delta run, how many sends
	// used the compact encoding (an empty one included) and how many the
	// full vector: the first send to each destination, and every send
	// where the full vector was the smaller encoding.
	DeltaMsgs   int64 `json:"delta_msgs"`
	FullVectors int64 `json:"full_vectors"`
	// Reduction is 1 - DeltaBytes/FullBytes: the fraction of piggyback
	// traffic the delta encoding removes.
	Reduction float64 `json:"reduction"`
	MsgsSent  int64   `json:"msgs_sent"`
}

// RunPiggybackCompare runs one TDI workload twice — once with the paper's
// full-vector piggyback and once with the default differential one — and
// reports the piggyback traffic both ways. The cell is
// the first configured benchmark at the process count closest to the
// paper's 16-process column.
func RunPiggybackCompare(o Options) (PigRow, error) {
	o = o.withDefaults()
	bench := o.Benchmarks[0]
	procs := o.ProcCounts[0]
	for _, p := range o.ProcCounts {
		if abs(p-16) < abs(procs-16) {
			procs = p
		}
	}
	row := PigRow{Bench: bench, Procs: procs}
	for _, full := range []bool{true, false} {
		factory, err := npb.Benchmark(bench, o.params(bench))
		if err != nil {
			return PigRow{}, err
		}
		cfg := o.clusterConfig(procs, harness.TDI, harness.NonBlocking)
		cfg.FullVectors = full
		tot, _, err := runOnce(o.Clock, cfg, factory, nil)
		if err != nil {
			return PigRow{}, fmt.Errorf("experiments: piggyback compare full=%v: %w", full, err)
		}
		if full {
			row.FullBytes = tot.AvgPiggybackBytes()
			row.FullIDs = tot.AvgPiggybackIDs()
			row.MsgsSent = tot.MsgsSent
		} else {
			row.DeltaBytes = tot.AvgPiggybackBytes()
			row.DeltaIDs = tot.AvgPiggybackIDs()
			row.DeltaMsgs = tot.PigDeltaMsgs
			row.FullVectors = tot.PigFullMsgs
		}
	}
	if row.FullBytes > 0 {
		row.Reduction = 1 - row.DeltaBytes/row.FullBytes
	}
	return row, nil
}

func abs(x int) int {
	if x < 0 {
		return -x
	}
	return x
}

// PigTable renders the delta-vs-full comparison.
func PigTable(r PigRow) *metrics.Table {
	t := &metrics.Table{
		Title:  "Piggyback bytes per message — full vector vs delta encoding",
		Header: []string{"bench", "procs", "full_B/msg", "delta_B/msg", "reduction"},
	}
	t.AddRow(r.Bench, fmt.Sprint(r.Procs),
		metrics.F(r.FullBytes), metrics.F(r.DeltaBytes), metrics.F(r.Reduction))
	return t
}

// Fig8Row is one cell of the blocking vs non-blocking comparison.
type Fig8Row struct {
	Bench string
	Procs int
	// Blocking / NonBlocking are total accomplishment times with one
	// injected fault and recovery.
	Blocking    time.Duration
	NonBlocking time.Duration
	// Normalized is NonBlocking/Blocking — the paper's Fig. 8 y-axis
	// (normalized accomplishment time, blocking = 1.0).
	Normalized float64
}

// RunFig8 measures the gain from eliminating computation blocking: for
// each benchmark and process count it runs TDI twice — blocking and
// non-blocking communication modes — injecting one failure (with
// recovery) at the same point, and compares total accomplishment time.
func RunFig8(o Options) ([]Fig8Row, error) {
	o = o.withDefaults()
	var rows []Fig8Row
	for _, bench := range o.Benchmarks {
		for _, procs := range o.ProcCounts {
			times := map[harness.Mode]time.Duration{}
			for _, mode := range []harness.Mode{harness.Blocking, harness.NonBlocking} {
				factory, err := npb.Benchmark(bench, o.params(bench))
				if err != nil {
					return nil, err
				}
				rank := o.FaultRank % procs
				cfg := o.clusterConfig(procs, harness.TDI, mode)
				cfg.Fabric.BytesPerSecond = o.Fig8Bandwidth
				var durs []time.Duration
				for rep := 0; rep < o.Repetitions; rep++ {
					_, dur, err := runOnce(o.Clock, cfg, factory,
						func(c *harness.Cluster) error {
							o.Clock.Sleep(o.FaultAfter)
							return c.KillAndRecover(rank, o.DetectDelay)
						})
					if err != nil {
						return nil, fmt.Errorf("experiments: fig8 %s/%d/%v: %w", bench, procs, mode, err)
					}
					durs = append(durs, dur)
				}
				times[mode] = median(durs)
			}
			row := Fig8Row{
				Bench: bench, Procs: procs,
				Blocking:    times[harness.Blocking],
				NonBlocking: times[harness.NonBlocking],
			}
			if times[harness.Blocking] > 0 {
				row.Normalized = float64(times[harness.NonBlocking]) / float64(times[harness.Blocking])
			}
			rows = append(rows, row)
		}
	}
	return rows, nil
}

// median returns the middle duration (of a copy; input order preserved).
func median(ds []time.Duration) time.Duration {
	s := append([]time.Duration(nil), ds...)
	sort.Slice(s, func(i, j int) bool { return s[i] < s[j] })
	return s[len(s)/2]
}

// Fig8Table renders the Fig. 8 rows.
func Fig8Table(rows []Fig8Row) *metrics.Table {
	t := &metrics.Table{
		Title:  "Fig. 8 — normalized accomplishment time (blocking = 1.0)",
		Header: []string{"bench", "procs", "blocking_ms", "non-blocking_ms", "normalized"},
	}
	for _, r := range rows {
		t.AddRow(r.Bench, fmt.Sprint(r.Procs),
			metrics.F(float64(r.Blocking)/float64(time.Millisecond)),
			metrics.F(float64(r.NonBlocking)/float64(time.Millisecond)),
			metrics.F(r.Normalized))
	}
	return t
}
