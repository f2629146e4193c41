// Command windar-bench regenerates the paper's evaluation figures:
//
//	windar-bench -fig 6          # piggyback amount per message, plus the
//	                             # delta-vs-full comparison -> BENCH_pig.json
//	windar-bench -fig 7          # dependency-tracking time
//	windar-bench -fig 8          # blocking vs non-blocking accomplishment time
//	windar-bench -fig pig        # only the delta-vs-full piggyback comparison
//	windar-bench -fig obs        # per-protocol histogram quantiles -> BENCH_obs.json
//	windar-bench -fig chaos      # fixed-seed fault-schedule soak -> BENCH_chaos.json
//	windar-bench -fig alloc      # hot-path allocs/op -> BENCH_alloc.json
//	windar-bench -fig throughput # delivery msgs/sec -> BENCH_throughput.json
//	windar-bench -fig wal        # disk-backend checkpoint stall + WAL replay -> BENCH_wal.json
//	windar-bench -fig all        # everything
//
// -fig alloc rewrites the committed baseline; with -alloc-check it
// instead compares the measurements against the baseline and exits
// non-zero on a regression (the CI allocation gate). -fig throughput
// works the same way: it rewrites BENCH_throughput.json, and with
// -throughput-check it compares a fresh run against the committed
// baseline with a tolerance band (the CI throughput gate).
//
// The sweep dimensions (benchmarks, process counts, problem size) mirror
// the paper's: LU/BT/SP at 4-32 processes. Expect the shapes, not the
// absolute values, to match the published figures.
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"os"
	"strconv"
	"strings"
	"time"

	"windar"
	"windar/internal/chaos"
	"windar/internal/experiments"
	"windar/internal/harness"
	"windar/internal/obs"
	"windar/internal/transport"
)

func main() {
	var (
		fig        = flag.String("fig", "all", "figure to regenerate: 6, 7, 8 or all")
		benchmarks = flag.String("benchmarks", "lu,bt,sp", "comma-separated benchmark list")
		procs      = flag.String("procs", "4,8,16,32", "comma-separated process counts")
		n          = flag.Int("n", 8, "global grid edge (N^3 domain)")
		iters      = flag.Int("iters", 6, "iterations for LU/BT (SP runs double)")
		seed       = flag.Int64("seed", 1, "network jitter seed")
		faultAfter = flag.Duration("fault-after", 10*time.Millisecond, "fig 8 / obs: failure injection delay")
		obsOut     = flag.String("obs-out", "BENCH_obs.json", "obs sweep: output path for the quantile report")
		chaosOut   = flag.String("chaos-out", "BENCH_chaos.json", "chaos soak: output path for the run report")
		pigOut     = flag.String("pig-out", "BENCH_pig.json", "fig 6 / pig: output path for the delta-vs-full piggyback comparison")
		allocOut   = flag.String("alloc-out", "BENCH_alloc.json", "alloc: baseline path (written, or compared with -alloc-check)")
		allocCheck = flag.Bool("alloc-check", false, "alloc: compare measurements against the committed baseline instead of rewriting it")
		tputOut    = flag.String("throughput-out", "BENCH_throughput.json", "throughput: baseline path (written, or compared with -throughput-check)")
		tputCheck  = flag.Bool("throughput-check", false, "throughput: compare a fresh run against the committed baseline instead of rewriting it")
		tputTol    = flag.Float64("throughput-tolerance", 0.5, "throughput: allowed fractional msgs/sec shortfall vs the baseline before the gate fails")
		walOut     = flag.String("wal-out", "BENCH_wal.json", "wal: baseline path (written, or compared with -wal-check)")
		walCheck   = flag.Bool("wal-check", false, "wal: compare a fresh run against the committed baseline instead of rewriting it")
		walTol     = flag.Float64("wal-tolerance", 4.0, "wal: allowed fractional checkpoint-stall p99 growth vs the baseline before the gate fails")
	)
	flag.Parse()

	procCounts, err := parseInts(*procs)
	if err != nil {
		fatal("bad -procs: %v", err)
	}
	opts := windar.ExperimentOptions{
		Benchmarks: strings.Split(*benchmarks, ","),
		ProcCounts: procCounts,
		N:          *n,
		Iterations: map[string]int{"lu": *iters, "bt": *iters, "sp": 2 * *iters},
		Seed:       *seed,
		FaultAfter: *faultAfter,
	}

	want := map[string]bool{}
	if *fig == "all" {
		want["6"], want["7"], want["8"], want["ckpt"], want["obs"], want["pig"], want["chaos"], want["alloc"], want["throughput"], want["wal"] = true, true, true, true, true, true, true, true, true, true
	} else {
		want[*fig] = true
	}
	if !want["6"] && !want["7"] && !want["8"] && !want["ckpt"] && !want["obs"] && !want["pig"] && !want["chaos"] && !want["alloc"] && !want["throughput"] && !want["wal"] {
		fatal("unknown -fig %q (want 6, 7, 8, pig, ckpt, obs, chaos, alloc, throughput, wal or all)", *fig)
	}

	if want["6"] || want["7"] {
		rows, err := windar.RunOverheadSweep(opts)
		if err != nil {
			fatal("overhead sweep: %v", err)
		}
		if want["6"] {
			fmt.Println(windar.Fig6Text(rows))
		}
		if want["7"] {
			fmt.Println(windar.Fig7Text(rows))
		}
	}
	if want["6"] || want["pig"] {
		row, err := windar.RunPiggybackCompare(opts)
		if err != nil {
			fatal("piggyback compare: %v", err)
		}
		fmt.Println(windar.PigText(row))
		data, err := json.MarshalIndent(row, "", "  ")
		if err != nil {
			fatal("piggyback compare: %v", err)
		}
		if err := os.WriteFile(*pigOut, append(data, '\n'), 0o644); err != nil {
			fatal("piggyback compare: %v", err)
		}
		fmt.Printf("piggyback comparison written: %s (%s procs=%d, %.1f -> %.1f B/msg, %.0f%% reduction)\n",
			*pigOut, row.Bench, row.Procs, row.FullBytes, row.DeltaBytes, 100*row.Reduction)
	}
	if want["8"] {
		rows, err := windar.RunFig8(opts)
		if err != nil {
			fatal("fig 8: %v", err)
		}
		fmt.Println(windar.Fig8Text(rows))
	}
	if want["ckpt"] {
		rows, err := windar.RunCheckpointSweep(opts, nil)
		if err != nil {
			fatal("checkpoint sweep: %v", err)
		}
		fmt.Println(windar.CkptText(rows))
	}
	if want["obs"] {
		if err := runObsSweep(opts, *iters, *faultAfter, *obsOut); err != nil {
			fatal("obs sweep: %v", err)
		}
	}
	if want["chaos"] {
		if err := runChaosSoak(*seed, *chaosOut); err != nil {
			fatal("chaos soak: %v", err)
		}
	}
	if want["alloc"] {
		if err := runAllocGate(*allocCheck, *allocOut); err != nil {
			fatal("alloc gate: %v", err)
		}
	}
	if want["throughput"] {
		if err := runThroughputGate(*tputCheck, *tputOut, *tputTol); err != nil {
			fatal("throughput gate: %v", err)
		}
	}
	if want["wal"] {
		if err := runWalGate(*walCheck, *walOut, *walTol); err != nil {
			fatal("wal gate: %v", err)
		}
	}
}

// runWalGate runs the durable-WAL bench (disk backend: checkpoint-stall
// distribution + cold WAL replay). Without check it rewrites the
// baseline at path; with check it loads the committed baseline and
// fails when the fresh checkpoint-stall p99 exceeds both the baseline
// p99 grown by the tolerance fraction and the group-commit interval —
// the signature of the regression class this gate exists for, a
// checkpoint that blocks delivery on durable I/O (which costs at least
// one fsync wait, not scheduler-jitter microseconds).
func runWalGate(check bool, path string, tolerance float64) error {
	rep, err := windar.RunWal(windar.WalOptions{})
	if err != nil {
		return err
	}
	fmt.Println(windar.WalText(rep))
	fmt.Printf("wal checkpoint stall p99: %v over %d checkpoints (group-commit interval %v)\n",
		time.Duration(rep.CkptStall.P99), rep.CkptStall.Count, time.Duration(rep.FsyncEveryNS))
	if !check {
		data, err := json.MarshalIndent(rep, "", "  ")
		if err != nil {
			return err
		}
		if err := os.WriteFile(path, append(data, '\n'), 0o644); err != nil {
			return err
		}
		fmt.Printf("wal baseline written: %s (stall p99 %v, replay %d keys in %v)\n",
			path, time.Duration(rep.CkptStall.P99), rep.ReplayKeys, time.Duration(rep.ReplayNS))
		return nil
	}
	data, err := os.ReadFile(path)
	if err != nil {
		return fmt.Errorf("baseline: %w", err)
	}
	var base windar.WalReport
	if err := json.Unmarshal(data, &base); err != nil {
		return fmt.Errorf("baseline %s: %w", path, err)
	}
	ceiling := int64(float64(base.CkptStall.P99) * (1 + tolerance))
	if ceiling < rep.FsyncEveryNS {
		ceiling = rep.FsyncEveryNS
	}
	if rep.CkptStall.P99 > ceiling {
		return fmt.Errorf("checkpoint stall p99 regressed: %v, ceiling %v (baseline %v + %.0f%% tolerance, floor one group-commit interval %v) — checkpointing may be blocking delivery on durable I/O",
			time.Duration(rep.CkptStall.P99), time.Duration(ceiling),
			time.Duration(base.CkptStall.P99), 100*tolerance, time.Duration(rep.FsyncEveryNS))
	}
	fmt.Printf("wal gate passed: stall p99 %v under ceiling %v, replay recovered %d keys\n",
		time.Duration(rep.CkptStall.P99), time.Duration(ceiling), rep.ReplayKeys)
	return nil
}

// throughputReport is the BENCH_throughput.json payload: the per-transport
// delivery rates plus the fixed unsharded reference the speedup is quoted
// against.
type throughputReport struct {
	// UnshardedBaseline is the mem-transport rate of the pre-sharding
	// delivery manager (experiments.UnshardedBaselineMsgsPerSec),
	// recorded so the speedup claim stays auditable next to the data.
	UnshardedBaseline float64 `json:"unsharded_baseline_msgs_per_sec"`
	// SpeedupVsUnsharded is the mem row's msgs/sec over UnshardedBaseline.
	SpeedupVsUnsharded float64                `json:"speedup_vs_unsharded"`
	Rows               []windar.ThroughputRow `json:"rows"`
}

// runThroughputGate measures flood-workload delivery throughput at the
// acceptance cell (n=16). Without check it rewrites the baseline at path;
// with check it loads the committed baseline and fails any transport
// whose fresh msgs/sec falls more than the tolerance fraction below the
// committed rate (throughput is machine-dependent, so the band is wide —
// it exists to catch the serialized-delivery regression class, which
// costs integer factors, not percents).
func runThroughputGate(check bool, path string, tolerance float64) error {
	rows, err := windar.RunThroughput(windar.ThroughputOptions{})
	if err != nil {
		return err
	}
	rep := throughputReport{
		UnshardedBaseline: experiments.UnshardedBaselineMsgsPerSec,
		Rows:              rows,
	}
	for _, r := range rows {
		if r.Transport == transport.Mem && rep.UnshardedBaseline > 0 {
			rep.SpeedupVsUnsharded = r.MsgsPerSec / rep.UnshardedBaseline
		}
	}
	fmt.Println(windar.ThroughputText(rows))
	fmt.Printf("throughput speedup vs unsharded delivery: %.2fx (mem, n=%d)\n",
		rep.SpeedupVsUnsharded, rows[0].Procs)
	if !check {
		data, err := json.MarshalIndent(rep, "", "  ")
		if err != nil {
			return err
		}
		if err := os.WriteFile(path, append(data, '\n'), 0o644); err != nil {
			return err
		}
		fmt.Printf("throughput baseline written: %s (%d transports)\n", path, len(rows))
		return nil
	}
	data, err := os.ReadFile(path)
	if err != nil {
		return fmt.Errorf("baseline: %w", err)
	}
	var base throughputReport
	if err := json.Unmarshal(data, &base); err != nil {
		return fmt.Errorf("baseline %s: %w", path, err)
	}
	committed := map[string]float64{}
	for _, r := range base.Rows {
		committed[r.Transport] = r.MsgsPerSec
	}
	var failures []string
	for _, r := range rows {
		want, ok := committed[r.Transport]
		if !ok {
			failures = append(failures, fmt.Sprintf("transport %s missing from baseline %s (re-run windar-bench -fig throughput to re-baseline)", r.Transport, path))
			continue
		}
		floor := want * (1 - tolerance)
		if r.MsgsPerSec < floor {
			failures = append(failures, fmt.Sprintf("transport %s regressed: %.0f msgs/sec, floor %.0f (baseline %.0f - %.0f%% tolerance)",
				r.Transport, r.MsgsPerSec, floor, want, 100*tolerance))
		}
	}
	if len(failures) > 0 {
		return fmt.Errorf("%d failure(s):\n  %s", len(failures), strings.Join(failures, "\n  "))
	}
	fmt.Printf("throughput gate passed: %d transports within %.0f%% of baseline %s\n",
		len(rows), 100*tolerance, path)
	return nil
}

// allocReport is the BENCH_alloc.json payload: steady-state heap
// allocations per operation for each //windar:hotpath probe.
type allocReport struct {
	AllocsPerOp map[string]float64 `json:"allocs_per_op"`
}

// allocTolerance absorbs AllocsPerRun jitter (a stray background
// allocation landing inside the measured window) while still failing on
// any real per-op regression, which costs at least 1.0.
const allocTolerance = 0.5

// runAllocGate measures the hot-path allocation probes. Without check it
// writes the baseline to path; with check it loads the committed
// baseline from path and fails on any probe measuring above baseline
// plus allocTolerance — or above its own absolute budget, for the
// fractional end-to-end probes (AllocProbe.Max) — or on a probe-set
// mismatch (a renamed or removed probe must be re-baselined
// deliberately).
func runAllocGate(check bool, path string) error {
	rep := allocReport{AllocsPerOp: map[string]float64{}}
	budget := map[string]float64{}
	for _, p := range harness.AllocProbes() {
		rep.AllocsPerOp[p.Name] = p.F()
		budget[p.Name] = p.Max
		fmt.Printf("alloc %-20s %.3f allocs/op\n", p.Name, rep.AllocsPerOp[p.Name])
	}
	if !check {
		data, err := json.MarshalIndent(rep, "", "  ")
		if err != nil {
			return err
		}
		if err := os.WriteFile(path, append(data, '\n'), 0o644); err != nil {
			return err
		}
		fmt.Printf("alloc baseline written: %s (%d probes)\n", path, len(rep.AllocsPerOp))
		return nil
	}
	data, err := os.ReadFile(path)
	if err != nil {
		return fmt.Errorf("baseline: %w", err)
	}
	var base allocReport
	if err := json.Unmarshal(data, &base); err != nil {
		return fmt.Errorf("baseline %s: %w", path, err)
	}
	var failures []string
	for name, got := range rep.AllocsPerOp {
		want, ok := base.AllocsPerOp[name]
		if !ok {
			failures = append(failures, fmt.Sprintf("probe %s missing from baseline %s (re-run windar-bench -fig alloc to re-baseline)", name, path))
			continue
		}
		if max := budget[name]; max > 0 {
			if got > max {
				failures = append(failures, fmt.Sprintf("probe %s over budget: %.3f allocs/op, budget %.3f (baseline %.3f)", name, got, max, want))
			}
		} else if got > want+allocTolerance {
			failures = append(failures, fmt.Sprintf("probe %s regressed: %.2f allocs/op, baseline %.2f", name, got, want))
		}
	}
	for name := range base.AllocsPerOp {
		if _, ok := rep.AllocsPerOp[name]; !ok {
			failures = append(failures, fmt.Sprintf("baseline probe %s no longer measured (re-run windar-bench -fig alloc to re-baseline)", name))
		}
	}
	if len(failures) > 0 {
		return fmt.Errorf("%d failure(s):\n  %s", len(failures), strings.Join(failures, "\n  "))
	}
	fmt.Printf("alloc gate passed: %d probes within %.1f of baseline %s\n", len(rep.AllocsPerOp), allocTolerance, path)
	return nil
}

// chaosReport is the BENCH_chaos.json payload: the fixed-seed soak
// matrix and one log line per (seed, transport) cell.
type chaosReport struct {
	Seeds      []int64  `json:"seeds"`
	Transports []string `json:"transports"`
	Procs      int      `json:"procs"`
	Protocol   string   `json:"protocol"`
	Faults     int      `json:"faults"`
	Replay     bool     `json:"replay"`
	Runs       []string `json:"runs"`
}

// runChaosSoak runs a small fixed-seed deterministic fault-schedule
// soak (with the byte-for-byte replay check) on both transports and
// writes the report.
func runChaosSoak(seed int64, path string) error {
	rep := chaosReport{
		Seeds:      []int64{seed, seed + 1, seed + 2},
		Transports: []string{transport.Mem, transport.TCP},
		Procs:      4,
		Protocol:   string(harness.TDI),
		Faults:     6,
		Replay:     true,
	}
	err := chaos.Soak(chaos.SoakOptions{
		Seeds:      rep.Seeds,
		Transports: rep.Transports,
		Run:        chaos.RunOptions{Procs: rep.Procs, Protocol: harness.TDI},
		Faults:     rep.Faults,
		Stalls:     true,
		Replay:     rep.Replay,
		Logf: func(format string, args ...any) {
			line := fmt.Sprintf(format, args...)
			rep.Runs = append(rep.Runs, line)
			fmt.Println(line)
		},
	})
	if err != nil {
		return err
	}
	data, err := json.MarshalIndent(rep, "", "  ")
	if err != nil {
		return err
	}
	if err := os.WriteFile(path, append(data, '\n'), 0o644); err != nil {
		return err
	}
	fmt.Printf("chaos soak report written: %s (%d runs, all clean)\n", path, len(rep.Runs))
	return nil
}

// obsRun is one protocol's latency-distribution measurement.
type obsRun struct {
	ElapsedNS int64                   `json:"elapsed_ns"`
	Hists     map[string]obs.HistStat `json:"hists"`
}

// obsReport is the BENCH_obs.json payload: per-protocol histogram
// quantiles from one failure-injected run, so the bench trajectory has
// machine-readable distribution data points, not just means.
type obsReport struct {
	App        string            `json:"app"`
	Procs      int               `json:"procs"`
	N          int               `json:"n"`
	Iterations int               `json:"iterations"`
	Protocols  map[string]obsRun `json:"protocols"`
}

// runObsSweep runs the first configured benchmark at the first process
// count under each protocol with an obs registry attached and a single
// injected failure, then writes the per-protocol quantile report.
func runObsSweep(opts windar.ExperimentOptions, iters int, faultAfter time.Duration, path string) error {
	appName := opts.Benchmarks[0]
	procs := opts.ProcCounts[0]
	report := obsReport{
		App: appName, Procs: procs, N: opts.N, Iterations: iters,
		Protocols: map[string]obsRun{},
	}
	clk := windar.RealClock()
	for _, p := range []windar.Protocol{windar.TDI, windar.TAG, windar.TEL} {
		factory, err := windar.NPBFactory(appName, opts.N, iters)
		if err != nil {
			factory, err = windar.WorkloadFactory(appName, iters)
		}
		if err != nil {
			return fmt.Errorf("unknown app %q", appName)
		}
		reg := windar.NewObsRegistry(procs)
		cfg := windar.Config{
			Procs: procs, Protocol: p, CheckpointEvery: 3,
			Seed: opts.Seed, Obs: reg, StallTimeout: 2 * time.Minute,
		}
		c, err := windar.NewCluster(cfg, factory)
		if err != nil {
			return err
		}
		start := clk.Now()
		if err := c.Start(); err != nil {
			c.Close()
			return err
		}
		clk.Sleep(faultAfter)
		if err := c.KillAndRecover(procs/2, time.Millisecond); err != nil {
			c.Close()
			return err
		}
		c.Wait()
		elapsed := clk.Now().Sub(start)
		hists := map[string]obs.HistStat{}
		for _, f := range reg.Snapshot() {
			hists[f.Name] = obs.StatOf(f.Total)
		}
		c.Close()
		report.Protocols[string(p)] = obsRun{ElapsedNS: int64(elapsed), Hists: hists}
	}
	data, err := json.MarshalIndent(report, "", "  ")
	if err != nil {
		return err
	}
	if err := os.WriteFile(path, append(data, '\n'), 0o644); err != nil {
		return err
	}
	fmt.Printf("obs quantiles written: %s (app=%s procs=%d, protocols tdi/tag/tel)\n", path, appName, procs)
	return nil
}

func parseInts(s string) ([]int, error) {
	var out []int
	for _, part := range strings.Split(s, ",") {
		v, err := strconv.Atoi(strings.TrimSpace(part))
		if err != nil {
			return nil, err
		}
		out = append(out, v)
	}
	return out, nil
}

func fatal(format string, args ...any) {
	fmt.Fprintf(os.Stderr, "windar-bench: "+format+"\n", args...)
	os.Exit(1)
}
