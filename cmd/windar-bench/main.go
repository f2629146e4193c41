// Command windar-bench regenerates the paper's evaluation figures:
//
//	windar-bench -fig 6          # piggyback amount per message, plus the
//	                             # delta-vs-full comparison -> BENCH_pig.json
//	windar-bench -fig 7          # dependency-tracking time
//	windar-bench -fig 8          # blocking vs non-blocking accomplishment time
//	windar-bench -fig pig        # only the delta-vs-full piggyback comparison
//	windar-bench -fig ckpt       # checkpoint-interval tradeoff
//	windar-bench -fig alloc      # hot-path allocs/op -> BENCH_alloc.json
//	windar-bench -fig all        # everything
//
// -fig alloc rewrites the committed baseline; with -alloc-check it
// instead compares the measurements against the baseline and exits
// non-zero on a regression (the CI allocation gate). Throughput, WAL and
// checkpoint-stall timings are the repository benchmark's (go run ./bench).
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

	"windar/internal/experiments"
	"windar/internal/harness"
)

func main() {
	var (
		fig        = flag.String("fig", "all", "figure to regenerate: 6, 7, 8, pig, ckpt, alloc or all")
		benchmarks = flag.String("benchmarks", "lu,bt,sp", "comma-separated benchmark list")
		procs      = flag.String("procs", "4,8,16,32", "comma-separated process counts")
		n          = flag.Int("n", 8, "global grid edge (N^3 domain)")
		iters      = flag.Int("iters", 6, "iterations for LU/BT (SP runs double)")
		seed       = flag.Int64("seed", 1, "network jitter seed")
		faultAfter = flag.Duration("fault-after", 10*time.Millisecond, "fig 8: failure injection delay")
		pigOut     = flag.String("pig-out", "BENCH_pig.json", "fig 6 / pig: output path for the delta-vs-full piggyback comparison")
		allocOut   = flag.String("alloc-out", "BENCH_alloc.json", "alloc: baseline path (written, or compared with -alloc-check)")
		allocCheck = flag.Bool("alloc-check", false, "alloc: compare measurements against the committed baseline instead of rewriting it")
	)
	flag.Parse()

	procCounts, err := parseInts(*procs)
	if err != nil {
		fatal("bad -procs: %v", err)
	}
	opts := experiments.Options{
		Benchmarks: strings.Split(*benchmarks, ","),
		ProcCounts: procCounts,
		N:          *n,
		Iterations: map[string]int{"lu": *iters, "bt": *iters, "sp": 2 * *iters},
		Seed:       *seed,
		FaultAfter: *faultAfter,
	}

	want := map[string]bool{}
	if *fig == "all" {
		want["6"], want["7"], want["8"], want["ckpt"], want["pig"], want["alloc"] = true, true, true, true, true, true
	} else {
		want[*fig] = true
	}
	if !want["6"] && !want["7"] && !want["8"] && !want["ckpt"] && !want["pig"] && !want["alloc"] {
		fatal("unknown -fig %q (want 6, 7, 8, pig, ckpt, alloc or all)", *fig)
	}

	if want["6"] || want["7"] {
		rows, err := experiments.RunOverheadSweep(opts)
		if err != nil {
			fatal("overhead sweep: %v", err)
		}
		if want["6"] {
			fmt.Println(experiments.Fig6Table(rows))
		}
		if want["7"] {
			fmt.Println(experiments.Fig7Table(rows))
		}
	}
	if want["6"] || want["pig"] {
		row, err := experiments.RunPiggybackCompare(opts)
		if err != nil {
			fatal("piggyback compare: %v", err)
		}
		fmt.Println(experiments.PigTable(row))
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
		rows, err := experiments.RunFig8(opts)
		if err != nil {
			fatal("fig 8: %v", err)
		}
		fmt.Println(experiments.Fig8Table(rows))
	}
	if want["ckpt"] {
		rows, err := experiments.RunCheckpointSweep(opts, nil)
		if err != nil {
			fatal("checkpoint sweep: %v", err)
		}
		fmt.Println(experiments.CkptTable(rows))
	}
	if want["alloc"] {
		if err := runAllocGate(*allocCheck, *allocOut); err != nil {
			fatal("alloc gate: %v", err)
		}
	}
}

// allocReport is the BENCH_alloc.json payload: steady-state heap
// allocations per operation for each hot-path probe.
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
