// Command windar-chaos is the deterministic fault-schedule soak runner:
// each seed expands into a legal kill/recover/stall/unstall schedule
// (or -schedule pins a handwritten one), which runs against a live
// cluster on every listed transport. Every run must finish with the
// fault-free application state and a trace that passes all invariants,
// including the rollback-RESPONSE pairing rule; with -replay each run
// executes twice and the action logs must match byte-for-byte. On
// failure the reproducing seed and command are printed and the exit
// code is non-zero. -app and -protocol take comma lists; every (app,
// protocol) pair runs the whole seed x transport matrix.
//
//	windar-chaos -seeds 1,2,3 -transports mem,tcp -replay
//	windar-chaos -seeds 1,2 -transports mem,tcp -protocol tdi,tag,tel -app ring,masterworker,lu
//	windar-chaos -seeds 7 -transports tcp -schedule 'kill 1 @2ms; recover 1 @8ms'
package main

import (
	"flag"
	"fmt"
	"os"
	"strconv"
	"strings"
	"time"

	"windar/internal/chaos"
	"windar/internal/harness"
)

func main() {
	var (
		seeds    = flag.String("seeds", "1,2,3,4,5", "comma-separated schedule seeds")
		tports   = flag.String("transports", "mem", "comma-separated substrates: mem, tcp")
		procs    = flag.Int("procs", 4, "number of processes")
		steps    = flag.Int("steps", 40, "workload steps")
		appName  = flag.String("app", "ring", "comma-separated workloads: ring, halo, masterworker, pairs, lu, bt, sp")
		proto    = flag.String("protocol", "tdi", "comma-separated protocols: tdi, tag, tel, none (unprotected: runs fault-free, without checkpoints)")
		ckpt     = flag.Int("ckpt-every", 3, "checkpoint interval in steps")
		faults   = flag.Int("faults", 8, "generated fault actions per schedule")
		spacing  = flag.Duration("spacing", 3*time.Millisecond, "mean gap between generated actions")
		stalls   = flag.Bool("stalls", false, "include transport stall/unstall actions")
		schedule = flag.String("schedule", "", "explicit schedule DSL (overrides generation; seeds still vary network jitter)")
		replay   = flag.Bool("replay", false, "run each cell twice and require byte-for-byte identical action logs")
		tracing  = flag.Bool("tracing", false, "stamp causal span contexts and check lineage DAG invariants")
		traceDir = flag.String("trace-dir", "", "export every cell's trace there as trace-seed<seed>-<transport>.jsonl")
		flight   = flag.String("flight-dir", "", "dump the failing run's trace there as a flight file")
		verbose  = flag.Bool("v", false, "print one line per run")

		restartBin   = flag.String("restart-bin", "", "run the process-level restart check instead of the soak: SIGKILL this windar-run binary mid-run over -stable disk and require the -resume re-exec to reach the fault-free state")
		restartAfter = flag.Duration("restart-kill-after", 300*time.Millisecond, "how long the restart victim runs before the SIGKILL")
		restartDir   = flag.String("restart-dir", "", "scratch directory for the restart check (default: a fresh temp dir)")
	)
	flag.Parse()

	if *restartBin != "" {
		// The soak's 40-step default would finish before any realistic
		// kill delay; unless -steps was given explicitly, let RunRestart
		// pick its long-run default.
		restartSteps := 0
		flag.Visit(func(f *flag.Flag) {
			if f.Name == "steps" {
				restartSteps = *steps
			}
		})
		dir := *restartDir
		if dir == "" {
			d, err := os.MkdirTemp("", "windar-restart-*")
			if err != nil {
				fmt.Fprintf(os.Stderr, "windar-chaos: %v\n", err)
				os.Exit(2)
			}
			defer os.RemoveAll(d)
			dir = d
		}
		err := chaos.RunRestart(chaos.RestartOptions{
			Bin:             *restartBin,
			Dir:             dir,
			App:             *appName,
			Procs:           *procs,
			Steps:           restartSteps,
			CheckpointEvery: *ckpt,
			Protocol:        *proto,
			KillAfter:       *restartAfter,
			Logf: func(format string, args ...any) {
				fmt.Printf(format+"\n", args...)
			},
		})
		if err != nil {
			fmt.Fprintf(os.Stderr, "windar-chaos: FAIL\n%v\n", err)
			os.Exit(1)
		}
		fmt.Println("windar-chaos: restart check clean")
		return
	}

	o := chaos.SoakOptions{
		Transports: splitList(*tports),
		Run: chaos.RunOptions{
			Procs:           *procs,
			AppSteps:        *steps,
			CheckpointEvery: *ckpt,
			SpanTracing:     *tracing,
		},
		Faults:    *faults,
		Spacing:   *spacing,
		Stalls:    *stalls,
		Replay:    *replay,
		TraceDir:  *traceDir,
		FlightDir: *flight,
	}
	for _, s := range splitList(*seeds) {
		v, err := strconv.ParseInt(s, 10, 64)
		if err != nil {
			fmt.Fprintf(os.Stderr, "windar-chaos: bad seed %q\n", s)
			os.Exit(2)
		}
		o.Seeds = append(o.Seeds, v)
	}
	if *schedule != "" {
		sched, err := chaos.Parse(*schedule)
		if err != nil {
			fmt.Fprintf(os.Stderr, "windar-chaos: %v\n", err)
			os.Exit(2)
		}
		if err := sched.Validate(*procs); err != nil {
			fmt.Fprintf(os.Stderr, "windar-chaos: %v\n", err)
			os.Exit(2)
		}
		o.Schedule = &sched
	}
	if *verbose {
		o.Logf = func(format string, args ...any) {
			fmt.Printf(format+"\n", args...)
		}
	}

	for _, app := range splitList(*appName) {
		for _, p := range splitList(*proto) {
			o := o
			o.Run.App, o.Run.Protocol = app, harness.ProtocolKind(p)
			if o.Run.Protocol == harness.None {
				o.Schedule, o.Run.CheckpointEvery = &chaos.Schedule{}, 0
			}
			fmt.Printf("windar-chaos: %d seeds x %d transports, app=%s protocol=%s procs=%d replay=%v\n",
				len(o.Seeds), len(o.Transports), app, p, *procs, *replay)
			if err := chaos.Soak(o); err != nil {
				fmt.Fprintf(os.Stderr, "windar-chaos: FAIL\n%v\n", err)
				os.Exit(1)
			}
		}
	}
	fmt.Println("windar-chaos: all runs clean")
}

// splitList splits a comma-separated flag, dropping empty entries.
func splitList(s string) []string {
	var out []string
	for _, f := range strings.Split(s, ",") {
		if f = strings.TrimSpace(f); f != "" {
			out = append(out, f)
		}
	}
	return out
}
