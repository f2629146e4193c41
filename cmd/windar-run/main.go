// Command windar-run executes one workload under a chosen logging
// protocol, optionally injecting failures, and reports the overhead
// counters:
//
//	windar-run -app lu -procs 8 -protocol tdi
//	windar-run -app ring -steps 100 -protocol tag -kill 2 -kill-after 5ms
//	windar-run -app bt -mode blocking -kill 1
package main

import (
	"bytes"
	"flag"
	"fmt"
	"os"
	"os/signal"
	"path/filepath"
	"syscall"
	"time"

	"windar"
	"windar/internal/trace"
)

func main() {
	var (
		appName   = flag.String("app", "lu", "workload: lu, bt, sp, ring, halo, masterworker, pairs")
		procs     = flag.Int("procs", 4, "number of processes")
		protocol  = flag.String("protocol", "tdi", "logging protocol: tdi, tag, tel, none (unprotected: fault-free, with -ckpt-every 0)")
		mode      = flag.String("mode", "nonblocking", "communication mode: nonblocking, blocking")
		tport     = flag.String("transport", "mem", "communication substrate: mem (simulated fabric), tcp (loopback sockets)")
		n         = flag.Int("n", 8, "NPB grid edge")
		steps     = flag.Int("steps", 8, "iterations / steps")
		ckptEvery = flag.Int("ckpt-every", 3, "checkpoint interval in steps (0 = never)")
		kill      = flag.Int("kill", -1, "rank to kill (-1 = no failure)")
		killAfter = flag.Duration("kill-after", 5*time.Millisecond, "failure injection delay")
		detect    = flag.Duration("detect", time.Millisecond, "failure detection delay before recovery")
		seed      = flag.Int64("seed", 1, "network jitter seed")
		validate  = flag.Bool("validate", true, "validate the execution trace")
		traceOut  = flag.String("trace-out", "", "write the execution trace as JSON lines to this file")
		traceCap  = flag.Int("trace-cap", 0, "retain at most this many raw trace events (0 = unbounded); validation stays exact")
		tracing   = flag.Bool("tracing", false, "stamp causal span contexts on every message (reconstruct lineage with windar-trace)")
		flightDir = flag.String("flight-dir", "", "arm the crash flight recorder: dump the trace ring there on SIGINT/SIGTERM or a failed run")
		serve     = flag.String("serve", "", "serve live telemetry on this address (/metrics, /debug/vars, /healthz, /debug/flight, /debug/pprof)")
		linger    = flag.Duration("serve-linger", 0, "keep the telemetry server up this long after the run completes")
		stableK   = flag.String("stable", "sim", "stable-storage backend: sim (in-memory; survives rank kills), disk (parallel WAL in -stable-dir; state survives SIGKILL)")
		stableDir = flag.String("stable-dir", "", "disk backend directory (required with -stable disk)")
		fsync     = flag.Duration("fsync-every", 0, "disk backend group-commit window (0 = fsync as soon as possible)")
		durLogs   = flag.Bool("durable-logs", false, "mirror sender logs into the stable store (incremental checkpoints; with -stable disk the logs survive SIGKILL)")
		resume    = flag.Bool("resume", false, "restore every rank from its durable checkpoint in -stable-dir instead of starting fresh (requires -stable disk)")
		stateOut  = flag.String("state-out", "", "write the final application state (one hex snapshot per rank) to this file")
	)
	flag.Parse()

	factory, err := windar.NPBFactory(*appName, *n, *steps)
	if err != nil {
		factory, err = windar.WorkloadFactory(*appName, *steps)
	}
	if err != nil {
		fatal("unknown app %q", *appName)
	}

	rec := &windar.TraceRecorder{}
	if *traceCap > 0 {
		rec = windar.NewBoundedTrace(*traceCap)
	}
	cfg := windar.Config{
		Procs:           *procs,
		Protocol:        windar.Protocol(*protocol),
		CheckpointEvery: *ckptEvery,
		Transport:       *tport,
		JitterFraction:  0.5,
		Seed:            *seed,
		StallTimeout:    2 * time.Minute,

		Tracing: *tracing,

		Stable:      *stableK,
		StableDir:   *stableDir,
		FsyncEvery:  *fsync,
		DurableLogs: *durLogs,
	}
	if *resume && *stableK != windar.StableDisk {
		fatal("-resume requires -stable disk")
	}
	if *validate || *flightDir != "" || *traceOut != "" {
		// The run's recorder is installed whenever something reads it;
		// with -flight-dir it is the flight recorder too, so arming it
		// costs nothing extra.
		cfg.Trace = rec
	}
	// dump writes the run's recorder to <flight-dir>/flight-<reason>.jsonl.
	dump := func(reason string) {
		path := filepath.Join(*flightDir, "flight-"+reason+".jsonl")
		if err := rec.WriteFile(path); err != nil {
			fmt.Fprintf(os.Stderr, "windar-run: %s: flight dump failed: %v\n", reason, err)
		} else {
			fmt.Fprintf(os.Stderr, "windar-run: %s: flight trace dumped to %s\n", reason, path)
		}
	}
	if *flightDir != "" {
		// On a signal the current window lands on disk before the
		// process dies.
		sigs := make(chan os.Signal, 1)
		signal.Notify(sigs, os.Interrupt, syscall.SIGTERM)
		go func() {
			dump((<-sigs).String())
			os.Exit(1)
		}()
	}
	if *serve != "" {
		cfg.Obs = windar.NewObsRegistry(*procs)
	}
	switch *mode {
	case "blocking":
		cfg.Mode = windar.Blocking
	case "nonblocking":
		cfg.Mode = windar.NonBlocking
	default:
		fatal("unknown -mode %q", *mode)
	}

	c, err := windar.NewCluster(cfg, factory)
	if err != nil {
		fatal("%v", err)
	}
	defer c.Close()

	clk := windar.RealClock()
	start := clk.Now()
	if *resume {
		fmt.Printf("resuming from durable checkpoints in %s\n", *stableDir)
		if err := c.StartFromStable(); err != nil {
			fatal("resume: %v", err)
		}
	} else if err := c.Start(); err != nil {
		fatal("start: %v", err)
	}
	if *serve != "" {
		dbg, err := c.ServeDebug(*serve)
		if err != nil {
			fatal("serve: %v", err)
		}
		defer dbg.Close()
		fmt.Printf("telemetry: http://%s/debug/vars (also /metrics, /healthz, /debug/flight, /debug/pprof)\n", dbg.Addr())
		if *linger > 0 {
			defer clk.Sleep(*linger)
		}
	}
	if *kill >= 0 {
		clk.Sleep(*killAfter)
		fmt.Printf("injecting failure: killing rank %d\n", *kill)
		if err := c.KillAndRecover(*kill, *detect); err != nil {
			fatal("kill/recover: %v", err)
		}
	}
	c.Wait()
	elapsed := clk.Now().Sub(start)

	s := c.Stats()
	fmt.Printf("app=%s procs=%d protocol=%s mode=%s transport=%s elapsed=%v\n",
		*appName, *procs, *protocol, *mode, *tport, elapsed.Round(time.Millisecond))
	fmt.Printf("  messages sent/delivered:    %d / %d\n", s.MsgsSent, s.MsgsDelivered)
	fmt.Printf("  piggyback per message:      %.2f identifiers, %.1f bytes\n",
		s.AvgPiggybackIDs(), s.AvgPiggybackBytes())
	fmt.Printf("  tracking time:              %v total\n", s.TrackingTime().Round(time.Microsecond))
	fmt.Printf("  control messages:           %d\n", s.ControlMsgs)
	fmt.Printf("  duplicates discarded:       %d\n", s.RepetitiveDiscarded)
	fmt.Printf("  log items resent:           %d\n", s.ResentMsgs)
	fmt.Printf("  log items live at end:      %d\n", c.LogItemsLive())
	if s.Recoveries > 0 {
		fmt.Printf("  recoveries:                 %d (rolling forward %v)\n",
			s.Recoveries, time.Duration(s.RecoveryNanos).Round(time.Microsecond))
	}
	if *stateOut != "" {
		var buf bytes.Buffer
		for rank := 0; rank < *procs; rank++ {
			fmt.Fprintf(&buf, "%d %x\n", rank, c.AppSnapshot(rank))
		}
		if err := os.WriteFile(*stateOut, buf.Bytes(), 0o644); err != nil {
			fatal("state-out: %v", err)
		}
		fmt.Printf("  final state written:        %s\n", *stateOut)
	}
	if *traceOut != "" {
		if err := rec.WriteFile(*traceOut); err != nil {
			fatal("trace-out: %v", err)
		}
		fmt.Printf("  trace written:              %s (%d events", *traceOut, rec.Len())
		if rec.Dropped() > 0 {
			fmt.Printf(", %d older events dropped by -trace-cap", rec.Dropped())
		}
		fmt.Println(")")
	}
	if *validate {
		// On a -resume run Validate measures against the seeded
		// checkpoint baselines, which the exported trace file carries too.
		problems := rec.Validate(true)
		var lin *trace.Lineage
		if *tracing {
			lin = trace.BuildLineage(rec)
			problems = append(problems, lin.Check()...)
		}
		if len(problems) > 0 {
			for _, p := range problems {
				fmt.Fprintf(os.Stderr, "VIOLATION %s\n", p)
			}
			if *flightDir != "" {
				dump("trace-violation")
			}
			os.Exit(1)
		}
		fmt.Printf("  trace validation:           OK (every trace rule) [transport %s]\n", rec.Transport())
		fmt.Println("\nper-rank activity:")
		fmt.Print(trace.FormatSummaries(rec.Summarize()))
		if phases := rec.SummarizePhases(); len(phases) > 0 {
			fmt.Println("\nrecovery phases:")
			fmt.Print(trace.FormatPhaseSummaries(phases))
		}
		if lin != nil {
			fmt.Println("\ncausal lineage:")
			fmt.Print(trace.FormatLineageSummary(lin.Summary()))
		}
	}
}

func fatal(format string, args ...any) {
	fmt.Fprintf(os.Stderr, "windar-run: "+format+"\n", args...)
	os.Exit(1)
}
