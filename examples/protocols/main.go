// Protocols compares the three causal message logging protocols — TDI
// (the paper's contribution), TAG (antecedence graph) and TEL (event
// logger) — and the unprotected baseline on the same workload: a
// miniature of the paper's Fig. 6/7, printed side by side, plus a
// recovery-latency comparison showing TDI's "proactive perception of
// delivery order" advantage during rolling forward. The baseline takes
// no checkpoints and is never killed.
//
//	go run ./examples/protocols
package main

import (
	"fmt"
	"log"
	"time"

	"windar"
)

func main() {
	const procs = 8
	factory, err := windar.NPBFactory("lu", 8, 6)
	if err != nil {
		log.Fatal(err)
	}

	fmt.Printf("%-8s %18s %16s %14s %16s\n",
		"protocol", "piggyback ids/msg", "piggyback B/msg", "tracking/msg", "rolling forward")
	for _, p := range []windar.Protocol{windar.None, windar.TDI, windar.TAG, windar.TEL} {
		cfg := windar.Config{
			Procs:              procs,
			Protocol:           p,
			CheckpointEvery:    3,
			JitterFraction:     0.5,
			Seed:               11,
			EventLoggerLatency: 60 * time.Microsecond,
		}
		if p == windar.None {
			cfg.CheckpointEvery = 0
		}
		c, err := windar.NewCluster(cfg, factory)
		if err != nil {
			log.Fatal(err)
		}
		if err := c.Start(); err != nil {
			log.Fatal(err)
		}
		if p != windar.None {
			windar.RealClock().Sleep(8 * time.Millisecond)
			if err := c.KillAndRecover(3, time.Millisecond); err != nil {
				log.Fatal(err)
			}
		}
		c.Wait()
		s := c.Stats()
		var perMsg time.Duration
		if s.MsgsSent > 0 {
			perMsg = s.TrackingTime() / time.Duration(s.MsgsSent)
		}
		fmt.Printf("%-8s %18.1f %16.1f %14v %16v\n",
			p, s.AvgPiggybackIDs(), s.AvgPiggybackBytes(),
			perMsg.Round(10*time.Nanosecond),
			time.Duration(s.RecoveryNanos).Round(time.Microsecond))
		c.Close()
	}
	fmt.Println("\nTDI piggybacks a flat n-integer vector; the PWD-model baselines")
	fmt.Println("piggyback per-delivery determinants (TAG: the antecedence-graph")
	fmt.Println("increment; TEL: everything not yet acknowledged stable).")
}
