package workload_test

import (
	"bytes"
	"os"
	"testing"
	"time"

	"windar/internal/app"
	"windar/internal/fabric"
	"windar/internal/harness"
	"windar/internal/trace"
	"windar/internal/workload"
)

func cfg(n int) harness.Config {
	return harness.Config{
		N:               n,
		Protocol:        harness.TDI,
		CheckpointEvery: 4,
		Transport:       os.Getenv("WINDAR_TRANSPORT"),
		Fabric: fabric.Config{
			BaseLatency:    10 * time.Microsecond,
			JitterFraction: 1.0,
			Seed:           7,
		},
		StallTimeout: 30 * time.Second,
	}
}

func runWorkload(t *testing.T, c harness.Config, f app.Factory, chaos func(*harness.Cluster)) [][]byte {
	t.Helper()
	cl, err := harness.NewCluster(c, f)
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(cl.Close)
	if err := cl.Start(); err != nil {
		t.Fatal(err)
	}
	if chaos != nil {
		chaos(cl)
	}
	done := make(chan struct{})
	go func() { cl.Wait(); close(done) }()
	select {
	case <-done:
	case <-time.After(60 * time.Second):
		t.Fatal("workload did not complete")
	}
	out := make([][]byte, c.N)
	for i := range out {
		out[i] = cl.AppSnapshot(i)
	}
	return out
}

func TestAllWorkloadsCompleteAndRecover(t *testing.T) {
	for _, name := range []string{"ring", "halo", "masterworker", "pairs"} {
		name := name
		t.Run(name, func(t *testing.T) {
			t.Parallel()
			f, err := workload.ByName(name, 24)
			if err != nil {
				t.Fatal(err)
			}
			clean := runWorkload(t, cfg(4), f, nil)
			faulty := runWorkload(t, cfg(4), f, func(c *harness.Cluster) {
				time.Sleep(3 * time.Millisecond)
				if err := c.KillAndRecover(1, time.Millisecond); err != nil {
					t.Errorf("KillAndRecover: %v", err)
				}
			})
			for r := range clean {
				if !bytes.Equal(clean[r], faulty[r]) {
					t.Fatalf("%s rank %d diverged after recovery", name, r)
				}
			}
		})
	}
}

func TestByNameUnknown(t *testing.T) {
	if _, err := workload.ByName("nope", 1); err == nil {
		t.Fatal("unknown workload accepted")
	}
}

func TestTraceValidationCleanRun(t *testing.T) {
	rec := &trace.Recorder{}
	c := cfg(4)
	c.Observer = rec
	runWorkload(t, c, workload.NewRing(20), nil)
	if problems := rec.Validate(true); len(problems) != 0 {
		t.Fatalf("clean run flagged: %v", problems)
	}
	if rec.Len() == 0 {
		t.Fatal("no events recorded")
	}
}

func TestTraceValidationWithFailures(t *testing.T) {
	// End-to-end global-consistency check: inject failures into every
	// workload and validate the full trace — no duplicate deliveries
	// survive recovery, FIFO holds, and nothing is lost.
	for _, name := range []string{"ring", "halo", "masterworker", "pairs"} {
		name := name
		t.Run(name, func(t *testing.T) {
			t.Parallel()
			f, err := workload.ByName(name, 30)
			if err != nil {
				t.Fatal(err)
			}
			rec := &trace.Recorder{}
			c := cfg(4)
			c.Observer = rec
			runWorkload(t, c, f, func(cl *harness.Cluster) {
				time.Sleep(3 * time.Millisecond)
				if err := cl.KillAndRecover(2, time.Millisecond); err != nil {
					t.Errorf("KillAndRecover: %v", err)
					return
				}
				time.Sleep(3 * time.Millisecond)
				if err := cl.KillAndRecover(0, time.Millisecond); err != nil {
					t.Errorf("second KillAndRecover: %v", err)
				}
			})
			if problems := rec.Validate(true); len(problems) != 0 {
				t.Fatalf("%s trace violations: %v", name, problems)
			}
		})
	}
}

func TestHaloTwoRanks(t *testing.T) {
	states := runWorkload(t, cfg(2), workload.NewHalo(10), nil)
	if bytes.Equal(states[0], states[1]) {
		// The two ends fold different values; identical states would
		// suggest the exchange never happened.
		t.Fatal("halo end states unexpectedly identical")
	}
}

func TestPairsNonPowerOfTwo(t *testing.T) {
	// With n=6 several XOR partners fall outside the rank range and are
	// skipped; the pairing stays symmetric (XOR is an involution), so
	// the workload must still complete and recover.
	f := workload.NewPairs(20)
	clean := runWorkload(t, cfg(6), f, nil)
	faulty := runWorkload(t, cfg(6), f, func(c *harness.Cluster) {
		time.Sleep(3 * time.Millisecond)
		if err := c.KillAndRecover(5, time.Millisecond); err != nil {
			t.Errorf("KillAndRecover: %v", err)
		}
	})
	for r := range clean {
		if !bytes.Equal(clean[r], faulty[r]) {
			t.Fatalf("rank %d diverged", r)
		}
	}
}

// Every workload's Snapshot encodes into a buffer the app keeps, so a
// checkpoint allocates nothing for it, and the bytes restore the state.
func TestSnapshotReusesItsBuffer(t *testing.T) {
	for name, f := range map[string]app.Factory{
		"ring": workload.NewRing(4), "halo": workload.NewHalo(4), "masterworker": workload.NewMasterWorker(4),
		"pairs": workload.NewPairs(4), "flood": workload.NewFlood(4, 2),
	} {
		a := f(1, 4)
		if n := testing.AllocsPerRun(20, func() { _ = a.Snapshot() }); n != 0 {
			t.Errorf("%s: Snapshot allocates %.1f times, want 0", name, n)
		}
		img := []byte{1, 2, 3, 4, 5, 6, 7, 8}
		if err := a.Restore(img); err != nil || !bytes.Equal(a.Snapshot(), img) {
			t.Errorf("%s: snapshot after Restore(%x) = %x, %v", name, img, a.Snapshot(), err)
		}
	}
}
