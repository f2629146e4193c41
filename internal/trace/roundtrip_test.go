package trace

import (
	"bytes"
	"fmt"
	"testing"
	"time"

	"windar/internal/clock"
	"windar/internal/fabric"
	"windar/internal/harness"
	"windar/internal/workload"
)

// roundTrip exports r and imports the file back.
func roundTrip(t *testing.T, r *Recorder) *Recorder {
	t.Helper()
	var buf bytes.Buffer
	if err := r.Export(&buf); err != nil {
		t.Fatal(err)
	}
	got, err := Import(&buf)
	if err != nil {
		t.Fatalf("Import: %v", err)
	}
	return got
}

// TestBoundedExportValidatesLikeRecorder runs a real ring cluster
// through a kill and recover into bounded recorders of several small
// capacities: the exported window must validate, offline, exactly as
// the live recorder does, although most of the run was evicted.
func TestBoundedExportValidatesLikeRecorder(t *testing.T) {
	factory, err := workload.ByName("ring", 40)
	if err != nil {
		t.Fatal(err)
	}
	for _, capacity := range []int{1, 7, 50, 100} {
		rec := NewBounded(capacity)
		c, err := harness.NewCluster(harness.Config{
			N: 4, Protocol: harness.TDI, CheckpointEvery: 3,
			Fabric:       fabric.Config{BaseLatency: 20 * time.Microsecond, JitterFraction: 0.5, Seed: 1},
			Observer:     rec,
			StallTimeout: 20 * time.Second,
		}, factory)
		if err != nil {
			t.Fatal(err)
		}
		if err := c.Start(); err != nil {
			t.Fatal(err)
		}
		clock.Real{}.Sleep(2 * time.Millisecond)
		if err := c.KillAndRecover(2, time.Millisecond); err != nil {
			t.Fatalf("KillAndRecover: %v", err)
		}
		c.Wait()
		c.Close()
		if rec.Dropped() == 0 {
			t.Fatalf("cap %d: nothing evicted", capacity)
		}
		imported := roundTrip(t, rec)
		for _, finished := range []bool{false, true} {
			want := problemSet(rec.Validate(finished))
			if len(want) > 0 {
				t.Fatalf("cap %d: live recorder flags a clean run: %v", capacity, want)
			}
			if got := problemSet(imported.Validate(finished)); fmt.Sprint(got) != fmt.Sprint(want) {
				t.Errorf("cap %d Validate(%v) after round trip:\n got %v\nwant %v", capacity, finished, got, want)
			}
		}
	}
}
