package metrics

import (
	"testing"
	"time"

	"windar/internal/obs"
)

// stepClock advances a fixed amount on every read, so an operation
// bracketed by two reads always measures exactly step.
type stepClock struct {
	now   time.Time
	step  time.Duration
	reads int
}

func (c *stepClock) Now() time.Time {
	c.reads++
	c.now = c.now.Add(c.step)
	return c.now
}
func (c *stepClock) Sleep(time.Duration)                  {}
func (c *stepClock) After(time.Duration) <-chan time.Time { return nil }

// track runs n send and n deliver operations through tr.
func track(tr *Tracker, n int) {
	for i := 0; i < n; i++ {
		tr.EndSend(tr.BeginSend())
		tr.EndDeliver(tr.BeginDeliver())
	}
}

func TestTrackerChargesWithinToleranceOfEveryCall(t *testing.T) {
	// From the paper-figure runs (a handful of messages per rank) to the
	// repository benchmark's floods: at every length the charge stays
	// within 5 % of what timing every call would have charged.
	for _, n := range []int{1, 9, 105, TrackExactFirst, TrackExactFirst + 1, TrackExactFirst + 30, 2000, 10_000, 10_007, 123_456} {
		var r Rank
		clk := &stepClock{step: 40 * time.Nanosecond}
		tr := NewTracker(&r, clk)
		track(&tr, n)
		want := float64(n) * float64(clk.step) // one step per operation
		s := r.Snapshot()
		for name, got := range map[string]int64{"send": s.SendTrackNanos, "deliver": s.DeliverTrackNanos} {
			if diff := float64(got)/want - 1; diff > 0.05 || diff < -0.05 {
				t.Errorf("n=%d %s: charged %d ns, every-call total %.0f ns (%+.1f%%)", n, name, got, want, 100*diff)
			}
		}
		// Two directions, two reads per timed operation: the warm-up in
		// full, then one operation in k.
		sampled := (max(n-TrackExactFirst, 0) + TrackSampleEvery - 1) / TrackSampleEvery
		if limit := 2 * 2 * (min(n, TrackExactFirst) + sampled); clk.reads > limit {
			t.Errorf("n=%d: %d clock reads, want <= %d", n, clk.reads, limit)
		}
	}
}

func TestTrackerSamplesOneInKAfterWarmUp(t *testing.T) {
	var r Rank
	clk := &stepClock{step: time.Nanosecond}
	tr := NewTracker(&r, clk)
	track(&tr, TrackExactFirst)
	clk.reads = 0
	before := r.Snapshot().SendTrackNanos
	const periods = 1000
	track(&tr, periods*TrackSampleEvery)
	if want := 2 * 2 * periods; clk.reads != want {
		t.Fatalf("%d clock reads over %d periods, want %d", clk.reads, periods, want)
	}
	if got := r.Snapshot().SendTrackNanos - before; got != periods*TrackSampleEvery {
		t.Fatalf("charged %d ns for %d one-nanosecond operations", got, periods*TrackSampleEvery)
	}
}

func TestTrackerHistogramGetsUnscaledSample(t *testing.T) {
	reg := obs.NewRegistry(1)
	c := NewCollector(1)
	c.AttachObs(reg)
	tr := NewTracker(c.Rank(0), &stepClock{step: 100 * time.Nanosecond})
	track(&tr, TrackExactFirst+2*TrackSampleEvery)
	const samples = TrackExactFirst + 2
	for _, f := range reg.Snapshot() {
		if f.Name != "deliver_tracking_ns" {
			continue
		}
		if f.Total.Count != samples || f.Total.Sum != 100*samples {
			t.Fatalf("histogram holds %d samples summing to %d ns; want %d samples of 100 ns", f.Total.Count, f.Total.Sum, samples)
		}
		return
	}
	t.Fatal("deliver_tracking_ns family not registered")
}

func TestNewTrackerDefaults(t *testing.T) {
	tr := NewTracker(nil, nil)
	track(&tr, TrackExactFirst+2*TrackSampleEvery) // must not panic on the nil rank or clock
}
