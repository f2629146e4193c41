package core

import (
	"testing"
	"time"

	"windar/internal/metrics"
	"windar/internal/wire"
)

// readCountingClock counts reads, so a test can tell which operations
// the tracking-time sampler chose to time.
type readCountingClock struct {
	now   time.Time
	reads int
}

func (c *readCountingClock) Now() time.Time {
	c.reads++
	c.now = c.now.Add(time.Nanosecond)
	return c.now
}
func (c *readCountingClock) Sleep(time.Duration)                  {}
func (c *readCountingClock) After(time.Duration) <-chan time.Time { return nil }

// TestSampledSendsWalkTheRefreshCadence is the phase-lock regression: a
// sampling period sharing a factor with the full-vector refresh cadence
// would time the same cadence phase every time — always the full-vector
// send, or never — and scale that one cost by k. With a co-prime period
// the samples visit every phase once per k×cadence sends.
func TestSampledSendsWalkTheRefreshCadence(t *testing.T) {
	clk := &readCountingClock{}
	tdi := New(0, 4, nil, clk) // default cadence: every 32nd send is a full vector
	idx := int64(0)
	for ; idx < metrics.TrackExactFirst; idx++ { // the warm-up times every send
		tdi.PiggybackForSend(1, idx+1)
	}
	var sampled, sampledFull, full int
	for i := 0; i < metrics.TrackSampleEvery*DefaultRefreshEvery; i++ {
		idx++
		before := clk.reads
		pig, _ := tdi.PiggybackForSend(1, idx)
		isFull := pig[0] != wire.VecDeltaMarker
		if isFull {
			full++
		}
		if clk.reads == before {
			continue
		}
		sampled++
		if isFull {
			sampledFull++
		}
	}
	if full != metrics.TrackSampleEvery {
		t.Fatalf("%d full-vector sends, want %d (one per %d)", full, metrics.TrackSampleEvery, DefaultRefreshEvery)
	}
	if sampled != DefaultRefreshEvery || sampledFull != 1 {
		t.Fatalf("%d timed sends of which %d full-vector; want %d of which exactly 1",
			sampled, sampledFull, DefaultRefreshEvery)
	}
}
