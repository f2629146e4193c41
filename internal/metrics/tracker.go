package metrics

import (
	"sync/atomic"
	"time"

	"windar/internal/clock"
)

const (
	// TrackSampleEvery is k, the tracking-time sampling period: past its
	// warm-up a Tracker times one tracked operation in k and charges k
	// times what it measured. The tracked operations are tens of
	// nanoseconds (TDI's empty-delta send is one increment), so a pair
	// of clock reads around every one of them costs more than the work
	// being measured. k is prime, hence co-prime with every workload's
	// window and checkpoint cadence: the timed operations walk through
	// all phases of those cycles instead of landing on, say, the one
	// send per window that follows a delivery every time.
	TrackSampleEvery = 61
	// TrackExactFirst is the warm-up: the first 20k operations of each
	// direction are all timed and charged as measured. A sample stands
	// for up to k-1 operations that may never happen, so sampling from
	// the start would be off by as much as k operations' worth — the
	// whole figure for the paper's NPB runs, whose ranks send 9 to 105
	// messages each. After 20k exact operations that error is below
	// k/20k = 5 % of the total at any run length, and the warm-up's
	// clock reads are a fixed ~0.2 ms per rank.
	TrackExactFirst = 20 * TrackSampleEvery
)

// Tracker measures one protocol instance's dependency-tracking time, the
// paper's Fig. 7 quantity. TDI, TAG and TEL all bracket their tracked
// work with the same Begin/End pair, so the figure compares them under
// one rule: every operation timed during the warm-up, one in k after.
//
// A Tracker is not safe for concurrent use: like the protocol instance
// it belongs to, it is driven under the rank lock.
type Tracker struct {
	m             *Rank
	clk           clock.Clock
	send, deliver trackSide
}

// trackSide is one direction's sampling state.
type trackSide struct {
	exact uint32 // warm-up operations left
	skip  uint32 // untimed operations left before the next sample
}

// NewTracker returns a Tracker charging to m (a discarded accumulator
// when nil), reading clk (the wall clock when nil).
func NewTracker(m *Rank, clk clock.Clock) Tracker {
	if m == nil {
		m = &Rank{}
	}
	if clk == nil {
		clk = clock.Real{}
	}
	side := trackSide{exact: TrackExactFirst}
	return Tracker{m: m, clk: clk, send: side, deliver: side}
}

// BeginSend opens one send-side tracked operation (piggyback
// construction, graph increment computation); the caller closes it with
// EndSend(start, weight). A zero weight means the operation is not
// timed: no clock was read and EndSend will do nothing.
func (t *Tracker) BeginSend() (start time.Time, weight int64) { return t.begin(&t.send) }

// BeginDeliver is BeginSend for the deliver side (the merge).
func (t *Tracker) BeginDeliver() (start time.Time, weight int64) { return t.begin(&t.deliver) }

func (t *Tracker) begin(s *trackSide) (time.Time, int64) {
	switch {
	case s.exact > 0:
		s.exact--
		return t.clk.Now(), 1
	case s.skip > 0:
		s.skip--
		return time.Time{}, 0
	}
	s.skip = TrackSampleEvery - 1
	return t.clk.Now(), TrackSampleEvery
}

// EndSend closes the send-side operation BeginSend opened. It inlines
// to a test of weight at the call site.
func (t *Tracker) EndSend(start time.Time, weight int64) {
	if weight != 0 {
		t.endSend(start, weight)
	}
}

// EndDeliver closes the deliver-side operation BeginDeliver opened.
func (t *Tracker) EndDeliver(start time.Time, weight int64) {
	if weight != 0 {
		t.endDeliver(start, weight)
	}
}

func (t *Tracker) endSend(start time.Time, weight int64) {
	d := t.charge(start, weight, &t.m.sendTrackNanos)
	if h := t.m.hists.Load(); h != nil {
		h.SendTracking.RecordDuration(d)
	}
}

func (t *Tracker) endDeliver(start time.Time, weight int64) {
	d := t.charge(start, weight, &t.m.deliverTrackNanos)
	if h := t.m.hists.Load(); h != nil {
		h.DeliverTracking.RecordDuration(d)
	}
}

// charge adds the measurement, scaled by the number of operations it
// stands for, to the direction's total and returns it unscaled for the
// histogram, which describes single operations.
func (t *Tracker) charge(start time.Time, weight int64, total *atomic.Int64) time.Duration {
	d := t.clk.Now().Sub(start)
	total.Add(int64(d) * weight)
	return d
}
