// Package obs is the observability layer: lock-free log-bucketed
// histograms, a per-rank snapshot registry, and the debug HTTP server
// (/metrics, /debug/vars, /healthz, /debug/flight, /debug/pprof).
//
// The package is a leaf: it imports only the standard library and
// internal/clock, so metrics, harness and the transports can all feed it
// without cycles. Every handle type (*Hist, *Family, *Registry) treats a
// nil receiver as "observability disabled" and degrades to a no-op, so
// hot paths record unconditionally and pay one predictable branch when
// the layer is off.
package obs

import (
	"math"
	"math/bits"
	"sync/atomic"
	"time"
)

// Bucketing: log-linear, subCount sub-buckets per power of two
// ("octave"). Values 0..subCount-1 get exact unit buckets; from there
// each octave [2^e, 2^(e+1)) splits into subCount equal-width buckets,
// bounding the relative quantile error by 1/subCount (25%) while keeping
// the whole int64 range in numBuckets fixed slots — no allocation, no
// rescaling, single atomic add per Record.
const (
	subBits  = 2
	subCount = 1 << subBits // 4

	// numBuckets covers 0, 1..subCount-1 exact, then subCount buckets for
	// each of the 61 octaves [2^2, 2^63): 4 + 61*4 = 248. The last bucket's
	// upper bound is exactly math.MaxInt64.
	numBuckets = subCount + (63-subBits)*subCount
)

// bucketIdx maps a non-negative value to its bucket. Values <= 0 land in
// bucket 0.
func bucketIdx(v int64) int {
	if v <= 0 {
		return 0
	}
	u := uint64(v)
	exp := bits.Len64(u) - 1
	if exp < subBits {
		return int(u) // 1..subCount-1: exact unit buckets
	}
	sub := int((u >> (uint(exp) - subBits)) & (subCount - 1))
	return (exp-subBits)*subCount + subCount + sub
}

// BucketUpper returns the inclusive upper bound of bucket idx. It is the
// value Prometheus "le" labels and quantile estimates report.
func BucketUpper(idx int) int64 {
	if idx <= 0 {
		return 0
	}
	if idx < subCount {
		return int64(idx)
	}
	block := (idx - subCount) / subCount
	sub := (idx - subCount) % subCount
	exp := uint(block + subBits)
	base := int64(1) << exp
	width := int64(1) << (exp - subBits)
	return base + int64(sub+1)*width - 1
}

// Hist is a lock-free histogram over non-negative int64 values
// (typically nanoseconds or bytes). Record is wait-free except for the
// max update (a short CAS loop) and performs zero allocations. The zero
// value is ready to use; a nil *Hist ignores records.
type Hist struct {
	count   atomic.Int64
	sum     atomic.Int64
	max     atomic.Int64
	buckets [numBuckets]atomic.Int64
}

// Record adds one observation. Negative values clamp to zero (durations
// measured across a fake-clock step can come out zero, never negative,
// but clamping keeps the bucket math total).
func (h *Hist) Record(v int64) {
	if h == nil {
		return
	}
	if v < 0 {
		v = 0
	}
	h.buckets[bucketIdx(v)].Add(1)
	h.count.Add(1)
	h.sum.Add(v)
	for {
		cur := h.max.Load()
		if v <= cur || h.max.CompareAndSwap(cur, v) {
			return
		}
	}
}

// RecordDuration records d in nanoseconds.
func (h *Hist) RecordDuration(d time.Duration) { h.Record(int64(d)) }

// Count returns the number of recorded observations.
func (h *Hist) Count() int64 {
	if h == nil {
		return 0
	}
	return h.count.Load()
}

// Snapshot copies the histogram state. Individual loads are atomic;
// cross-bucket skew under concurrent recording is acceptable for
// reporting (the same contract as metrics.Snapshot).
func (h *Hist) Snapshot() HistSnapshot {
	if h == nil {
		return HistSnapshot{}
	}
	s := HistSnapshot{
		Count: h.count.Load(),
		Sum:   h.sum.Load(),
		Max:   h.max.Load(),
	}
	for i := range h.buckets {
		if c := h.buckets[i].Load(); c > 0 {
			s.Buckets = append(s.Buckets, Bucket{Upper: BucketUpper(i), Count: c})
		}
	}
	return s
}

// Bucket is one non-empty histogram bucket: Count observations at most
// Upper (and above the previous bucket's upper bound).
type Bucket struct {
	Upper int64 `json:"upper"`
	Count int64 `json:"count"`
}

// HistSnapshot is a point-in-time copy of a Hist: totals plus the sparse
// list of non-empty buckets in ascending Upper order.
type HistSnapshot struct {
	Count   int64    `json:"count"`
	Sum     int64    `json:"sum"`
	Max     int64    `json:"max"`
	Buckets []Bucket `json:"buckets,omitempty"`
}

// Add merges o into s and returns the result (for per-rank -> total
// aggregation). Both bucket lists are sparse and sorted; the merge
// preserves that.
func (s HistSnapshot) Add(o HistSnapshot) HistSnapshot {
	out := HistSnapshot{Count: s.Count + o.Count, Sum: s.Sum + o.Sum, Max: s.Max}
	if o.Max > out.Max {
		out.Max = o.Max
	}
	out.Buckets = make([]Bucket, 0, len(s.Buckets)+len(o.Buckets))
	i, j := 0, 0
	for i < len(s.Buckets) || j < len(o.Buckets) {
		switch {
		case j >= len(o.Buckets) || (i < len(s.Buckets) && s.Buckets[i].Upper < o.Buckets[j].Upper):
			out.Buckets = append(out.Buckets, s.Buckets[i])
			i++
		case i >= len(s.Buckets) || o.Buckets[j].Upper < s.Buckets[i].Upper:
			out.Buckets = append(out.Buckets, o.Buckets[j])
			j++
		default:
			out.Buckets = append(out.Buckets, Bucket{Upper: s.Buckets[i].Upper, Count: s.Buckets[i].Count + o.Buckets[j].Count})
			i++
			j++
		}
	}
	return out
}

// Mean returns the arithmetic mean of the recorded values, 0 when empty.
func (s HistSnapshot) Mean() float64 {
	if s.Count == 0 {
		return 0
	}
	return float64(s.Sum) / float64(s.Count)
}

// Quantile estimates the q-th quantile (0 < q <= 1) as the upper bound
// of the bucket containing the ceil(q*Count)-th observation, clamped to
// the recorded maximum. The estimate is at most one bucket width high —
// a relative error bounded by 1/subCount.
func (s HistSnapshot) Quantile(q float64) int64 {
	if s.Count == 0 {
		return 0
	}
	target := int64(math.Ceil(q * float64(s.Count)))
	if target < 1 {
		target = 1
	}
	if target > s.Count {
		target = s.Count
	}
	var seen int64
	for _, b := range s.Buckets {
		seen += b.Count
		if seen >= target {
			if b.Upper > s.Max {
				return s.Max
			}
			return b.Upper
		}
	}
	return s.Max
}
