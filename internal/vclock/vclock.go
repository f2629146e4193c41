// Package vclock provides the integer index vectors at the heart of the
// TDI protocol: depend_interval, last_send_index and last_deliver_index
// from Algorithm 1 of the paper. A Vec is a fixed-length slice of int64
// counters, one entry per process in the system.
package vclock

import (
	"fmt"
	"strings"
)

// Vec is a per-process integer counter vector. Its length is the number of
// processes in the system and never changes after creation.
type Vec []int64

// New returns a zeroed vector for an n-process system.
//
// New and Clone are marked noinline: hot-path callers reach them only on
// amortized resize/first-use paths, so their allocation stays out of
// line of those callers.
//
//go:noinline
func New(n int) Vec { return make(Vec, n) }

// Clone returns an independent copy of v.
//
//go:noinline
func (v Vec) Clone() Vec {
	c := make(Vec, len(v))
	copy(c, v)
	return c
}

// panicLenMismatch keeps the message formatting out of the callers:
// Sprintf boxing allocates, and inlining it would charge that to hot-path
// spans that only reach it on a fatal programming error.
//
//go:noinline
func panicLenMismatch(a, b int) {
	panic(fmt.Sprintf("vclock: length mismatch %d != %d", a, b))
}

// CopyFrom overwrites v with the contents of src. It panics if the lengths
// differ, because mixing vectors from systems of different sizes is always
// a programming error.
func (v Vec) CopyFrom(src Vec) {
	if len(v) != len(src) {
		panicLenMismatch(len(v), len(src))
	}
	copy(v, src)
}

// Merge sets every element of v to the elementwise maximum of v and o.
// This is the dependency-merge step of Algorithm 1 (lines 22-24): when a
// process delivers a message, the piggybacked depend_interval is folded
// into its own so its current state interval reports the union of both
// causal pasts.
func (v Vec) Merge(o Vec) {
	if len(v) != len(o) {
		panicLenMismatch(len(v), len(o))
	}
	for i, x := range o {
		if x > v[i] {
			v[i] = x
		}
	}
}

// MergeExcept merges o into v as Merge does, but leaves element self
// untouched. Algorithm 1 line 23 skips k == i: a process's own interval
// index is advanced only by its own deliveries, never by hearsay.
func (v Vec) MergeExcept(o Vec, self int) {
	if len(v) != len(o) {
		panicLenMismatch(len(v), len(o))
	}
	for i, x := range o {
		if i != self && x > v[i] {
			v[i] = x
		}
	}
}

// Dominates reports whether every element of v is >= the corresponding
// element of o.
func (v Vec) Dominates(o Vec) bool {
	if len(v) != len(o) {
		return false
	}
	for i, x := range o {
		if v[i] < x {
			return false
		}
	}
	return true
}

// Equal reports whether v and o are elementwise equal.
func (v Vec) Equal(o Vec) bool {
	if len(v) != len(o) {
		return false
	}
	for i, x := range o {
		if v[i] != x {
			return false
		}
	}
	return true
}

// Sum returns the sum of all elements. Useful as a cheap progress measure:
// the sum of depend_interval is monotonically non-decreasing along any
// causal path.
func (v Vec) Sum() int64 {
	var s int64
	for _, x := range v {
		s += x
	}
	return s
}

// String renders the vector in the paper's notation, e.g. "(0, 2, 2, 1)".
func (v Vec) String() string {
	var b strings.Builder
	b.WriteByte('(')
	for i, x := range v {
		if i > 0 {
			b.WriteString(", ")
		}
		fmt.Fprintf(&b, "%d", x)
	}
	b.WriteByte(')')
	return b.String()
}
