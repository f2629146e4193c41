// Package piggyback is the analyzer fixture: application envelopes must
// be built with keyed literals that attach the protocol piggyback.
package piggyback

import (
	"windar/internal/vclock"
	"windar/internal/wire"
)

func bad(pig []byte) *wire.Envelope {
	return &wire.Envelope{ // want "KindApp envelope built without Piggyback"
		Kind:      wire.KindApp,
		From:      0,
		To:        1,
		SendIndex: 1,
	}
}

// An unkeyed wire.Envelope literal no longer compiles outside package
// wire (the pooling bookkeeping fields are unexported), so the
// analyzer's unkeyed diagnostic is compile-time-enforced here; the
// keyed-literal checks below remain the fixture's concern.

func good(pig []byte) *wire.Envelope {
	return &wire.Envelope{
		Kind:      wire.KindApp,
		From:      0,
		To:        1,
		SendIndex: 1,
		Piggyback: pig,
	}
}

func goodControl() *wire.Envelope {
	// Control messages carry no application piggyback by design.
	return &wire.Envelope{Kind: wire.KindRollback, From: 0, To: 1}
}

func badIndex(b []byte) int64 {
	v, _, err := wire.ReadVec(b)
	if err != nil {
		return 0
	}
	return v[2] // want "indexed without a length check"
}

func badIndexDelta(b []byte, base vclock.Vec) int64 {
	v, _, err := wire.ReadVecDeltaInto(nil, b, base)
	if err != nil {
		return 0
	}
	sum := v[0] // want "indexed without a length check"
	return sum
}

func goodIndex(b []byte, rank int) int64 {
	v, _, err := wire.ReadVec(b)
	if err != nil || len(v) <= rank {
		return 0
	}
	return v[rank]
}

func goodRange(b []byte, base vclock.Vec) int64 {
	v, _, err := wire.ReadVecDeltaInto(nil, b, base)
	if err != nil {
		return 0
	}
	var sum int64
	for i := range v {
		sum += v[i]
	}
	return sum
}
