// Package errdrop is the analyzer fixture: wire decode calls whose
// error is dropped (statement position) or blanked must be flagged;
// checked, propagated and non-decode calls must not.
package errdrop

import (
	"windar/internal/wire"
)

func badDrop(b []byte) {
	wire.Decode(b) // want "result of wire.Decode dropped"
}

func badFrameDrop(fr *wire.FrameReader) {
	fr.Read() // want "result of wire.FrameReader.Read dropped"
}

func badStreamDrop(e *wire.Envelope, b []byte) {
	wire.DecodeFrameInto(e, b, nil) // want "result of wire.DecodeFrameInto dropped"
}

func badBlank(b []byte) {
	_, _, _ = wire.ReadVec(b) // want "error of wire.ReadVec assigned to _"
}

func badBlankDelta(b []byte) int {
	_, n, _ := wire.ReadVecDeltaInto(nil, b, nil) // want "error of wire.ReadVecDeltaInto assigned to _"
	return n
}

func badBlankFrame(b []byte) *wire.Envelope {
	env, _ := wire.Decode(b) // want "error of wire.Decode assigned to _"
	return env
}

func goodChecked(b []byte) int {
	v, n, err := wire.ReadVec(b)
	if err != nil {
		return -1
	}
	_ = v
	return n
}

func goodPropagated(fr *wire.FrameReader) (*wire.Envelope, error) {
	return fr.Read()
}

func goodDeltaChecked(b []byte) int {
	v, n, err := wire.ReadVecDeltaInto(nil, b, nil)
	if err != nil {
		return -1
	}
	_ = v
	return n
}

// goodAppend: encode-side calls return no error and are out of scope.
func goodAppend(b []byte) []byte {
	return wire.AppendVec(b, nil)
}

func allowedDrain(fr *wire.FrameReader) {
	for i := 0; i < 3; i++ {
		fr.Read() //windar:allow errdrop (best-effort drain of a stream that already failed)
	}
}
