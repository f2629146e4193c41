package wire

import (
	"bytes"
	"runtime"
	"testing"
	"unsafe"
)

// inArena reports whether b's bytes lie inside a's current chunk.
func inArena(a *Arena, b []byte) bool {
	if len(b) == 0 || cap(a.chunk) == 0 {
		return false
	}
	chunk := a.chunk[:cap(a.chunk)]
	lo, hi := uintptr(unsafe.Pointer(&chunk[0])), uintptr(unsafe.Pointer(&chunk[len(chunk)-1]))
	p := uintptr(unsafe.Pointer(&b[0]))
	return lo <= p && p <= hi
}

func TestArenaCopyIsClippedAndPacked(t *testing.T) {
	var a Arena
	x := a.Copy([]byte("hello"))
	y := a.Copy([]byte("world"))
	if string(x) != "hello" || string(y) != "world" {
		t.Fatalf("copies read %q, %q", x, y)
	}
	if cap(x) != len(x) || cap(y) != len(y) {
		t.Fatalf("copies not capacity-clipped: cap %d, %d", cap(x), cap(y))
	}
	if !inArena(&a, x) || !inArena(&a, y) {
		t.Fatal("copies not cut from the chunk")
	}
	if unsafe.Pointer(unsafe.SliceData(y)) != unsafe.Add(unsafe.Pointer(unsafe.SliceData(x)), len(x)) {
		t.Fatal("second copy does not start where the first ends")
	}
	// An append copies out; the neighbour's bytes are untouched.
	x = append(x, "!!!!!"...)
	if string(y) != "world" {
		t.Fatalf("append to one copy scribbled on its neighbour: %q", y)
	}
	// Mutation in place stays inside the slice.
	y[0] = 'W'
	if z := a.Copy([]byte("next")); string(z) != "next" || string(x[:5]) != "hello" {
		t.Fatalf("mutation leaked: %q %q", z, x)
	}
}

func TestArenaZeroLengthAndNil(t *testing.T) {
	var a Arena
	if got := a.Copy(nil); got != nil {
		t.Fatalf("Copy(nil) = %v, want nil", got)
	}
	if got := a.Copy([]byte{}); got != nil {
		t.Fatalf("Copy(empty) = %v, want nil", got)
	}
	if got := a.Commit(a.Tail(8)); got != nil {
		t.Fatalf("Commit of an untouched tail = %v, want nil", got)
	}
	if len(a.chunk) != 0 {
		t.Fatalf("empty operations claimed %d bytes", len(a.chunk))
	}
	var none *Arena
	src := []byte("own allocation")
	got := none.Copy(src)
	if !bytes.Equal(got, src) || &got[0] == &src[0] || cap(got) != len(got) {
		t.Fatalf("nil arena Copy = %q (cap %d)", got, cap(got))
	}
}

func TestArenaRolloverNeverRewrites(t *testing.T) {
	var a Arena
	const size = 100
	var all [][]byte
	for i := 0; i < 5*ArenaChunk/size; i++ {
		src := bytes.Repeat([]byte{byte(i)}, size)
		all = append(all, a.Copy(src))
	}
	chunks := map[*byte]bool{}
	for i, b := range all {
		if !bytes.Equal(b, bytes.Repeat([]byte{byte(i)}, size)) {
			t.Fatalf("copy %d was rewritten by a later one: % x", i, b[:8])
		}
		chunks[unsafe.SliceData(b[:1])] = true
	}
	if len(chunks) != len(all) {
		t.Fatalf("%d copies share starting addresses", len(all)-len(chunks))
	}
	if !inArena(&a, all[len(all)-1]) || inArena(&a, all[0]) {
		t.Fatal("the arena did not move on to a fresh chunk")
	}
}

func TestArenaOversizeOwnsItsAllocation(t *testing.T) {
	var a Arena
	small := a.Copy(make([]byte, ArenaMax))
	used := len(a.chunk)
	big := a.Copy(make([]byte, ArenaMax+1))
	if !inArena(&a, small) {
		t.Fatal("a payload of exactly ArenaMax was not arena-backed")
	}
	if inArena(&a, big) || len(a.chunk) != used {
		t.Fatal("an oversize payload was cut from the chunk")
	}
	if len(big) != ArenaMax+1 || cap(big) != len(big) {
		t.Fatalf("oversize copy has len %d cap %d", len(big), cap(big))
	}
}

func TestArenaCommitOfMovedAppend(t *testing.T) {
	var a Arena
	for i := 0; i < 3; i++ {
		a.Copy(make([]byte, ArenaMax)) // leaves exactly ArenaMax free
	}
	b := a.Tail(16)
	used := len(a.chunk)
	b = append(b, make([]byte, ArenaMax+1)...) // outgrows the chunk: moves
	got := a.Commit(b)
	if inArena(&a, got) || len(a.chunk) != used {
		t.Fatal("Commit claimed chunk bytes for a slice that moved out")
	}
	if len(got) != ArenaMax+1 {
		t.Fatalf("Commit returned %d bytes", len(got))
	}
}

// TestDecodeAndCopyOwnership: only application and CHECKPOINT_ADVANCE
// payloads within ArenaMax are cut from the arena; other control payloads
// and oversize payloads own their allocation, and no path aliases its
// input.
func TestDecodeAndCopyOwnership(t *testing.T) {
	cases := []struct {
		name    string
		kind    Kind
		size    int
		inArena bool
	}{
		{"app", KindApp, 64, true},
		{"app at the limit", KindApp, ArenaMax, true},
		{"app oversize", KindApp, ArenaMax + 1, false},
		{"rollback", KindRollback, 64, false},
		{"response", KindResponse, 64, false},
		{"ckpt advance", KindCkptAdvance, 8, true},
		{"determinant", KindDeterminant, 64, false},
		{"determinant ack", KindDeterminantAck, 64, false},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			src := &Envelope{Kind: tc.kind, From: 1, To: 2, SendIndex: 9,
				Piggyback: []byte{1, 2, 3}, Payload: bytes.Repeat([]byte{0xAB}, tc.size)}
			enc := Encode(src)
			frame := AppendFrame(nil, src)
			var a Arena
			var viaCopy, viaDecode, viaFrame Envelope
			CopyIntoArena(&viaCopy, src, &a)
			if err := DecodeInto(&viaDecode, enc, &a); err != nil {
				t.Fatal(err)
			}
			if n, err := DecodeFrameInto(&viaFrame, frame, &a); err != nil || n != len(frame) {
				t.Fatalf("DecodeFrameInto = %d, %v", n, err)
			}
			for path, e := range map[string]*Envelope{"copy": &viaCopy, "decode": &viaDecode, "frame": &viaFrame} {
				if !bytes.Equal(e.Payload, src.Payload) || e.Kind != tc.kind || e.SendIndex != 9 {
					t.Fatalf("%s: wrong envelope %+v", path, e)
				}
				if got := inArena(&a, e.Payload); got != tc.inArena {
					t.Errorf("%s: payload arena-backed = %v, want %v", path, got, tc.inArena)
				}
				if cap(e.Payload) != len(e.Payload) {
					t.Errorf("%s: payload cap %d over len %d", path, cap(e.Payload), len(e.Payload))
				}
			}
			// The deep copy survives its sources being overwritten.
			clear(src.Payload)
			clear(enc)
			clear(frame)
			for path, e := range map[string]*Envelope{"copy": &viaCopy, "decode": &viaDecode, "frame": &viaFrame} {
				if e.Payload[0] != 0xAB || e.Payload[tc.size-1] != 0xAB {
					t.Errorf("%s: payload aliases its source", path)
				}
			}
			// The nil-arena entry points never touch an arena.
			var plain Envelope
			CopyInto(&plain, &viaCopy)
			if inArena(&a, plain.Payload) || !bytes.Equal(plain.Payload, viaCopy.Payload) {
				t.Error("two-argument CopyInto used an arena")
			}
		})
	}
}

// TestArenaSteadyStateAllocs: the arena-backed copy and decode amortise
// to one chunk per ArenaChunk bytes.
func TestArenaSteadyStateAllocs(t *testing.T) {
	src := &Envelope{Kind: KindApp, From: 1, To: 0, SendIndex: 1,
		Piggyback: []byte{VecDeltaMarker, 0}, Payload: make([]byte, 8)}
	enc := Encode(src)
	var a Arena
	dst := GetEnvelope()
	defer Recycle(dst)
	CopyIntoArena(dst, src, &a)
	// testing.AllocsPerRun truncates to whole allocations per run; the
	// amortised chunk is a fraction, so count mallocs directly.
	const runs = 100_000
	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	for i := 0; i < runs; i++ {
		CopyIntoArena(dst, src, &a)
		if err := DecodeInto(dst, enc, &a); err != nil {
			t.Fatal(err)
		}
	}
	runtime.ReadMemStats(&after)
	perMsg := float64(after.Mallocs-before.Mallocs) / runs
	// Two 8-byte copies per round: one chunk per ~1000 rounds.
	if perMsg > 0.005 {
		t.Errorf("copy+decode allocate %.5f/op, want the chunk amortisation only (~0.001)", perMsg)
	}
}
