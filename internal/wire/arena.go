package wire

// ArenaChunk is the size of every Arena chunk. Piggybacks are small, so
// one chunk serves thousands of sends.
const ArenaChunk = 16 << 10

// ArenaMax is the largest slice an Arena cuts from a chunk, and the
// largest payload a pooled receive envelope lends from its own scratch
// (see setPayload). Anything bigger keeps its own allocation, which
// bounds the tail a chunk rollover abandons, what a single retained
// slice can pin to one chunk's worth of small neighbours — never a
// neighbour's megabyte — and what a pooled envelope keeps.
const ArenaMax = ArenaChunk / 4

// Arena is the append-only allocator behind TDI's piggybacks
// (core.TDI.PiggybackForSend), whose callers may keep a returned slice
// across calls. Bytes are handed out front to back from a
// chunk that is never rewritten or reused — a full chunk is dropped for a
// fresh one and the garbage collector frees it once the last slice cut
// from it is gone — so a slice, once returned, is immutable storage owned
// by whoever holds it, exactly like a fresh allocation, except that
// retaining it pins its chunk (at most ArenaChunk bytes). Every slice is
// capacity-clipped: an append by the holder copies out instead of
// scribbling on the next slice's bytes.
//
// The zero value is ready to use. A nil *Arena is valid too and makes
// every call a plain allocation. Not safe for concurrent use: each arena
// belongs to the one goroutine — or lock — that copies on its behalf.
type Arena struct{ chunk []byte }

// Tail returns a zero-length slice with room for n bytes — the free tail
// of the current chunk, or an allocation of its own when the arena is
// nil or n exceeds ArenaMax. Append to it and hand the result to Commit;
// nothing is claimed until then, so an abandoned Tail costs nothing.
func (a *Arena) Tail(n int) []byte {
	if a != nil && n <= ArenaMax && n <= cap(a.chunk)-len(a.chunk) {
		return a.chunk[len(a.chunk):]
	}
	return a.grow(n)
}

// grow is Tail off the fast path: a fresh chunk, or — without an arena
// or over ArenaMax — an allocation of its own. It stays out of line so
// that both allocations are attributed here in profiles, rather than to
// whichever hot caller the compiler inlined them into.
//
//go:noinline
func (a *Arena) grow(n int) []byte {
	if a == nil || n > ArenaMax {
		return make([]byte, 0, n) // no arena, or oversize: the slice owns its allocation
	}
	a.chunk = make([]byte, 0, ArenaChunk) // amortised: one chunk per ArenaChunk bytes handed out
	return a.chunk
}

// Commit claims b — the last Tail, appended to — and returns it
// capacity-clipped. A b that is not the arena's tail (nil arena,
// oversize, or an append that outgrew the chunk and moved) owns its
// allocation already and is returned as is; empty is nil.
func (a *Arena) Commit(b []byte) []byte {
	if len(b) == 0 {
		return nil
	}
	if a != nil {
		if n := len(a.chunk); n < cap(a.chunk) && &b[0] == &a.chunk[:n+1][n] {
			a.chunk = a.chunk[:n+len(b)]
		}
	}
	return b[:len(b):len(b)]
}
