package stable

import "fmt"

func errRenameToStream(name string) error {
	return fmt.Errorf("stable: rename onto stream name %q", name)
}

func checkStream(name string) error {
	if !IsStream(name) {
		return fmt.Errorf("stable: %q does not name a stream (no trailing '/')", name)
	}
	return nil
}

// stream is the in-memory state of one stream, shared by both backends:
// the window (lo, tail] of entry numbers that can be live and the live
// entries in ascending order. The sim backend holds each entry's data;
// the disk backend holds only where it lies in which segment file, so a
// segment nothing live points at any more can be unlinked.
type stream struct {
	lo, tail int64
	// entries[off:] are the live entries; the slots before off were
	// released and are reclaimed when they outnumber the live ones.
	entries []streamEntry
	off     int
}

type streamEntry struct {
	seq int64
	// On the disk backend the data is size bytes at off in seg's file.
	seg       *segment
	off, size int64
	data      []byte // the data itself, on the sim backend
}

// streamSet holds a backend's (or a shard's) streams by name.
type streamSet map[string]*stream

// get returns name's stream, creating it empty.
func (m streamSet) get(name string) *stream {
	st := m[name]
	if st == nil {
		st = &stream{}
		m[name] = st
	}
	return st
}

// rewind is Rewind on st. It rejects a negative tail and one beyond the
// stream's: skipping numbers would let a stale entry that an earlier
// rewind discarded, still lying in an old segment, pass for the live
// holder of a number nothing was appended under. It reports whether the
// window changed.
func (st *stream) rewind(name string, tail int64) (changed bool, err error) {
	if tail < 0 || tail > st.tail {
		return false, fmt.Errorf("stable: rewind %q to %d: the stream ends at %d", name, tail, st.tail)
	}
	if tail == st.tail {
		return false, nil
	}
	st.trim(st.lo, tail)
	return true, nil
}

// live returns the live entries in ascending order.
func (st *stream) live() []streamEntry { return st.entries[st.off:] }

// push records entry e, whose number becomes the tail. It keeps the
// entry only if it lies above the truncation point. A number at or below
// the tail supersedes the entries from it upward: replay meets that when
// a segment holding the Rewind record between two generations of a
// number has been unlinked.
func (st *stream) push(e streamEntry) {
	if e.seq <= st.tail {
		st.dropAbove(e.seq - 1)
	}
	st.tail = e.seq
	if e.seq <= st.lo {
		return
	}
	st.entries = append(st.entries, e) // amortised slice growth
	if e.seg != nil {
		e.seg.live++
	}
}

// trim narrows the window to (lo, tail]: it releases the entries at or
// below lo (never lowering an earlier truncation point), discards those
// above tail and repositions the stream there.
func (st *stream) trim(lo, tail int64) {
	if lo > st.lo {
		st.lo = lo
		live := st.live()
		n := 0
		for n < len(live) && live[n].seq <= lo {
			n++
		}
		st.dropFront(n)
	}
	st.dropAbove(tail)
	st.tail = tail
}

func (st *stream) dropFront(n int) {
	for i := st.off; i < st.off+n; i++ {
		st.forget(i)
	}
	st.off += n
	switch live := len(st.entries) - st.off; {
	case live == 0:
		st.entries, st.off = st.entries[:0], 0
	case st.off >= 64 && st.off >= live:
		copy(st.entries, st.entries[st.off:])
		st.entries, st.off = st.entries[:live], 0
	}
}

func (st *stream) dropAbove(tail int64) {
	n := len(st.entries)
	for n > st.off && st.entries[n-1].seq > tail {
		n--
		st.forget(n)
	}
	st.entries = st.entries[:n]
}

// forget drops slot i's references: the entry no longer pins its segment
// or its data.
func (st *stream) forget(i int) {
	if seg := st.entries[i].seg; seg != nil {
		seg.live--
	}
	st.entries[i] = streamEntry{}
}

func (st *stream) scan(fn func(seq int64, data []byte) error) error {
	for _, e := range st.live() {
		if err := fn(e.seq, e.data); err != nil {
			return err
		}
	}
	return nil
}
