package stable

import (
	"bytes"
	"fmt"
	"math/rand"
	"sort"
	"strings"
	"testing"
)

// model is the in-memory reference a Disk is compared against: what the
// contract says the backend holds after a sequence of operations.
type model struct {
	keys    map[string]string
	streams map[string]*modelStream
}

type modelStream struct {
	lo, tail int64
	entries  map[int64]string
}

func newModel() *model {
	return &model{keys: map[string]string{}, streams: map[string]*modelStream{}}
}

func (m *model) stream(name string) *modelStream {
	st := m.streams[name]
	if st == nil {
		st = &modelStream{entries: map[int64]string{}}
		m.streams[name] = st
	}
	return st
}

func (m *model) clone() *model {
	c := newModel()
	for k, v := range m.keys {
		c.keys[k] = v
	}
	for name, st := range m.streams {
		cs := c.stream(name)
		cs.lo, cs.tail = st.lo, st.tail
		for seq, v := range st.entries {
			cs.entries[seq] = v
		}
	}
	return c
}

func (st *modelStream) trim(lo, tail int64) {
	if lo > st.lo {
		st.lo = lo
	}
	st.tail = tail
	for seq := range st.entries {
		if seq <= st.lo || seq > tail {
			delete(st.entries, seq)
		}
	}
}

// canon renders a state so that two equal states render equally. Long
// values are abbreviated to their length and first byte.
func canon(keys map[string]string, streams map[string]*modelStream) string {
	short := func(v string) string {
		if len(v) > 32 {
			return fmt.Sprintf("%d*%c", len(v), v[0])
		}
		return v
	}
	var parts []string
	for k, v := range keys {
		parts = append(parts, fmt.Sprintf("%s=%s", k, short(v)))
	}
	for name, st := range streams {
		if st.lo == 0 && st.tail == 0 {
			continue
		}
		var seqs []int64
		for seq := range st.entries {
			seqs = append(seqs, seq)
		}
		sort.Slice(seqs, func(i, j int) bool { return seqs[i] < seqs[j] })
		var b strings.Builder
		fmt.Fprintf(&b, "%s(%d,%d]", name, st.lo, st.tail)
		for _, seq := range seqs {
			fmt.Fprintf(&b, " %d:%s", seq, short(st.entries[seq]))
		}
		parts = append(parts, b.String())
	}
	sort.Strings(parts)
	return strings.Join(parts, "\n")
}

func (m *model) canon() string { return canon(m.keys, m.streams) }

// observe reads d's whole state through the Backend methods (plus the
// stream windows, which only the next append would otherwise reveal).
func observe(t *testing.T, d *Disk) string {
	t.Helper()
	keys := map[string]string{}
	for _, k := range d.Keys("") {
		v, ok := d.Get(k)
		if !ok {
			t.Fatalf("Keys lists %q but Get misses it", k)
		}
		keys[k] = string(v)
	}
	streams := map[string]*modelStream{}
	for _, s := range d.shards {
		s.mu.Lock()
		for name, st := range s.streams {
			streams[name] = &modelStream{lo: st.lo, tail: st.tail, entries: map[int64]string{}}
		}
		s.mu.Unlock()
	}
	for name, st := range streams {
		prev := st.lo
		err := d.Scan(name, func(seq int64, data []byte) error {
			if seq <= prev || seq > st.tail {
				t.Errorf("stream %s: entry %d out of order or outside (%d, %d]", name, seq, st.lo, st.tail)
			}
			prev = seq
			st.entries[seq] = string(data)
			return nil
		})
		if err != nil {
			t.Fatal(err)
		}
	}
	return canon(keys, streams)
}

// TestDiskAgainstModel drives a one-shard Disk and the model through the
// same random operations. A clean reopen must reproduce the model
// exactly; a crash (the directory as the kernel holds it, buffered
// records lost) must reproduce the model as it stood at some point at or
// after the last barrier — a consistent prefix, never a mix.
func TestDiskAgainstModel(t *testing.T) {
	keyNames := []string{"ckpt/a", "ckpt/a.tmp", "ckpt/b", "tel/1"}
	streamNames := []string{"slog/0/", "slog/1/", "slog/2/"}
	for seed := int64(1); seed <= 12; seed++ {
		t.Run(fmt.Sprint("seed", seed), func(t *testing.T) {
			rng := rand.New(rand.NewSource(seed))
			open := func(dir string) *Disk {
				d, err := OpenDisk(DiskOptions{Dir: dir, Shards: 1})
				if err != nil {
					t.Fatalf("OpenDisk: %v", err)
				}
				return d
			}
			d := open(t.TempDir())
			defer func() { d.Close() }()
			m := newModel()
			since := []*model{m.clone()} // every state since the last barrier, oldest first
			value := func() string {
				c := string(rune('a' + rng.Intn(26)))
				switch rng.Intn(10) {
				case 0:
					return strings.Repeat(c, 5000) // a large value, inline like every other
				case 1:
					return strings.Repeat(c, 700)
				}
				return strings.Repeat(c, 1+rng.Intn(20))
			}
			must := func(err error) {
				t.Helper()
				if err != nil {
					t.Fatal(err)
				}
			}

			for step := 0; step < 400; step++ {
				barrier := false
				switch op := rng.Intn(100); {
				case op < 35:
					name, v := streamNames[rng.Intn(len(streamNames))], value()
					must(d.PutLazy(name, []byte(v)))
					st := m.stream(name)
					st.tail++
					if st.tail > st.lo {
						st.entries[st.tail] = v
					}
				case op < 50:
					k, v := keyNames[rng.Intn(len(keyNames))], value()
					must(d.PutLazy(k, []byte(v)))
					m.keys[k] = v
				case op < 57:
					k := keyNames[rng.Intn(len(keyNames))]
					must(d.Delete(k))
					delete(m.keys, k)
				case op < 67:
					name := streamNames[rng.Intn(len(streamNames))]
					st := m.stream(name)
					upTo := st.lo - 1 + rng.Int63n(max(st.tail-st.lo, 0)+4)
					must(d.Truncate(name, upTo))
					st.trim(upTo, st.tail)
				case op < 72:
					name := streamNames[rng.Intn(len(streamNames))]
					st := m.stream(name)
					tail := rng.Int63n(st.tail + 1)
					if rng.Intn(3) > 0 {
						tail = st.tail - min(st.tail, rng.Int63n(4)) // mostly a short way back
					}
					must(d.Rewind(name, tail))
					st.trim(st.lo, tail)
				case op < 77:
					from, to := keyNames[rng.Intn(len(keyNames))], keyNames[rng.Intn(len(keyNames))]
					if v, ok := m.keys[from]; ok && from != to {
						must(d.Rename(from, to))
						delete(m.keys, from)
						m.keys[to] = v
						barrier = true
					}
				case op < 82:
					must(d.Sync())
					barrier = true
				case op < 87:
					// The kernel takes the buffered records without an
					// fsync: a later crash may or may not keep them.
					s := d.shards[0]
					s.mu.Lock()
					must(s.flush())
					s.mu.Unlock()
				case op < 91:
					s := d.shards[0]
					s.mu.Lock()
					must(d.rotate(s))
					s.mu.Unlock()
				case op < 96:
					must(d.Close())
					d = open(d.dir)
					barrier = true
				default:
					crashed := crashCopy(t, d.dir)
					must(d.Close())
					d = open(crashed)
					got := observe(t, d)
					match := -1
					for i, past := range since {
						if past.canon() == got {
							match = i // the latest match: equal states are interchangeable
						}
					}
					if match < 0 {
						t.Fatalf("step %d: crash recovered a state that never existed since the last barrier:\n%s\n--- model at the barrier:\n%s\n--- model now:\n%s",
							step, got, since[0].canon(), m.canon())
					}
					m = since[match].clone()
					barrier = true
				}
				if barrier {
					since = since[:0]
				}
				since = append(since, m.clone())
				if step%25 == 0 || barrier {
					if got, want := observe(t, d), m.canon(); got != want {
						t.Fatalf("step %d: backend\n%s\n--- model\n%s", step, got, want)
					}
				}
			}
			// Once nothing is live, nothing but the head may remain.
			for _, name := range streamNames {
				must(d.Truncate(name, m.stream(name).tail))
			}
			must(d.Sync())
			if n := d.Stats().LiveSegments; n != 1 {
				t.Errorf("%d segments on disk with no live entry, want the head alone", n)
			}
		})
	}
}

// FuzzWALReplay checks segment replay against arbitrary bytes and against
// damaged logs: it never panics, it yields exactly the records whose
// bytes verify — each one re-encodes to the bytes it was read from — and
// it stops for good at the first one that does not, so a record that was
// never written cannot surface.
func FuzzWALReplay(f *testing.F) {
	var log []byte
	var written []string
	add := func(op byte, name string, rest string) {
		start := len(log)
		log = append(appendRecordStart(log, op, name), rest...)
		sealRecord(log[start:])
		written = append(written, string(log[start:]))
	}
	add(opCarry, "", "\x01")
	add(opPut, "ckpt/00000001", "value")
	add(opAppend, "slog/000/001/", "\x07entry")
	add(opTrim, "slog/000/001/", "\x03\x09")
	add(opDelete, "ckpt/00000001", "")
	add(opAppend, "slog/000/001/", "\x80\x01"+strings.Repeat("x", 300))
	// The arbitrary-bytes seeds stop short of the checkpoint image: the
	// fuzzer minimises every input that finds new coverage, and a 64 KiB
	// one takes it the whole run. The damaged log below holds the image.
	small := len(log)
	add(opPut, "ckpt/00000002", strings.Repeat("i", 64<<10)) // a checkpoint image, inline like any value

	f.Add(log[:small], 0, byte(0))
	f.Add(log[:small-5], 40, byte(0xff))
	f.Add([]byte{}, 0, byte(0))
	f.Add([]byte{4, 0, 0, 0, 0, 0, 0, 0, 1, 2, 3, 4}, 3, byte(1))
	f.Fuzz(func(t *testing.T, data []byte, pos int, flip byte) {
		// Arbitrary bytes: replay must not panic, and what it verified
		// once it verifies again — the same records, ending at the same
		// offset — with nothing after that offset mattering.
		n := 0
		good := replayRecords(data, func(walRecord) { n++ })
		if good < 0 || good > len(data) {
			t.Fatalf("good = %d of %d bytes", good, len(data))
		}
		m := 0
		if again := replayRecords(data[:good], func(walRecord) { m++ }); again != good || m != n {
			t.Fatalf("replay of the verified prefix: %d records to offset %d, want %d to %d", m, again, n, good)
		}

		// A written log with one byte damaged: exactly the records before
		// the damaged one come back, byte for byte. pos picks the record,
		// then the byte in it, so the image does not take nearly every
		// position.
		damaged := append([]byte(nil), log...)
		p := uint(pos)
		intact, off := int(p%uint(len(written))), 0
		for _, rec := range written[:intact] {
			off += len(rec)
		}
		pos = off + int(p/uint(len(written))%uint(len(written[intact])))
		if flip == 0 {
			flip = 1
		}
		damaged[pos] ^= flip
		count := 0
		good = replayRecords(damaged, func(r walRecord) {
			if count >= intact {
				t.Fatalf("replay yielded record %d (op %d, %q) past the damaged byte at %d", count, r.op, r.name, pos)
			}
			var want walRecord
			replayRecords([]byte(written[count]), func(w walRecord) { want = w })
			if r.op != want.op || r.a != want.a || r.b != want.b || !bytes.Equal(r.name, want.name) || !bytes.Equal(r.rest, want.rest) {
				t.Fatalf("record %d came back as %+v, written as %+v", count, r, want)
			}
			count++
		})
		if count != intact || good != off {
			t.Fatalf("damage at %d: replay yielded %d records to offset %d, want %d to %d", pos, count, good, intact, off)
		}
	})
}
