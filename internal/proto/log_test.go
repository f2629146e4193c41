package proto

import (
	"bytes"
	"math/rand"
	"reflect"
	"sort"
	"testing"
	"testing/quick"
)

func item(dest int, idx int64, payload string) LogItem {
	return LogItem{Dest: dest, SendIndex: idx, Payload: []byte(payload)}
}

func TestAppendAndItemsFor(t *testing.T) {
	l := NewLog()
	l.Append(item(1, 1, "a"))
	l.Append(item(1, 2, "b"))
	l.Append(item(2, 1, "c"))

	got := l.ItemsFor(1, 0)
	if len(got) != 2 || got[0].SendIndex != 1 || got[1].SendIndex != 2 {
		t.Fatalf("ItemsFor(1,0) = %v", got)
	}
	if got := l.ItemsFor(1, 1); len(got) != 1 || got[0].SendIndex != 2 {
		t.Fatalf("ItemsFor(1,1) = %v", got)
	}
	if got := l.ItemsFor(1, 5); len(got) != 0 {
		t.Fatalf("ItemsFor(1,5) = %v", got)
	}
	if got := l.ItemsFor(9, 0); len(got) != 0 {
		t.Fatalf("ItemsFor(unknown dest) = %v", got)
	}
}

func TestAppendOutOfOrderPanics(t *testing.T) {
	l := NewLog()
	l.Append(item(1, 2, "a"))
	defer func() {
		if recover() == nil {
			t.Fatal("expected panic on out-of-order append")
		}
	}()
	l.Append(item(1, 2, "dup"))
}

func TestRelease(t *testing.T) {
	l := NewLog()
	for i := int64(1); i <= 5; i++ {
		l.Append(item(1, i, "x"))
	}
	l.Append(item(2, 1, "y"))

	if n := l.Release(1, 3); n != 3 {
		t.Fatalf("Release removed %d, want 3", n)
	}
	if l.Len() != 3 {
		t.Fatalf("Len = %d, want 3", l.Len())
	}
	got := l.ItemsFor(1, 0)
	if len(got) != 2 || got[0].SendIndex != 4 {
		t.Fatalf("post-release items = %v", got)
	}
	// Releasing again is a no-op.
	if n := l.Release(1, 3); n != 0 {
		t.Fatalf("second Release removed %d", n)
	}
	// Releasing everything empties the destination bucket.
	if n := l.Release(1, 99); n != 2 {
		t.Fatalf("full Release removed %d", n)
	}
	if l.Len() != 1 {
		t.Fatalf("Len = %d, want 1 (dest 2 untouched)", l.Len())
	}
}

func TestBytesAccounting(t *testing.T) {
	l := NewLog()
	l.Append(LogItem{Dest: 1, SendIndex: 1, Piggyback: make([]byte, 4), Payload: make([]byte, 10)})
	l.Append(LogItem{Dest: 1, SendIndex: 2, Payload: make([]byte, 6)})
	if l.Bytes() != 20 {
		t.Fatalf("Bytes = %d, want 20", l.Bytes())
	}
	l.Release(1, 1)
	if l.Bytes() != 6 {
		t.Fatalf("Bytes after release = %d, want 6", l.Bytes())
	}
}

func TestAllAndRestoreRoundTrip(t *testing.T) {
	l := NewLog()
	l.Append(item(2, 1, "c"))
	l.Append(item(2, 2, "d"))
	l.Append(item(0, 1, "a"))

	all := l.All()
	if len(all) != 3 {
		t.Fatalf("All = %v", all)
	}
	if all[0].Dest != 0 || all[1].Dest != 2 || all[1].SendIndex != 1 {
		t.Fatalf("All ordering wrong: %v", all)
	}

	restored := NewLog()
	restored.RestoreAll(all)
	if !reflect.DeepEqual(restored.All(), all) {
		t.Fatalf("restore mismatch: %v vs %v", restored.All(), all)
	}
	if restored.Bytes() != l.Bytes() || restored.Len() != l.Len() {
		t.Fatalf("restore accounting mismatch")
	}
}

func TestRestoreAllSortsUnorderedInput(t *testing.T) {
	l := NewLog()
	l.RestoreAll([]LogItem{item(1, 3, "c"), item(1, 1, "a"), item(1, 2, "b")})
	got := l.ItemsFor(1, 0)
	for i, it := range got {
		if it.SendIndex != int64(i+1) {
			t.Fatalf("unsorted after restore: %v", got)
		}
	}
}

// referenceRestore is the restore RestoreAll replaced: regroup by
// destination, sort, and Append every item into fresh chunks.
func referenceRestore(items []LogItem) *Log {
	sorted := append([]LogItem(nil), items...)
	sort.Slice(sorted, func(i, j int) bool {
		if sorted[i].Dest != sorted[j].Dest {
			return sorted[i].Dest < sorted[j].Dest
		}
		return sorted[i].SendIndex < sorted[j].SendIndex
	})
	l := NewLog()
	for _, it := range sorted {
		l.Append(it)
	}
	return l
}

// randomLogItems draws a checkpoint-shaped log: up to four destinations,
// each a run of increasing send indices long enough to span several
// chunks, with payloads and piggybacks of varying length. Unless
// shuffled, the items come in (Dest, SendIndex) order, as All emits them.
func randomLogItems(r *rand.Rand, shuffled bool) []LogItem {
	var items []LogItem
	for dest := 0; dest < 4; dest++ {
		if r.Intn(4) == 0 {
			continue
		}
		idx := int64(r.Intn(50))
		for n := r.Intn(3 * logChunkItems); n > 0; n-- {
			idx += 1 + int64(r.Intn(3))
			items = append(items, LogItem{
				Dest: dest, SendIndex: idx, Tag: int32(r.Intn(9)),
				Piggyback: make([]byte, r.Intn(6)), Payload: []byte{byte(idx), byte(dest), byte(r.Intn(256))},
			})
		}
	}
	if shuffled {
		r.Shuffle(len(items), func(i, j int) { items[i], items[j] = items[j], items[i] })
	}
	return items
}

// Property: RestoreAll of any checkpoint log, ordered or not, reads back
// exactly like the regroup-sort-Append rebuild it replaced: the same Len,
// Bytes and All, and the same ItemsFor at every cut of every destination.
func TestRestoreAllMatchesReferenceRebuild(t *testing.T) {
	r := rand.New(rand.NewSource(1))
	for round := 0; round < 200; round++ {
		items := randomLogItems(r, round%2 == 1)
		got, want := NewLog(), referenceRestore(items)
		got.Append(item(7, 1, "replaced by the restore"))
		got.RestoreAll(items)
		if got.Len() != want.Len() || got.Bytes() != want.Bytes() {
			t.Fatalf("round %d: Len/Bytes %d/%d, reference %d/%d", round, got.Len(), got.Bytes(), want.Len(), want.Bytes())
		}
		if !reflect.DeepEqual(got.All(), want.All()) {
			t.Fatalf("round %d: All differs from the reference rebuild", round)
		}
		for dest := 0; dest <= 7; dest++ {
			cuts := []int64{-1, 1 << 40}
			if all := want.ItemsFor(dest, -1); len(all) > 0 {
				for k := 0; k < 8; k++ {
					cuts = append(cuts, all[r.Intn(len(all))].SendIndex+int64(r.Intn(3)-1))
				}
			}
			for _, after := range cuts {
				if g, w := got.ItemsFor(dest, after), want.ItemsFor(dest, after); !reflect.DeepEqual(g, w) {
					t.Fatalf("round %d: ItemsFor(%d, %d) has %d items, reference %d", round, dest, after, len(g), len(w))
				}
			}
		}
	}
}

// Ordered input is adopted, not copied: the restored log's items are the
// input's own elements.
func TestRestoreAllAdoptsOrderedInput(t *testing.T) {
	items := randomLogItems(rand.New(rand.NewSource(2)), false)
	l := NewLog()
	l.RestoreAll(items)
	d := l.perDest[items[0].Dest]
	if &d.chunks[0][0] != &items[0] {
		t.Fatal("ordered input was copied, not adopted")
	}
	for _, c := range d.chunks {
		if len(c) != cap(c) || len(c) > logChunkItems {
			t.Fatalf("adopted chunk has len %d cap %d; want clipped views of at most %d", len(c), cap(c), logChunkItems)
		}
	}
}

// Mutation check of the adoption rule: appends behind the adopted items
// and releases into the middle of them — partial chunks included — never
// write into the input, so a staged checkpoint survives any number of
// incarnations restoring it.
func TestRestoreAllLeavesAdoptedInputUntouched(t *testing.T) {
	r := rand.New(rand.NewSource(3))
	for round := 0; round < 50; round++ {
		items := randomLogItems(r, false)
		want := append([]LogItem(nil), items...)
		for i := range want {
			want[i].Piggyback = bytes.Clone(want[i].Piggyback)
			want[i].Payload = bytes.Clone(want[i].Payload)
		}
		for restore := 0; restore < 2; restore++ {
			l := NewLog()
			l.RestoreAll(items)
			for dest := 0; dest < 4; dest++ {
				tail := l.ItemsFor(dest, -1)
				next := int64(1)
				if len(tail) > 0 {
					next = tail[len(tail)-1].SendIndex + 1
					l.Release(dest, tail[r.Intn(len(tail))].SendIndex) // mid-chunk
				}
				for k := 0; k < logChunkItems+3; k++ {
					l.Append(item(dest, next+int64(k), "after the restore"))
				}
				l.Release(dest, next+int64(r.Intn(logChunkItems)))
			}
		}
		if !reflect.DeepEqual(items, want) {
			t.Fatalf("round %d: Append/Release wrote into the adopted input", round)
		}
	}
}

func TestRestoreAllDuplicatePanics(t *testing.T) {
	for name, items := range map[string][]LogItem{
		"ordered":   {item(1, 1, "a"), item(1, 2, "b"), item(1, 2, "dup")},
		"unordered": {item(1, 2, "b"), item(1, 1, "a"), item(1, 2, "dup")},
	} {
		t.Run(name, func(t *testing.T) {
			defer func() {
				if recover() == nil {
					t.Fatal("expected panic on a duplicate send index")
				}
			}()
			NewLog().RestoreAll(items)
		})
	}
}

// Property: for any sequence of appends and releases, ItemsFor(dest, k)
// returns exactly the retained items with index > k, in order, and Len and
// Bytes stay consistent with a naive model.
func TestLogModelProperty(t *testing.T) {
	type op struct {
		release bool
		dest    int
		idx     int64
	}
	cfg := &quick.Config{
		MaxCount: 200,
		Values: func(vals []reflect.Value, r *rand.Rand) {
			n := r.Intn(60)
			ops := make([]op, n)
			next := map[int]int64{}
			for i := range ops {
				dest := r.Intn(3)
				if r.Intn(4) == 0 {
					ops[i] = op{release: true, dest: dest, idx: int64(r.Intn(20))}
				} else {
					next[dest]++
					ops[i] = op{dest: dest, idx: next[dest]}
				}
			}
			vals[0] = reflect.ValueOf(ops)
		},
	}
	f := func(ops []op) bool {
		l := NewLog()
		model := map[int][]int64{} // retained indices per dest
		for _, o := range ops {
			if o.release {
				kept := model[o.dest][:0]
				for _, idx := range model[o.dest] {
					if idx > o.idx {
						kept = append(kept, idx)
					}
				}
				model[o.dest] = kept
				l.Release(o.dest, o.idx)
			} else {
				model[o.dest] = append(model[o.dest], o.idx)
				l.Append(item(o.dest, o.idx, "p"))
			}
		}
		total := 0
		for dest, idxs := range model {
			total += len(idxs)
			got := l.ItemsFor(dest, 0)
			if len(got) != len(idxs) {
				return false
			}
			for i := range idxs {
				if got[i].SendIndex != idxs[i] {
					return false
				}
			}
		}
		return l.Len() == total && l.Bytes() == int64(total)
	}
	if err := quick.Check(f, cfg); err != nil {
		t.Error(err)
	}
}

func TestVerdictString(t *testing.T) {
	if Deliver.String() != "Deliver" || Hold.String() != "Hold" {
		t.Fatal("verdict strings wrong")
	}
	if Verdict(9).String() != "Verdict(?)" {
		t.Fatal("unknown verdict string wrong")
	}
}
