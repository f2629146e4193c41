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

// viewItems decodes every record of v, checking each run's bookkeeping
// against its records.
func viewItems(t testing.TB, v LogView) []LogItem {
	t.Helper()
	var out []LogItem
	for i, r := range v.Runs {
		n := 0
		for b := r.Recs; len(b) > 0; n++ {
			var it LogItem
			size, err := DecodeLogItem(&it, b)
			if err != nil || it.Dest != r.Dest {
				t.Fatalf("run %d (dest %d): record %d: %v, dest %d", i, r.Dest, n, err, it.Dest)
			}
			out = append(out, it)
			b = b[size:]
		}
		if n != r.N || (n > 0 && out[len(out)-1].SendIndex != r.Last) {
			t.Fatalf("run %d: %d records ending at %d, run says %d ending at %d", i, n, out[len(out)-1].SendIndex, r.N, r.Last)
		}
	}
	if len(out) != v.Count {
		t.Fatalf("view holds %d records, Count says %d", len(out), v.Count)
	}
	return out
}

func TestAppendReturnsTheRecord(t *testing.T) {
	l := NewLog()
	it := LogItem{Dest: 2, SendIndex: 5, Tag: 3, Piggyback: []byte{1, 2}, Payload: []byte("abc")}
	rec := l.Append(it)
	if !bytes.Equal(rec, AppendLogItem(nil, &it)) || cap(rec) != len(rec) {
		t.Fatalf("Append returned %x (cap %d), want the item's record", rec, cap(rec))
	}
	if got := viewItems(t, l.View()); !reflect.DeepEqual(got, []LogItem{it}) {
		t.Fatalf("log holds %+v", got)
	}
}

func TestViewAndAdoptRoundTrip(t *testing.T) {
	l := NewLog()
	l.Append(item(2, 1, "c"))
	l.Append(item(2, 2, "d"))
	l.Append(item(0, 1, "a"))

	v := l.View()
	all := viewItems(t, v)
	if len(all) != 3 {
		t.Fatalf("View = %v", all)
	}
	if all[0].Dest != 0 || all[1].Dest != 2 || all[1].SendIndex != 1 {
		t.Fatalf("View ordering wrong: %v", all)
	}

	restored := NewLog()
	restored.Adopt(v)
	if got := viewItems(t, restored.View()); !reflect.DeepEqual(got, all) {
		t.Fatalf("restore mismatch: %v vs %v", got, all)
	}
	if restored.Len() != l.Len() {
		t.Fatalf("restore accounting mismatch")
	}
}

// referenceRebuild is the restore Adopt replaces: sort and Append every
// item into fresh chunks.
func referenceRebuild(items []LogItem) *Log {
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
// shuffled, the items come in (Dest, SendIndex) order, as View emits them.
func randomLogItems(r *rand.Rand, shuffled bool) []LogItem {
	var items []LogItem
	for dest := 0; dest < 4; dest++ {
		if r.Intn(4) == 0 {
			continue
		}
		idx := int64(r.Intn(50))
		for n := r.Intn(1500); n > 0; n-- {
			idx += 1 + int64(r.Intn(3))
			items = append(items, LogItem{
				Dest: dest, SendIndex: idx, Tag: int32(r.Intn(9)),
				Piggyback: make([]byte, r.Intn(6)), Payload: append([]byte{byte(idx), byte(dest)}, make([]byte, r.Intn(40))...),
			})
		}
	}
	if shuffled {
		r.Shuffle(len(items), func(i, j int) { items[i], items[j] = items[j], items[i] })
	}
	return items
}

// encodeItems is a checkpoint's log section for items: their records
// back to back.
func encodeItems(items []LogItem) []byte {
	var b []byte
	for i := range items {
		b = AppendLogItem(b, &items[i])
	}
	return b
}

// Property: adopting a log's view, or a view parsed from the same items'
// encoding, reads back exactly like the sort-and-Append rebuild: the same
// Len and records, and the same ItemsFor at every cut of every
// destination.
func TestAdoptMatchesReferenceRebuild(t *testing.T) {
	r := rand.New(rand.NewSource(1))
	for round := 0; round < 60; round++ {
		items := randomLogItems(r, false)
		want := referenceRebuild(items)
		parsed, err := ParseLogView(encodeItems(items), len(items))
		if err != nil {
			t.Fatalf("round %d: %v", round, err)
		}
		for name, v := range map[string]LogView{"view": want.View(), "parsed": parsed} {
			got := NewLog()
			got.Append(item(7, 1, "replaced by the restore"))
			got.Adopt(v)
			if got.Len() != want.Len() {
				t.Fatalf("round %d %s: Len %d, reference %d", round, name, got.Len(), want.Len())
			}
			if !reflect.DeepEqual(viewItems(t, got.View()), viewItems(t, want.View())) {
				t.Fatalf("round %d %s: records differ from the reference rebuild", round, name)
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
						t.Fatalf("round %d %s: ItemsFor(%d, %d) has %d items, reference %d", round, name, dest, after, len(g), len(w))
					}
				}
			}
		}
	}
}

// A view is adopted, not copied: the restored log's chunks are the view's
// own bytes, with no spare capacity to append into.
func TestAdoptUsesViewInPlace(t *testing.T) {
	items := randomLogItems(rand.New(rand.NewSource(2)), false)
	v, err := ParseLogView(encodeItems(items), len(items))
	if err != nil {
		t.Fatal(err)
	}
	l := NewLog()
	l.Adopt(v)
	got := l.View()
	if len(got.Runs) != len(v.Runs) {
		t.Fatalf("adopted %d runs, view has %d", len(got.Runs), len(v.Runs))
	}
	for i, r := range got.Runs {
		if &r.Recs[0] != &v.Runs[i].Recs[0] || len(r.Recs) != len(v.Runs[i].Recs) {
			t.Fatalf("run %d was copied, not adopted", i)
		}
		if len(r.Recs) != cap(r.Recs) {
			t.Fatalf("adopted run %d has len %d cap %d; want a clipped view", i, len(r.Recs), cap(r.Recs))
		}
	}
}

// cloneView deep-copies v, record bytes included.
func cloneView(v LogView) LogView {
	out := LogView{Count: v.Count, Runs: append([]LogRun(nil), v.Runs...)}
	for i := range out.Runs {
		out.Runs[i].Recs = bytes.Clone(out.Runs[i].Recs)
	}
	return out
}

// Mutation check of the adoption rule: appends behind the adopted records
// and releases into the middle of them — partial chunks included — never
// write into the view, so a staged checkpoint survives any number of
// incarnations restoring it. Taking a view of the adopting log and
// appending behind that must not disturb it either.
func TestAdoptLeavesViewUntouched(t *testing.T) {
	r := rand.New(rand.NewSource(3))
	for round := 0; round < 50; round++ {
		src := referenceRebuild(randomLogItems(r, false))
		v := src.View()
		want := cloneView(v)
		var later, laterWant LogView
		for restore := 0; restore < 2; restore++ {
			l := NewLog()
			l.Adopt(v)
			for dest := 0; dest < 4; dest++ {
				tail := l.ItemsFor(dest, -1)
				next := int64(1)
				if len(tail) > 0 {
					next = tail[len(tail)-1].SendIndex + 1
					l.Release(dest, tail[r.Intn(len(tail))].SendIndex) // mid-chunk
				}
				for k := 0; k < 600; k++ {
					l.Append(item(dest, next+int64(k), "after the restore"))
				}
				if restore == 0 && dest == 1 {
					later = l.View()
					laterWant = cloneView(later)
				}
				l.Release(dest, next+int64(r.Intn(1200))) // mid-chunk, or every record so far
				for k := 600; k < 1300; k++ {
					l.Append(item(dest, next+int64(k), "after the view"))
				}
			}
		}
		if !reflect.DeepEqual(v, want) {
			t.Fatalf("round %d: Append/Release wrote into the adopted view", round)
		}
		if !reflect.DeepEqual(later, laterWant) {
			t.Fatalf("round %d: a view taken after the restore changed", round)
		}
	}
}

// ParseLogView is a checkpoint's only gate: out-of-order or duplicate
// items — which Adopt would trust — are an error, not a panic later.
func TestParseLogViewRejectsDisorder(t *testing.T) {
	for name, items := range map[string][]LogItem{
		"duplicate":           {item(1, 1, "a"), item(1, 2, "b"), item(1, 2, "dup")},
		"unordered_duplicate": {item(1, 2, "b"), item(1, 1, "a"), item(1, 2, "dup")},
		"unordered":           {item(1, 3, "c"), item(1, 1, "a"), item(1, 2, "b")},
		"dest_order":          {item(2, 1, "a"), item(1, 2, "b")},
	} {
		t.Run(name, func(t *testing.T) {
			if _, err := ParseLogView(encodeItems(items), len(items)); err == nil {
				t.Fatal("disordered log section accepted")
			}
		})
	}
	ok := []LogItem{item(1, 1, "a"), item(1, 2, "b"), item(3, 1, "c")}
	b := encodeItems(ok)
	if _, err := ParseLogView(b, len(ok)); err != nil {
		t.Fatalf("ordered section: %v", err)
	}
	if _, err := ParseLogView(b, len(ok)-1); err == nil {
		t.Fatal("trailing record accepted")
	}
	if _, err := ParseLogView(b, len(ok)+1); err == nil {
		t.Fatal("missing record accepted")
	}
}

// Property: for any interleaving of appends, releases and restores from
// a view, the log holds exactly what a plain []LogItem model holds:
// ItemsFor(dest, k) returns the retained items with index > k, in order,
// byte fields included, and Len agrees. Payloads vary up to beyond the
// chunk size, so appends cross chunk boundaries and open oversize chunks.
func TestLogModelProperty(t *testing.T) {
	type op struct {
		kind int // 0 append, 1 release, 2 view and adopt
		it   LogItem
	}
	cfg := &quick.Config{
		MaxCount: 200,
		Values: func(vals []reflect.Value, r *rand.Rand) {
			n := r.Intn(80)
			ops := make([]op, n)
			next := map[int]int64{}
			for i := range ops {
				dest := r.Intn(3)
				switch k := r.Intn(8); {
				case k == 0:
					ops[i] = op{kind: 1, it: LogItem{Dest: dest, SendIndex: int64(r.Intn(40))}}
				case k == 1:
					ops[i] = op{kind: 2}
				default:
					next[dest] += 1 + int64(r.Intn(2))
					size := r.Intn(12)
					if r.Intn(6) == 0 {
						size = r.Intn(logChunkBytes * 5 / 4)
					}
					var payload []byte // nil when empty, as decoding returns it
					if size > 0 {
						payload = make([]byte, size)
						r.Read(payload)
					}
					ops[i] = op{it: LogItem{Dest: dest, SendIndex: next[dest], Tag: int32(i), Piggyback: []byte{byte(i)}, Payload: payload}}
				}
			}
			vals[0] = reflect.ValueOf(ops)
		},
	}
	f := func(ops []op) bool {
		l := NewLog()
		model := map[int][]LogItem{}
		for _, o := range ops {
			switch o.kind {
			case 0:
				model[o.it.Dest] = append(model[o.it.Dest], o.it)
				l.Append(o.it)
			case 1:
				kept := []LogItem(nil)
				for _, it := range model[o.it.Dest] {
					if it.SendIndex > o.it.SendIndex {
						kept = append(kept, it)
					}
				}
				model[o.it.Dest] = kept
				l.Release(o.it.Dest, o.it.SendIndex)
			case 2:
				v := l.View()
				l = NewLog()
				l.Adopt(v)
			}
		}
		total := 0
		for dest := 0; dest < 3; dest++ {
			want := model[dest]
			total += len(want)
			got := l.ItemsFor(dest, 0)
			if len(got) != len(want) {
				return false
			}
			for i := range want {
				if !reflect.DeepEqual(got[i], want[i]) {
					return false
				}
			}
		}
		return l.Len() == total && l.View().Count == total
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
