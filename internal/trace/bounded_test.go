package trace

import (
	"bytes"
	"fmt"
	"sort"
	"strings"
	"testing"
)

// replayScript drives the same observer-call sequence into any
// recorder. The script exercises every validation rule: clean FIFO
// traffic, checkpoint/kill/recover rollback with replay, a duplicate
// surviving recovery, a FIFO inversion, a lost message, a delivery gap
// (right count, wrong set), a checkpoint-count mismatch, a
// deliver-monotonic skip, an unmet delivery demand, and an unanswered
// ROLLBACK.
func replayScript(r *Recorder) {
	// Rank 0 -> 1: clean contiguous traffic across a checkpoint.
	for i := int64(1); i <= 6; i++ {
		r.OnSend(0, 1, i, false)
		r.OnDeliver(1, 0, i, i, -1)
		if i == 3 {
			r.OnCheckpoint(1, 1, 3)
		}
	}
	// Rank 1 dies after delivering past its checkpoint; the
	// incarnation re-delivers 4..6 (legitimate replay, not dups).
	r.OnKill(1)
	r.OnRecover(1, 1)
	for i := int64(4); i <= 6; i++ {
		r.OnSend(0, 1, i, true)
		r.OnDeliver(1, 0, i, int64(3)+i-3, -1)
	}
	// Bug: rank 1 re-delivers checkpointed message 2 (duplicate that
	// survives recovery, FIFO inversion, monotonic skip in one).
	r.OnDeliver(1, 0, 2, 9, -1)
	// Rank 2 -> 3: a send that is never delivered (loss).
	r.OnSend(2, 3, 1, false)
	// Rank 3 -> 2: right delivery count but a gap in the set.
	r.OnSend(3, 2, 1, false)
	r.OnSend(3, 2, 2, false)
	r.OnDeliver(2, 3, 2, 1, -1)
	r.OnDeliver(2, 3, 2, 2, -1)
	// Rank 4: checkpoint count disagrees with replayed deliveries.
	r.OnCheckpoint(4, 1, 7)
	// Rank 5: delivery demanding more prior deliveries than happened.
	r.OnSend(0, 5, 1, false)
	r.OnDeliver(5, 0, 1, 1, 3)
	// Rank 6: a recovery whose ROLLBACK one of two peers never answers.
	r.OnKill(6)
	r.OnRecover(6, 0)
	r.OnRollback(6, 2)
	r.OnResponse(6, 0)
}

func problemSet(ps []Problem) []string {
	out := make([]string, len(ps))
	for i, p := range ps {
		out[i] = p.String()
	}
	sort.Strings(out)
	return out
}

func TestBoundedValidationMatchesUnbounded(t *testing.T) {
	var full Recorder
	replayScript(&full)
	total := full.Len()
	for _, capacity := range []int{1, 2, 3, 7, 16, total, total + 10} {
		bounded := NewBounded(capacity)
		replayScript(bounded)
		if bounded.Len() > capacity {
			t.Fatalf("cap %d: retained %d events", capacity, bounded.Len())
		}
		if got, want := bounded.Len()+bounded.Dropped(), total; got != want {
			t.Fatalf("cap %d: retained+dropped = %d, want %d", capacity, got, want)
		}
		// The export carries the digest, so the violations evicted into
		// it are still reported after a round trip.
		imported := roundTrip(t, bounded)
		for _, finished := range []bool{false, true} {
			want := problemSet(full.Validate(finished))
			got := problemSet(bounded.Validate(finished))
			if fmt.Sprint(got) != fmt.Sprint(want) {
				t.Fatalf("cap %d Validate(%v):\n got %v\nwant %v", capacity, finished, got, want)
			}
			if got := problemSet(imported.Validate(finished)); fmt.Sprint(got) != fmt.Sprint(want) {
				t.Fatalf("cap %d Validate(%v) after round trip:\n got %v\nwant %v", capacity, finished, got, want)
			}
		}
	}
	// The script must actually trip every rule, or the equivalence
	// above proves nothing.
	all := full.Validate(true)
	for _, rule := range []string{
		"fifo-order", "deliver-monotonic", "deliver-demand", "checkpoint-count",
		"no-duplicate", "rollback-response", "no-loss",
	} {
		if !hasRule(all, rule) {
			t.Fatalf("script never trips %s: %v", rule, all)
		}
	}
}

func TestBoundedValidateIdempotent(t *testing.T) {
	r := NewBounded(4)
	replayScript(r)
	first := problemSet(r.Validate(true))
	second := problemSet(r.Validate(true))
	if fmt.Sprint(first) != fmt.Sprint(second) {
		t.Fatalf("Validate mutated bounded state:\n%v\n%v", first, second)
	}
}

func TestBoundedRingRetainsNewestWithSeq(t *testing.T) {
	r := NewBounded(3)
	for i := int64(1); i <= 10; i++ {
		r.OnSend(0, 1, i, false)
	}
	if r.Len() != 3 || r.Dropped() != 7 {
		t.Fatalf("Len=%d Dropped=%d", r.Len(), r.Dropped())
	}
	evs := r.Events()
	for i, e := range evs {
		if e.SendIndex != int64(8+i) || e.Seq != 7+i {
			t.Fatalf("event %d = %+v", i, e)
		}
	}
}

func TestBoundedExportImportKeepsDropped(t *testing.T) {
	r := NewBounded(2)
	r.SetTransport("mem")
	for i := int64(1); i <= 5; i++ {
		r.OnSend(0, 1, i, false)
	}
	var buf bytes.Buffer
	if err := r.Export(&buf); err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(buf.String(), `"dropped":3`) {
		t.Fatalf("header missing dropped count:\n%s", buf.String())
	}
	got, err := Import(&buf)
	if err != nil {
		t.Fatal(err)
	}
	if got.Dropped() != 3 {
		t.Fatalf("Dropped = %d after import", got.Dropped())
	}
	if evs := got.Events(); len(evs) != 2 || evs[0].Seq != 3 || evs[1].Seq != 4 {
		t.Fatalf("imported events: %+v", evs)
	}
}

func TestBoundedExportHeaderWithoutTransport(t *testing.T) {
	// Eviction alone forces a header so the dropped count and the
	// digest of the evicted event survive.
	r := NewBounded(1)
	r.OnSend(0, 1, 1, false)
	r.OnSend(0, 1, 2, false)
	var buf bytes.Buffer
	if err := r.Export(&buf); err != nil {
		t.Fatal(err)
	}
	if !strings.HasPrefix(buf.String(), `{"header":4,"dropped":1,"digest":`) {
		t.Fatalf("missing header:\n%s", buf.String())
	}
}

func TestNewBoundedRejectsBadCapacity(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("NewBounded(0) did not panic")
		}
	}()
	NewBounded(0)
}

// FuzzImportValidate feeds hostile trace files through Import and the
// checker: an input either fails Import or yields a recorder whose
// Validate returns, and replaying its events through a capacity-1
// bounded recorder that starts from the imported digest (every event
// but the last evicted into it) gives the same problems as the
// unbounded recorder.
func FuzzImportValidate(f *testing.F) {
	var script Recorder
	replayScript(&script)
	var buf bytes.Buffer
	if err := script.Export(&buf); err != nil {
		f.Fatal(err)
	}
	f.Add(buf.Bytes())
	window := NewBounded(5)
	replayScript(window)
	buf.Reset()
	if err := window.Export(&buf); err != nil {
		f.Fatal(err)
	}
	f.Add(buf.Bytes())
	// A digest whose maps JSON left out: Import must fill them in.
	f.Add([]byte(`{"header":4,"dropped":2,"digest":{"ranks":{"1":{"cur":{},"ckpt":{},"rollback":{"seq":1,"expect":2}}}}}` + "\n" +
		`{"kind":"deliver","rank":1,"peer":0,"sendIndex":1,"deliverIndex":1,"seq":2}` + "\n" +
		`{"kind":"response","rank":1,"peer":0,"seq":3}` + "\n" +
		`{"kind":"checkpoint","rank":1,"step":1,"count":1,"seq":4}` + "\n"))
	f.Add([]byte(`{"header":4,"dropped":3}` + "\n" +
		`{"kind":"deliver","rank":1,"peer":0,"sendIndex":-2,"deliverIndex":9,"demand":99,"seq":3}` + "\n"))
	f.Fuzz(func(t *testing.T, data []byte) {
		rec, err := Import(bytes.NewReader(data))
		if err != nil {
			return
		}
		bounded := NewBounded(1)
		bounded.seq = rec.Dropped() // keep the Seq numbers problem details cite
		if rec.digest != nil {
			bounded.digest = rec.digest.clone()
		}
		for _, e := range rec.Events() {
			bounded.add(e)
		}
		for _, finished := range []bool{false, true} {
			want := problemSet(rec.Validate(finished))
			if got := problemSet(bounded.Validate(finished)); fmt.Sprint(got) != fmt.Sprint(want) {
				t.Fatalf("Validate(%v): bounded\n%v\nunbounded\n%v", finished, got, want)
			}
		}
	})
}
