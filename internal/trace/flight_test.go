package trace

import (
	"bytes"
	"os"
	"path/filepath"
	"testing"
)

// feedFlight records a little traffic into the flight ring.
func feedFlight(r *Recorder) {
	r.SetTransport("mem")
	for i := int64(1); i <= 10; i++ {
		r.OnSend(0, 1, i, false)
		r.OnDeliver(1, 0, i, i, 0)
	}
	r.OnKill(1)
}

func TestFlightDumpRoundTrip(t *testing.T) {
	dir := filepath.Join(t.TempDir(), "flight") // WriteFile creates it
	f := NewBounded(1024)
	feedFlight(f)

	path := filepath.Join(dir, "flight-sigterm.jsonl")
	if err := f.WriteFile(path); err != nil {
		t.Fatalf("WriteFile: %v", err)
	}
	data, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	rec, err := Import(bytes.NewReader(data))
	if err != nil {
		t.Fatalf("Import of dump: %v", err)
	}
	if rec.Len() != f.Len() || rec.Transport() != "mem" {
		t.Fatalf("dump round trip lost events: %d vs %d", rec.Len(), f.Len())
	}

	// A second dump into the same directory never clobbers the first.
	f.OnRecover(1, 0)
	if err := f.WriteFile(filepath.Join(dir, "flight-manual.jsonl")); err != nil {
		t.Fatalf("second WriteFile: %v", err)
	}
	if again, err := os.ReadFile(path); err != nil || !bytes.Equal(again, data) {
		t.Fatalf("second dump changed the first (err %v)", err)
	}
}

func TestFlightSnapshotMatchesDump(t *testing.T) {
	f := &Recorder{}
	feedFlight(f)
	var snap bytes.Buffer
	if err := f.Export(&snap); err != nil {
		t.Fatalf("Export: %v", err)
	}
	path := filepath.Join(t.TempDir(), "x.jsonl")
	if err := f.WriteFile(path); err != nil {
		t.Fatalf("WriteFile: %v", err)
	}
	data, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(snap.Bytes(), data) {
		t.Fatal("/debug/flight snapshot and WriteFile disagree for an unchanged ring")
	}
}

// TestFlightBoundedKeepsValidation pins the flight ring's core promise:
// even after evictions, the dumped window imports cleanly, the drop
// count survives the round trip and the imported window validates as
// the ring does.
func TestFlightBoundedKeepsValidation(t *testing.T) {
	f := NewBounded(8)
	feedFlight(f) // 21 events into an 8-slot ring
	if f.Dropped() == 0 {
		t.Fatal("ring never evicted; capacity not applied")
	}
	path := filepath.Join(t.TempDir(), "full.jsonl")
	if err := f.WriteFile(path); err != nil {
		t.Fatalf("WriteFile: %v", err)
	}
	file, err := os.Open(path)
	if err != nil {
		t.Fatal(err)
	}
	defer file.Close()
	rec, err := Import(file)
	if err != nil {
		t.Fatalf("Import: %v", err)
	}
	if rec.Dropped() != f.Dropped() {
		t.Fatalf("drop count lost: %d vs %d", rec.Dropped(), f.Dropped())
	}
	if got, want := problemSet(rec.Validate(false)), problemSet(f.Validate(false)); len(got) != 0 || len(want) != 0 {
		t.Fatalf("window flagged: imported %v, ring %v", got, want)
	}
}
