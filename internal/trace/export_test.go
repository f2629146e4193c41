package trace

import (
	"bytes"
	"reflect"
	"strings"
	"testing"
	"time"
)

func sampleRecorder() *Recorder {
	var r Recorder
	r.OnSend(0, 1, 1, false)
	r.OnDeliver(1, 0, 1, 1, -1)
	r.OnCheckpoint(1, 5, 1)
	r.OnKill(1)
	r.OnRecover(1, 5)
	r.OnSend(0, 1, 1, true)
	r.OnRecoveryPhase(1, "collect-demands", 250*time.Microsecond)
	r.OnRecoveryPhase(1, "roll-forward", time.Millisecond)
	r.OnRecoveryComplete(1, time.Millisecond)
	return &r
}

func TestExportImportRoundTrip(t *testing.T) {
	r := sampleRecorder()
	var buf bytes.Buffer
	if err := r.Export(&buf); err != nil {
		t.Fatal(err)
	}
	got, err := Import(&buf)
	if err != nil {
		t.Fatal(err)
	}
	a, b := r.Events(), got.Events()
	if !reflect.DeepEqual(a, b) {
		t.Fatalf("round trip mismatch:\n%v\n%v", a, b)
	}
}

func TestTransportHeaderRoundTrip(t *testing.T) {
	r := sampleRecorder()
	r.SetTransport("tcp")
	var buf bytes.Buffer
	if err := r.Export(&buf); err != nil {
		t.Fatal(err)
	}
	if !strings.HasPrefix(buf.String(), `{"header":4,"transport":"tcp"}`) {
		t.Fatalf("missing header line:\n%s", buf.String())
	}
	got, err := Import(&buf)
	if err != nil {
		t.Fatal(err)
	}
	if got.Transport() != "tcp" {
		t.Fatalf("Transport = %q after round trip", got.Transport())
	}
	if !reflect.DeepEqual(r.Events(), got.Events()) {
		t.Fatal("events diverged under header")
	}
}

func TestImportHeaderlessTrace(t *testing.T) {
	// Every export starts with the version header, even from an
	// unstamped recorder, and a file without one is rejected.
	r := sampleRecorder()
	var buf bytes.Buffer
	if err := r.Export(&buf); err != nil {
		t.Fatal(err)
	}
	header, events, _ := strings.Cut(buf.String(), "\n")
	if header != `{"header":4}` {
		t.Fatalf("unstamped recorder's header line = %q", header)
	}
	if _, err := Import(strings.NewReader(events)); err == nil {
		t.Fatal("headerless trace accepted")
	}
}

func TestImportRejectsBadHeaders(t *testing.T) {
	event := `{"kind":"send","rank":0,"peer":1,"sendIndex":1,"seq":0}`
	for _, in := range []string{
		`{"header":99,"transport":"mem"}`,               // future version
		`{"header":1,"transport":"mem"}` + "\n" + event, // older versions are not read
		`{"header":3}` + "\n" + event,
		event + "\n" + `{"header":4,"transport":"mem"}`,                  // header not first
		`{"header":4}` + "\n" + event + "\n" + `{"header":4}`,            // second header
		`{"header":4,"digest":{"ranks":{"0":null}}}`,                     // digest rank without state
		`{"header":4,"digest":{"ranks":{"1":{"committed":{"0":null}}}}}`, // channel without state
	} {
		if _, err := Import(strings.NewReader(in)); err == nil {
			t.Errorf("accepted:\n%s", in)
		}
	}
}

func TestImportRejectsGarbage(t *testing.T) {
	if _, err := Import(strings.NewReader("not json")); err == nil {
		t.Fatal("garbage accepted")
	}
	if _, err := Import(strings.NewReader(`{"header":4}` + "\n" + `{"kind":"martian","rank":0,"seq":0}`)); err == nil {
		t.Fatal("unknown kind accepted")
	}
}

func TestImportEmpty(t *testing.T) {
	rec, err := Import(strings.NewReader(""))
	if err != nil {
		t.Fatal(err)
	}
	if rec.Len() != 0 {
		t.Fatalf("Len = %d", rec.Len())
	}
}

func TestValidateSurvivesRoundTrip(t *testing.T) {
	// Validation results must be identical on an imported trace.
	r := sampleRecorder()
	var buf bytes.Buffer
	if err := r.Export(&buf); err != nil {
		t.Fatal(err)
	}
	imported, err := Import(&buf)
	if err != nil {
		t.Fatal(err)
	}
	if a, b := r.Validate(true), imported.Validate(true); len(a) != len(b) {
		t.Fatalf("validation differs after round trip: %v vs %v", a, b)
	}
}

func TestSummarize(t *testing.T) {
	r := sampleRecorder()
	sums := r.Summarize()
	if len(sums) != 2 {
		t.Fatalf("summaries: %+v", sums)
	}
	if sums[0].Rank != 0 || sums[0].Sends != 1 || sums[0].Resends != 1 {
		t.Fatalf("rank 0 summary: %+v", sums[0])
	}
	if sums[1].Rank != 1 || sums[1].Deliveries != 1 || sums[1].Checkpoints != 1 ||
		sums[1].Kills != 1 || sums[1].Recoveries != 1 {
		t.Fatalf("rank 1 summary: %+v", sums[1])
	}
	out := FormatSummaries(sums)
	if !strings.Contains(out, "deliveries") || !strings.Contains(out, "1") {
		t.Fatalf("formatted:\n%s", out)
	}
}

func TestEventKindString(t *testing.T) {
	if EvSend.String() != "send" || EvRecoveryComplete.String() != "recovery-complete" {
		t.Fatal("kind names")
	}
	if !strings.Contains(EventKind(99).String(), "99") {
		t.Fatal("unknown kind name")
	}
}
