package trace

import (
	"bytes"
	"strings"
	"testing"
)

// rulesOf collects the distinct rule names in problems.
func rulesOf(problems []Problem) map[string]bool {
	out := map[string]bool{}
	for _, p := range problems {
		out[p.Rule] = true
	}
	return out
}

func TestCheckInvariantsCleanTrace(t *testing.T) {
	r := &Recorder{}
	r.OnSend(0, 1, 1, false)
	r.OnDeliver(1, 0, 1, 1, 0)
	r.OnSend(0, 1, 2, false)
	r.OnDeliver(1, 0, 2, 2, 1)
	r.OnCheckpoint(1, 1, 2)
	r.OnSend(0, 1, 3, false)
	r.OnDeliver(1, 0, 3, 3, 2)
	if problems := r.Validate(false); len(problems) > 0 {
		t.Fatalf("clean trace flagged: %v", problems)
	}
}

func TestCheckInvariantsEmptyTrace(t *testing.T) {
	r := &Recorder{}
	if problems := r.Validate(false); len(problems) > 0 {
		t.Fatalf("empty trace flagged: %v", problems)
	}
}

func TestCheckInvariantsFIFOViolation(t *testing.T) {
	r := &Recorder{}
	r.OnDeliver(1, 0, 2, 1, -1)
	r.OnDeliver(1, 0, 1, 2, -1)
	if !rulesOf(r.Validate(false))["fifo-order"] {
		t.Fatalf("out-of-order link delivery not flagged")
	}
}

func TestCheckInvariantsDeliverIndexGap(t *testing.T) {
	r := &Recorder{}
	r.OnDeliver(1, 0, 1, 1, -1)
	r.OnDeliver(1, 0, 2, 3, -1) // skips index 2
	if !rulesOf(r.Validate(false))["deliver-monotonic"] {
		t.Fatalf("deliver-index gap not flagged")
	}
}

func TestCheckInvariantsDemand(t *testing.T) {
	r := &Recorder{}
	r.OnDeliver(1, 0, 1, 1, 0)
	r.OnDeliver(1, 2, 1, 2, 4) // demands 4 prior deliveries, only 1 happened
	problems := r.Validate(false)
	if !rulesOf(problems)["deliver-demand"] {
		t.Fatalf("unsatisfied demand not flagged: %v", problems)
	}
	// A satisfied demand (1 prior delivery, demand 1) is fine.
	r2 := &Recorder{}
	r2.OnDeliver(1, 0, 1, 1, 0)
	r2.OnDeliver(1, 2, 1, 2, 1)
	if problems := r2.Validate(false); len(problems) > 0 {
		t.Fatalf("satisfied demand flagged: %v", problems)
	}
}

func TestCheckInvariantsCheckpointCount(t *testing.T) {
	r := &Recorder{}
	r.OnDeliver(1, 0, 1, 1, -1)
	r.OnCheckpoint(1, 1, 5) // trace replays 1 delivery, checkpoint claims 5
	if !rulesOf(r.Validate(false))["checkpoint-count"] {
		t.Fatalf("checkpoint count drift not flagged")
	}
}

// TestCheckInvariantsRollback exercises the failure semantics: the
// killed rank re-delivers its post-checkpoint messages after recovery
// without tripping FIFO or monotonicity, and a straggler event recorded
// between kill and recover is ignored.
func TestCheckInvariantsRollback(t *testing.T) {
	r := &Recorder{}
	r.OnDeliver(1, 0, 1, 1, 0)
	r.OnCheckpoint(1, 1, 1)
	r.OnDeliver(1, 0, 2, 2, 1) // will be rolled back
	r.OnKill(1)
	r.OnDeliver(1, 0, 3, 3, -1) // dying-incarnation straggler: ignored
	r.OnRecover(1, 1)
	r.OnDeliver(1, 0, 2, 2, 1) // re-delivery during rolling forward
	r.OnDeliver(1, 0, 3, 3, 2)
	r.OnRecoveryComplete(1, 0)
	if problems := r.Validate(false); len(problems) > 0 {
		t.Fatalf("rollback trace flagged: %v", problems)
	}
}

// TestCheckInvariantsRollbackWithoutCheckpoint recovers a rank that
// never checkpointed: its whole history replays from scratch.
func TestCheckInvariantsRollbackWithoutCheckpoint(t *testing.T) {
	r := &Recorder{}
	r.OnDeliver(1, 0, 1, 1, 0)
	r.OnKill(1)
	r.OnRecover(1, 0)
	r.OnDeliver(1, 0, 1, 1, 0)
	r.OnDeliver(1, 0, 2, 2, 1)
	if problems := r.Validate(false); len(problems) > 0 {
		t.Fatalf("from-scratch recovery flagged: %v", problems)
	}
}

// TestRoundTripInterleavedThroughChecker drives an interleaved
// multi-rank trace (two senders, two receivers, one failure) through
// Export -> Import -> Validate and asserts the verdict survives
// serialization in both directions.
func TestRoundTripInterleavedThroughChecker(t *testing.T) {
	build := func(corrupt bool) *Recorder {
		r := &Recorder{}
		r.OnSend(0, 2, 1, false)
		r.OnSend(1, 2, 1, false)
		r.OnDeliver(2, 0, 1, 1, 0)
		r.OnSend(0, 3, 1, false)
		r.OnDeliver(2, 1, 1, 2, 0)
		r.OnDeliver(3, 0, 1, 1, 0)
		r.OnCheckpoint(2, 1, 2)
		r.OnKill(3)
		r.OnRecover(3, 0)
		r.OnDeliver(3, 0, 1, 1, 0)
		if corrupt {
			r.OnDeliver(2, 0, 1, 3, -1) // duplicate send index on link 0->2
		}
		return r
	}
	for _, tc := range []struct {
		name    string
		corrupt bool
	}{{"clean", false}, {"corrupt", true}} {
		t.Run(tc.name, func(t *testing.T) {
			var buf bytes.Buffer
			if err := build(tc.corrupt).Export(&buf); err != nil {
				t.Fatalf("export: %v", err)
			}
			imported, err := Import(&buf)
			if err != nil {
				t.Fatalf("import: %v", err)
			}
			problems := imported.Validate(false)
			if tc.corrupt && !rulesOf(problems)["fifo-order"] {
				t.Fatalf("corruption lost in round trip: %v", problems)
			}
			if !tc.corrupt && len(problems) > 0 {
				t.Fatalf("clean interleaved trace flagged: %v", problems)
			}
		})
	}
}

func TestImportRejectsUnknownKind(t *testing.T) {
	in := strings.NewReader(`{"header":4}
{"kind":"send","rank":0,"peer":1,"sendIndex":1,"seq":0}
{"kind":"teleport","rank":1,"seq":1}
`)
	if _, err := Import(in); err == nil || !strings.Contains(err.Error(), "unknown kind") {
		t.Fatalf("unknown kind accepted: %v", err)
	}
}

func TestImportEmptyLog(t *testing.T) {
	rec, err := Import(strings.NewReader(""))
	if err != nil {
		t.Fatalf("import of empty log: %v", err)
	}
	if rec.Len() != 0 {
		t.Fatalf("empty log produced %d events", rec.Len())
	}
	if problems := rec.Validate(false); len(problems) > 0 {
		t.Fatalf("empty log flagged: %v", problems)
	}
}

// TestImportDefaultsDemand pins the import contract: a deliver event
// without a demand field (Export omits the -1 sentinel) reads back as -1
// (no requirement recorded) rather than 0 (a real, trivially-satisfiable
// demand), and non-deliver events stay at 0.
func TestImportDefaultsDemand(t *testing.T) {
	in := strings.NewReader(`{"header":4}
{"kind":"deliver","rank":1,"peer":0,"sendIndex":1,"deliverIndex":1,"seq":0}
{"kind":"checkpoint","rank":1,"step":1,"count":1,"seq":1}
`)
	rec, err := Import(in)
	if err != nil {
		t.Fatalf("import: %v", err)
	}
	events := rec.Events()
	if events[0].Demand != -1 {
		t.Fatalf("deliver demand = %d, want -1", events[0].Demand)
	}
	if events[1].Demand != 0 {
		t.Fatalf("checkpoint demand = %d, want 0", events[1].Demand)
	}
}

// TestExportDemandRoundTrip covers the demand field both ways: a real
// demand survives, and the -1 sentinel is omitted from the JSON line.
func TestExportDemandRoundTrip(t *testing.T) {
	r := &Recorder{}
	r.OnDeliver(1, 0, 1, 1, 7)
	r.OnDeliver(1, 0, 2, 2, -1)
	var buf bytes.Buffer
	if err := r.Export(&buf); err != nil {
		t.Fatalf("export: %v", err)
	}
	lines := strings.Split(strings.TrimSpace(buf.String()), "\n")[1:] // past the header
	if !strings.Contains(lines[0], `"demand":7`) {
		t.Fatalf("demand not exported: %s", lines[0])
	}
	if strings.Contains(lines[1], "demand") {
		t.Fatalf("-1 demand should be omitted: %s", lines[1])
	}
	imported, err := Import(&buf)
	if err != nil {
		t.Fatalf("import: %v", err)
	}
	events := imported.Events()
	if events[0].Demand != 7 || events[1].Demand != -1 {
		t.Fatalf("demand round trip: got %d, %d", events[0].Demand, events[1].Demand)
	}
}

// TestRollbackResponsePaired is the clean case for the pairing rule: a
// ROLLBACK expecting two RESPONSEs gets both and completes.
func TestRollbackResponsePaired(t *testing.T) {
	r := &Recorder{}
	r.OnKill(1)
	r.OnRecover(1, 0)
	r.OnRollback(1, 2)
	r.OnResponse(1, 0)
	r.OnResponse(1, 2)
	r.OnRecoveryComplete(1, 0)
	if problems := r.Validate(false); len(problems) > 0 {
		t.Fatalf("paired rollback flagged: %v", problems)
	}
}

// TestRollbackResponseMissing flags a collection phase that would have
// hung: two RESPONSEs expected, one arrived, recovery never completed.
func TestRollbackResponseMissing(t *testing.T) {
	r := &Recorder{}
	r.OnKill(1)
	r.OnRecover(1, 0)
	r.OnRollback(1, 2)
	r.OnResponse(1, 0)
	if !rulesOf(r.Validate(false))["rollback-response"] {
		t.Fatalf("unpaired rollback not flagged")
	}
}

// TestRollbackResponseCompletedExempt pins the completion exemption: a
// recovery that completed (late responses may still be in flight when
// the trace ends) is never a violation, whatever the response count.
func TestRollbackResponseCompletedExempt(t *testing.T) {
	r := &Recorder{}
	r.OnKill(1)
	r.OnRecover(1, 0)
	r.OnRollback(1, 2)
	r.OnResponse(1, 0)
	r.OnRecoveryComplete(1, 0)
	if problems := r.Validate(false); len(problems) > 0 {
		t.Fatalf("completed recovery flagged: %v", problems)
	}
}

// TestRollbackResponseDeadResponderStaysOwed pins that a death never
// shrinks a collection: a responder that dies before answering is still
// owed, whether it died before the broadcast or after it, until it
// revives and answers — or until the recovery completes.
func TestRollbackResponseDeadResponderStaysOwed(t *testing.T) {
	r := &Recorder{}
	r.OnKill(2) // dead before the broadcast
	r.OnKill(1)
	r.OnRecover(1, 0)
	r.OnRollback(1, 3)
	r.OnResponse(1, 0)
	r.OnKill(3) // dies after the broadcast, before answering
	if !rulesOf(r.Validate(false))["rollback-response"] {
		t.Fatal("a collection still owed by two dead responders passed")
	}
	r.OnRecover(2, 0)
	r.OnResponse(1, 2) // revived, answers
	if !rulesOf(r.Validate(false))["rollback-response"] {
		t.Fatal("a collection still owed by one dead responder passed")
	}
	r.OnRecover(3, 0)
	r.OnResponse(1, 3)
	if problems := r.Validate(false); len(problems) > 0 {
		t.Fatalf("a collection every peer answered was flagged: %v", problems)
	}

	r = &Recorder{}
	r.OnKill(1)
	r.OnRecover(1, 0)
	r.OnRollback(1, 2)
	r.OnKill(2)
	r.OnRecoveryComplete(1, 0)
	if problems := r.Validate(false); len(problems) > 0 {
		t.Fatalf("a completed recovery owed by a dead responder was flagged: %v", problems)
	}
}

// TestRollbackResponseSupersededByKill pins that a recoverer crashing
// mid-collection discards its pending audit: the next incarnation's
// fresh ROLLBACK is the one that must pair.
func TestRollbackResponseSupersededByKill(t *testing.T) {
	r := &Recorder{}
	r.OnKill(1)
	r.OnRecover(1, 0)
	r.OnRollback(1, 2)
	r.OnKill(1) // crashes mid-collection
	r.OnRecover(1, 0)
	r.OnRollback(1, 2)
	r.OnResponse(1, 0)
	r.OnResponse(1, 2)
	r.OnRecoveryComplete(1, 0)
	if problems := r.Validate(false); len(problems) > 0 {
		t.Fatalf("superseded rollback flagged: %v", problems)
	}
}

// TestRollbackResponseRoundTrip drives the v3 kinds through Export ->
// Import and asserts the pairing verdict survives serialization.
func TestRollbackResponseRoundTrip(t *testing.T) {
	r := &Recorder{}
	r.OnKill(1)
	r.OnRecover(1, 0)
	r.OnRollback(1, 2)
	r.OnResponse(1, 0)
	r.OnIngestRejected(1, "response")
	var buf bytes.Buffer
	if err := r.Export(&buf); err != nil {
		t.Fatalf("export: %v", err)
	}
	imported, err := Import(&buf)
	if err != nil {
		t.Fatalf("import: %v", err)
	}
	if !rulesOf(imported.Validate(false))["rollback-response"] {
		t.Fatalf("pairing verdict lost in round trip")
	}
	events := imported.Events()
	last := events[len(events)-1]
	if last.Kind != EvIngestRejected || last.Phase != "response" {
		t.Fatalf("ingest-rejected event lost: %+v", last)
	}
}
