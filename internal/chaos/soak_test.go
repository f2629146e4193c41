package chaos

import (
	"strings"
	"testing"
	"time"

	"windar/internal/harness"
	"windar/internal/transport"
)

// testTransports lists the substrates every acceptance schedule must
// pass on. Short mode keeps only mem.
func testTransports(t *testing.T) []transport.Kind {
	if testing.Short() {
		return []transport.Kind{transport.Mem}
	}
	return []transport.Kind{transport.Mem, transport.TCP}
}

// runAccept executes one handwritten schedule on every transport and
// requires a clean trace plus the fault-free final state.
func runAccept(t *testing.T, text string, procs int, protocols []harness.ProtocolKind) {
	t.Helper()
	sched, err := Parse(text)
	if err != nil {
		t.Fatalf("Parse: %v", err)
	}
	for _, p := range protocols {
		for _, tk := range testTransports(t) {
			p, tk := p, tk
			t.Run(string(p)+"/"+tk, func(t *testing.T) {
				t.Parallel()
				ro := RunOptions{Schedule: sched, Transport: tk, Procs: procs, Protocol: p, Seed: 12345}
				base, err := Baseline(ro)
				if err != nil {
					t.Fatalf("Baseline: %v", err)
				}
				res, err := RunSchedule(ro)
				if err != nil {
					t.Fatalf("RunSchedule: %v", err)
				}
				for _, pr := range res.Problems {
					t.Errorf("trace problem: %v", pr)
				}
				if err := sameStates(base, res.States); err != nil {
					t.Errorf("state diverged from baseline: %v", err)
				}
				if t.Failed() {
					t.Logf("action log:\n%s", strings.Join(res.Log, "\n"))
				}
			})
		}
	}
}

// TestTwoSimultaneousFailures is the headline acceptance schedule: two
// ranks dead at once, recovering concurrently, on both transports.
func TestTwoSimultaneousFailures(t *testing.T) {
	runAccept(t, `
		kill 1 @2ms
		kill 2 @3ms
		recover 1 @8ms
		recover 2 @9ms
	`, 4, []harness.ProtocolKind{harness.TDI, harness.TAG, harness.TEL})
}

// TestThreeOverlappingFailures layers a third failure over an ongoing
// double recovery.
func TestThreeOverlappingFailures(t *testing.T) {
	runAccept(t, `
		kill 1 @2ms
		kill 3 @3ms
		recover 1 @7ms
		kill 2 @8ms
		recover 3 @11ms
		recover 2 @14ms
	`, 5, []harness.ProtocolKind{harness.TDI})
}

// TestKillResponderDuringCollect crashes a responder while the
// recoverer's ROLLBACK is being answered: the recoverer must shrink its
// expectation instead of waiting forever for the dead peer's RESPONSE.
func TestKillResponderDuringCollect(t *testing.T) {
	runAccept(t, `
		kill 1 @2ms
		recover 1 @5ms
		kill 2 phase(1 rollback)
		recover 2 @40ms
	`, 4, []harness.ProtocolKind{harness.TDI, harness.TAG, harness.TEL})
}

// TestKillRecovererDuringCollect crashes the recovering rank itself
// right after it broadcasts its ROLLBACK; its next incarnation must
// restart recovery cleanly, and the stale exchange must not corrupt
// anyone's suppression bounds.
func TestKillRecovererDuringCollect(t *testing.T) {
	runAccept(t, `
		kill 1 @2ms
		recover 1 @5ms
		kill 1 phase(1 rollback)
		recover 1 @40ms
	`, 4, []harness.ProtocolKind{harness.TDI, harness.TAG, harness.TEL})
}

// TestStallDuringRecovery holds a live peer's inbound delivery across a
// concurrent recovery, forcing late RESPONSE/log-resend arrival.
func TestStallDuringRecovery(t *testing.T) {
	runAccept(t, `
		stall 3 @1ms
		kill 1 @2ms
		recover 1 @6ms
		unstall 3 @12ms
	`, 4, []harness.ProtocolKind{harness.TDI})
}

// TestSoakGeneratedSeeds runs the seeded soak matrix with the replay
// check: every (seed, transport) cell must produce a clean trace, the
// baseline state, and a byte-for-byte identical action log across two
// runs.
func TestSoakGeneratedSeeds(t *testing.T) {
	seeds := []int64{1, 2, 3, 4}
	if testing.Short() {
		seeds = seeds[:2]
	}
	err := Soak(SoakOptions{
		Seeds:      seeds,
		Transports: testTransports(t),
		Run:        RunOptions{Procs: 4, AppSteps: 30},
		Faults:     6,
		Stalls:     true,
		Replay:     true,
		Logf:       t.Logf,
	})
	if err != nil {
		t.Fatalf("Soak: %v", err)
	}
}

// TestSoakProtocolsAndNPB runs one generated seed for each cell the
// default soak does not reach: the TAG baseline and TEL behind its 100µs
// event logger, both under AnySource delivery, and the NPB LU kernel.
func TestSoakProtocolsAndNPB(t *testing.T) {
	for _, cell := range []struct {
		app   string
		proto harness.ProtocolKind
	}{
		{"masterworker", harness.TAG},
		{"masterworker", harness.TEL},
		{"lu", harness.TDI},
	} {
		cell := cell
		t.Run(cell.app+"/"+string(cell.proto), func(t *testing.T) {
			t.Parallel()
			err := Soak(SoakOptions{
				Seeds:      []int64{1},
				Transports: testTransports(t),
				Run:        RunOptions{Procs: 4, App: cell.app, AppSteps: 20, Protocol: cell.proto},
				Faults:     4,
				Logf:       t.Logf,
			})
			if err != nil {
				t.Fatalf("Soak: %v", err)
			}
		})
	}
}

// TestEngineSkipOutcomes drives actions whose preconditions fail and
// checks the deterministic skip reasons in the log.
func TestEngineSkipOutcomes(t *testing.T) {
	sched, err := Parse(`
		recover 1 @1ms
		kill 1 @2ms
		kill 1 @3ms
		recover 1 @6ms
		unstall 2 @7ms
	`)
	if err != nil {
		t.Fatal(err)
	}
	res, err := RunSchedule(RunOptions{Schedule: sched, Procs: 3, AppSteps: 30})
	if err != nil {
		t.Fatalf("RunSchedule: %v", err)
	}
	want := []string{"skip(alive)", "ok", "skip(dead)", "ok", "skip(not-stalled)"}
	for i, w := range want {
		if !strings.HasSuffix(res.Log[i], "-> "+w) {
			t.Errorf("action #%d: got %q, want outcome %q", i, res.Log[i], w)
		}
	}
}

// TestTriggerTimeoutDrains proves a schedule keyed on an event that
// never happens cannot hang: the action fires via the timeout fallback
// and the run completes.
func TestTriggerTimeoutDrains(t *testing.T) {
	sched, err := Parse(`
		kill 1 phase(2 rollback)
		recover 1 @300ms
	`)
	if err != nil {
		t.Fatal(err)
	}
	sched.Timeout = 100 * time.Millisecond
	res, err := RunSchedule(RunOptions{Schedule: sched, Procs: 3, AppSteps: 30})
	if err != nil {
		t.Fatalf("RunSchedule: %v", err)
	}
	if !strings.Contains(res.Log[0], "(timeout)") {
		t.Errorf("action #0 should have fired via timeout fallback: %q", res.Log[0])
	}
	for _, pr := range res.Problems {
		t.Errorf("trace problem: %v", pr)
	}
}
