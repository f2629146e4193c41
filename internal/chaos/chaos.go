// Package chaos is a deterministic seeded fault-schedule engine for the
// rollback-recovery harness: it turns a seed into a legal sequence of
// kill / recover / stall / unstall actions, executes the sequence
// against a running cluster (timed offsets or recovery-event triggers),
// and emits a timestamp-free action log that is byte-for-byte identical
// across runs of the same schedule — the reproduction handle for every
// failure the soak runner finds.
//
// The pieces:
//
//   - Schedule / Action: the schedule DSL ("kill 2 @5ms", "recover 0
//     phase(2 collect-demands)"), parseable and round-trippable;
//   - Generate: seed -> legal schedule (never kills a dead rank, never
//     recovers a live one, keeps at least one rank alive, recovers and
//     unstalls everything before the end);
//   - Engine: a harness.Observer wrapper that fires the schedule while
//     forwarding every event to an inner observer (the trace recorder);
//   - Soak / RunSchedule: run seeds x transports, validate every run's
//     exported-and-reimported trace against the trace invariants and its
//     final state against a fault-free baseline, and name the
//     reproducing seed on failure.
package chaos

import (
	"fmt"
	"strconv"
	"strings"
	"time"
)

// Op is one fault-injection verb.
type Op string

const (
	// OpKill crashes the rank (volatile state lost).
	OpKill Op = "kill"
	// OpRecover starts the rank's next incarnation from its checkpoint.
	OpRecover Op = "recover"
	// OpStall suspends delivery into the rank (Transport.Stall) — a
	// transient partition in front of it, not a crash.
	OpStall Op = "stall"
	// OpUnstall resumes delivery into the rank.
	OpUnstall Op = "unstall"
	// OpRestart crashes the rank and immediately starts its next
	// incarnation — a fail-restart node with negligible detection delay.
	// In-process engines execute it as kill+recover back-to-back; the
	// process-level variant (RunRestart) SIGKILLs a real windar-run child
	// and re-execs it with -resume against the surviving disk state.
	OpRestart Op = "restart"
)

// Event-trigger keys beyond the harness recovery-phase span names.
const (
	// TrigRollback fires when the observed rank broadcasts its ROLLBACK
	// (demand collection begins).
	TrigRollback = "rollback"
	// TrigComplete fires when the observed rank completes its recovery.
	TrigComplete = "complete"
)

// Action is one scheduled fault. It fires either at a fixed offset from
// engine start (At, the default) or when an observed recovery event
// occurs (Phase non-empty): PhaseRank completing the named recovery
// phase span, broadcasting its ROLLBACK (TrigRollback), or completing
// recovery (TrigComplete) — the hook for crash-during-recovery
// schedules.
type Action struct {
	Op   Op
	Rank int
	// At is the timed trigger offset. Ignored when Phase is set.
	At time.Duration
	// Phase selects the event trigger: a harness.Phase* span name,
	// TrigRollback or TrigComplete. Empty means timed.
	Phase string
	// PhaseRank is the rank whose event is awaited (Phase non-empty).
	PhaseRank int
}

// String renders the action in the schedule DSL; Parse reads it back.
func (a Action) String() string {
	if a.Phase != "" {
		return fmt.Sprintf("%s %d phase(%d %s)", a.Op, a.Rank, a.PhaseRank, a.Phase)
	}
	return fmt.Sprintf("%s %d @%s", a.Op, a.Rank, a.At)
}

// Schedule is an ordered fault sequence plus the event-trigger fallback
// timeout.
type Schedule struct {
	Actions []Action
	// Timeout bounds how long an event-triggered action waits for its
	// event before firing anyway (so a schedule keyed on a phase that
	// never happens cannot hang a soak run). 0 means DefaultTimeout.
	Timeout time.Duration
}

// DefaultTimeout is the event-trigger fallback when Schedule.Timeout is
// zero.
const DefaultTimeout = 10 * time.Second

// String renders the schedule DSL, one action per line.
func (s Schedule) String() string {
	lines := make([]string, len(s.Actions))
	for i, a := range s.Actions {
		lines[i] = a.String()
	}
	return strings.Join(lines, "\n")
}

// knownOps gates Parse and Validate.
var knownOps = map[Op]bool{OpKill: true, OpRecover: true, OpStall: true, OpUnstall: true, OpRestart: true}

// knownTriggers lists the accepted Phase keys: the harness span names
// plus the two extra recovery events. Kept literal so the package does
// not import the harness (the engine does).
var knownTriggers = map[string]bool{
	"collect-demands": true, "replay-logged": true,
	"roll-forward": true, "log-release": true,
	TrigRollback: true, TrigComplete: true,
}

// Parse reads a schedule in the DSL emitted by String: one action per
// line (or semicolon-separated), "#" starts a comment.
//
//	kill 2 @5ms
//	kill 0 phase(2 collect-demands)
//	recover 2 @15ms ; recover 0 @20ms
func Parse(text string) (Schedule, error) {
	var s Schedule
	for _, raw := range strings.FieldsFunc(text, func(r rune) bool { return r == '\n' || r == ';' }) {
		line := strings.TrimSpace(raw)
		if i := strings.IndexByte(line, '#'); i >= 0 {
			line = strings.TrimSpace(line[:i])
		}
		if line == "" {
			continue
		}
		a, err := parseAction(line)
		if err != nil {
			return Schedule{}, err
		}
		s.Actions = append(s.Actions, a)
	}
	return s, nil
}

// parseAction reads one "<op> <rank> @<offset>" or
// "<op> <rank> phase(<rank> <event>)" line.
func parseAction(line string) (Action, error) {
	fields := strings.Fields(line)
	if len(fields) < 3 {
		return Action{}, fmt.Errorf("chaos: action %q: want <op> <rank> <trigger>", line)
	}
	a := Action{Op: Op(fields[0])}
	if !knownOps[a.Op] {
		return Action{}, fmt.Errorf("chaos: action %q: unknown op %q", line, fields[0])
	}
	rank, err := strconv.Atoi(fields[1])
	if err != nil || rank < 0 {
		return Action{}, fmt.Errorf("chaos: action %q: bad rank %q", line, fields[1])
	}
	a.Rank = rank
	trig := strings.Join(fields[2:], " ")
	switch {
	case strings.HasPrefix(trig, "@"):
		d, err := time.ParseDuration(trig[1:])
		if err != nil || d < 0 {
			return Action{}, fmt.Errorf("chaos: action %q: bad offset %q", line, trig)
		}
		a.At = d
	case strings.HasPrefix(trig, "phase(") && strings.HasSuffix(trig, ")"):
		parts := strings.Fields(trig[len("phase(") : len(trig)-1])
		if len(parts) != 2 {
			return Action{}, fmt.Errorf("chaos: action %q: want phase(<rank> <event>)", line)
		}
		pr, err := strconv.Atoi(parts[0])
		if err != nil || pr < 0 {
			return Action{}, fmt.Errorf("chaos: action %q: bad trigger rank %q", line, parts[0])
		}
		if !knownTriggers[parts[1]] {
			return Action{}, fmt.Errorf("chaos: action %q: unknown trigger event %q", line, parts[1])
		}
		a.PhaseRank = pr
		a.Phase = parts[1]
	default:
		return Action{}, fmt.Errorf("chaos: action %q: bad trigger %q (want @<offset> or phase(...))", line, trig)
	}
	return a, nil
}

// Validate checks the schedule against an n-rank cluster: rank bounds
// and trigger keys. Liveness legality (killing the dead, reviving the
// living) is checked at fire time by the engine, which records a skip
// outcome rather than failing the run — a handwritten schedule may
// deliberately race an event trigger against a timed kill.
func (s Schedule) Validate(n int) error {
	for i, a := range s.Actions {
		if !knownOps[a.Op] {
			return fmt.Errorf("chaos: action #%d: unknown op %q", i, a.Op)
		}
		if a.Rank < 0 || a.Rank >= n {
			return fmt.Errorf("chaos: action #%d: rank %d out of range [0,%d)", i, a.Rank, n)
		}
		if a.Phase != "" {
			if !knownTriggers[a.Phase] {
				return fmt.Errorf("chaos: action #%d: unknown trigger event %q", i, a.Phase)
			}
			if a.PhaseRank < 0 || a.PhaseRank >= n {
				return fmt.Errorf("chaos: action #%d: trigger rank %d out of range [0,%d)", i, a.PhaseRank, n)
			}
		}
	}
	return nil
}
