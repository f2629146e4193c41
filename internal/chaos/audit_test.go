package chaos

import (
	"bytes"
	"strings"
	"testing"

	"windar/internal/trace"
)

// validRun records a small two-rank exchange that satisfies every
// invariant: rank 0 sends three messages, rank 1 delivers them in order
// with matching demands and checkpoints after the second delivery.
func validRun() *trace.Recorder {
	rec := &trace.Recorder{}
	rec.OnSend(0, 1, 1, false)
	rec.OnDeliver(1, 0, 1, 1, 0)
	rec.OnSend(0, 1, 2, false)
	rec.OnDeliver(1, 0, 2, 2, 1)
	rec.OnCheckpoint(1, 1, 2)
	rec.OnSend(0, 1, 3, false)
	rec.OnDeliver(1, 0, 3, 3, 2)
	return rec
}

func exported(t *testing.T, rec *trace.Recorder) *bytes.Buffer {
	t.Helper()
	var buf bytes.Buffer
	if err := rec.Export(&buf); err != nil {
		t.Fatalf("Export: %v", err)
	}
	return &buf
}

func TestAuditPassesValidTrace(t *testing.T) {
	rec := validRun()
	rec.SetTransport("tcp")
	imported, problems, err := auditExport(rec, exported(t, rec), true)
	if err != nil {
		t.Fatalf("auditExport: %v", err)
	}
	if len(problems) > 0 {
		t.Fatalf("valid trace flagged: %v", problems)
	}
	if imported.Transport() != "tcp" || imported.Len() != rec.Len() {
		t.Fatalf("imported copy: transport %q, %d events", imported.Transport(), imported.Len())
	}
}

// TestAuditFailsCorruptedTrace writes a corrupted trace file for a clean
// recorder and requires the audit to report the corruption: it judges
// the file an operator would read, not the recorder that wrote it.
func TestAuditFailsCorruptedTrace(t *testing.T) {
	cases := []struct {
		name    string
		corrupt func(rec *trace.Recorder)
		rule    string
	}{
		{
			name: "fifo order inverted",
			corrupt: func(rec *trace.Recorder) {
				rec.OnSend(0, 1, 4, false)
				rec.OnSend(0, 1, 5, false)
				rec.OnDeliver(1, 0, 5, 4, -1)
				rec.OnDeliver(1, 0, 4, 5, -1)
			},
			rule: "fifo-order",
		},
		{
			name: "deliver index skips",
			corrupt: func(rec *trace.Recorder) {
				rec.OnSend(0, 1, 4, false)
				rec.OnDeliver(1, 0, 4, 7, -1)
			},
			rule: "deliver-monotonic",
		},
		{
			name: "demand unsatisfied",
			corrupt: func(rec *trace.Recorder) {
				rec.OnSend(0, 1, 4, false)
				// Rank 1 has delivered 3 messages; demanding 9 means the
				// protocol's Algorithm 1 line 17 comparison was violated.
				rec.OnDeliver(1, 0, 4, 4, 9)
			},
			rule: "deliver-demand",
		},
		{
			name: "checkpoint count drifts",
			corrupt: func(rec *trace.Recorder) {
				rec.OnCheckpoint(1, 2, 42)
			},
			rule: "checkpoint-count",
		},
		{
			name: "duplicate delivery",
			corrupt: func(rec *trace.Recorder) {
				rec.OnDeliver(1, 0, 3, 4, -1)
			},
			rule: "no-duplicate",
		},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			file := validRun()
			tc.corrupt(file)
			// The live recorder stays clean; undelivered sends pad it to
			// the file's event count, which the round trip compares.
			live := validRun()
			for i := int64(4); live.Len() < file.Len(); i++ {
				live.OnSend(0, 1, i, false)
			}
			_, problems, err := auditExport(live, exported(t, file), false)
			if err != nil {
				t.Fatalf("auditExport: %v", err)
			}
			found := false
			for _, p := range problems {
				if strings.HasPrefix(p.String(), tc.rule+":") {
					found = true
				}
			}
			if !found {
				t.Fatalf("expected a %s violation, got %v", tc.rule, problems)
			}
		})
	}
}

// TestAuditFailsLossyRoundTrip requires the audit to refuse a file that
// lost events, the transport header or the dropped count on the way.
func TestAuditFailsLossyRoundTrip(t *testing.T) {
	rec := validRun()
	rec.SetTransport("tcp")
	full := exported(t, rec).String()
	for name, data := range map[string]string{
		"truncated":         full[:strings.LastIndex(strings.TrimSuffix(full, "\n"), "\n")+1],
		"transport dropped": strings.Replace(full, `,"transport":"tcp"`, "", 1),
		"dropped count":     strings.Replace(full, `"transport":"tcp"`, `"transport":"tcp","dropped":2`, 1),
	} {
		if _, _, err := auditExport(rec, strings.NewReader(data), true); err == nil {
			t.Errorf("%s: lossy round trip accepted", name)
		}
	}
}
