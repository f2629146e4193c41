package main

import (
	"strings"
	"testing"

	"windar/internal/obs"
)

func snapshot(uptimeNS int64, sent ...int64) *obs.VarsSnapshot {
	v := &obs.VarsSnapshot{N: len(sent), UptimeNS: uptimeNS}
	for r, n := range sent {
		v.Ranks = append(v.Ranks, obs.RankCounters{Rank: r, Counters: []obs.Counter{{Name: "msgs_sent", Value: n}}})
	}
	return v
}

// TestRenderPrintsEachFamilyOnce pins one row per histogram family: a
// recovery-phase family in the phase table under its short name, any
// other family in the aggregate table under its own.
func TestRenderPrintsEachFamilyOnce(t *testing.T) {
	v := snapshot(2e9, 10, 20)
	stat := obs.HistStat{Count: 2, Sum: 3000, Max: 2000, P50: 1000, P95: 2000, P99: 2000}
	rows := map[string]string{
		"recovery_phase_roll_forward_ns":     "roll-forward",
		"recovery_phase_collect_demands_ns":  "collect-demands",
		"deliver_latency_ns":                 "deliver_latency_ns",
		"piggyback_bytes":                    "piggyback_bytes",
		"recovery_rollforward_msgs":          "recovery_rollforward_msgs",
		"recovery_phase_replay_logged_bytes": "replay-logged-bytes",
	}
	for name := range rows {
		v.Hists = append(v.Hists, obs.HistVars{Name: name, Unit: "ns", Ranks: []obs.HistStat{stat, {}}, Total: stat})
	}
	out := render(nil, v)
	for name, row := range rows {
		n := 0
		for _, line := range strings.Split(out, "\n") {
			if f := strings.Fields(line); len(f) > 0 && (f[0] == row || f[0] == name) {
				n++
			}
		}
		if n != 1 {
			t.Errorf("family %s: %d rows, want 1:\n%s", name, n, out)
		}
	}
	if strings.Contains(out, "msgs/s") {
		t.Errorf("one snapshot rendered a rate:\n%s", out)
	}
	if !strings.Contains(render(snapshot(1e9, 0, 0), v), "msgs/s=30") {
		t.Errorf("two snapshots rendered no rate:\n%s", render(snapshot(1e9, 0, 0), v))
	}
}

// TestMsgRate checks the rate is the summed msgs_sent change over the
// uptime change, and that there is none without an earlier poll.
func TestMsgRate(t *testing.T) {
	a, z := snapshot(1e9, 100, 200), snapshot(1.5e9, 400, 500)
	if rate, ok := msgRate(a, z); !ok || rate != 1200 {
		t.Errorf("msgRate = %v, %v; want 1200 msgs/s", rate, ok)
	}
	if _, ok := msgRate(nil, z); ok {
		t.Error("msgRate of one snapshot reported a rate")
	}
	if _, ok := msgRate(z, z); ok {
		t.Error("msgRate over zero elapsed uptime reported a rate")
	}
}
