// Command windar-top polls a windar-run -serve telemetry endpoint's
// /debug/vars and renders a live per-rank table: liveness/incarnation,
// message and log counters, the aggregate message rate between polls,
// and each histogram family's cross-rank quantiles.
//
//	windar-run -app lu -procs 8 -serve 127.0.0.1:8077 &
//	windar-top -addr 127.0.0.1:8077
//	windar-top -addr 127.0.0.1:8077 -once   # one frame (two polls one -interval apart), no screen control
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"net/http"
	"os"
	"strings"
	"time"

	"windar/internal/clock"
	"windar/internal/obs"
)

func main() {
	var (
		addr     = flag.String("addr", "127.0.0.1:8077", "telemetry endpoint address (windar-run -serve)")
		interval = flag.Duration("interval", time.Second, "poll interval")
		once     = flag.Bool("once", false, "print a single snapshot and exit")
	)
	flag.Parse()

	url := "http://" + *addr + "/debug/vars"
	client := &http.Client{Timeout: 5 * time.Second}
	clk := clock.Real{}
	var prev *obs.VarsSnapshot
	for {
		v, err := fetch(client, url)
		if err != nil {
			// With -once an unreachable endpoint is a hard failure (exit
			// non-zero) — scripts poll it; interactively, an endpoint that
			// served at least once vanishing just means the run ended.
			if prev != nil && !*once {
				fmt.Println("windar-top: endpoint gone (run finished?)")
				return
			}
			fatal("%v", err)
		}
		if *once && prev == nil {
			// The rate needs two polls: -once takes its frame one interval
			// after the first.
			prev = v
			clk.Sleep(*interval)
			continue
		}
		out := render(prev, v)
		if *once {
			fmt.Print(out)
			return
		}
		// Clear the screen and repaint in place.
		fmt.Print("\x1b[2J\x1b[H" + out)
		if v.Health != nil && v.Health.Finished {
			fmt.Println("\nrun finished")
			return
		}
		prev = v
		clk.Sleep(*interval)
	}
}

func fetch(client *http.Client, url string) (*obs.VarsSnapshot, error) {
	resp, err := client.Get(url)
	if err != nil {
		return nil, err
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		return nil, fmt.Errorf("windar-top: %s: %s", url, resp.Status)
	}
	var v obs.VarsSnapshot
	if err := json.NewDecoder(resp.Body).Decode(&v); err != nil {
		return nil, fmt.Errorf("windar-top: decode %s: %w", url, err)
	}
	return &v, nil
}

// phasePrefix marks the histogram families holding recovery-phase span
// durations (harness.PhaseFamily naming).
const phasePrefix = "recovery_phase_"

// render draws snapshot v; prev, the previous poll or nil, supplies the
// message rate. Every histogram family is one row: the recovery-phase
// span quantiles first (the numbers an operator reads after a failure),
// then the remaining families, each from its exact cross-rank Total.
func render(prev, v *obs.VarsSnapshot) string {
	var b strings.Builder
	fmt.Fprintf(&b, "windar-top  %s  uptime=%v",
		metaLine(v.Meta), time.Duration(v.UptimeNS).Round(time.Millisecond))
	if rate, ok := msgRate(prev, v); ok {
		fmt.Fprintf(&b, "  msgs/s=%.0f", rate)
	}
	b.WriteString("\n\n")

	fmt.Fprintf(&b, "%-5s %-6s %-4s %-5s %10s %10s %8s %9s %11s\n",
		"rank", "alive", "inc", "done", "sent", "delivered", "resent", "log-live", "recoveries")
	for i, rc := range v.Ranks {
		alive, inc, done := "?", 0, "?"
		if v.Health != nil && i < len(v.Health.Ranks) {
			h := v.Health.Ranks[i]
			alive, inc, done = yesNo(h.Alive), h.Incarnation, yesNo(h.Finished)
		}
		fmt.Fprintf(&b, "%-5d %-6s %-4d %-5s %10d %10d %8d %9d %11d\n",
			rc.Rank, alive, inc, done,
			cval(rc.Counters, "msgs_sent"), cval(rc.Counters, "msgs_delivered"),
			cval(rc.Counters, "resent_msgs"),
			cval(rc.Counters, "log_items_live"),
			cval(rc.Counters, "recoveries"))
	}

	var phases, rest []obs.HistVars
	for _, h := range v.Hists {
		if strings.HasPrefix(h.Name, phasePrefix) {
			h.Name = strings.ReplaceAll(strings.TrimSuffix(strings.TrimPrefix(h.Name, phasePrefix), "_ns"), "_", "-")
			phases = append(phases, h)
		} else {
			rest = append(rest, h)
		}
	}
	histTable(&b, fmt.Sprintf("recovery phases (%d ranks):", v.N), "phase", "spans", phases)
	histTable(&b, fmt.Sprintf("aggregate (%d ranks):", v.N), "family", "count", rest)
	return b.String()
}

// histTable appends one row per family's cross-rank Total; nothing when
// hs is empty.
func histTable(b *strings.Builder, title, name, count string, hs []obs.HistVars) {
	if len(hs) == 0 {
		return
	}
	fmt.Fprintf(b, "\n%s\n%-32s %8s %10s %10s %10s %10s\n", title, name, count, "p50", "p95", "p99", "max")
	for _, h := range hs {
		t := h.Total
		fmt.Fprintf(b, "%-32s %8d %10s %10s %10s %10s\n", h.Name, t.Count,
			fmtVal(t.P50, h.Unit), fmtVal(t.P95, h.Unit), fmtVal(t.P99, h.Unit), fmtVal(t.Max, h.Unit))
	}
}

func metaLine(meta map[string]string) string {
	// Stable, readable order for the fields ServeDebug stamps.
	parts := make([]string, 0, len(meta))
	for _, k := range []string{"procs", "protocol", "transport"} {
		if val, ok := meta[k]; ok {
			parts = append(parts, k+"="+val)
		}
	}
	return strings.Join(parts, " ")
}

// msgRate derives the aggregate message rate from two consecutive
// polls: the change in the ranks' summed msgs_sent over the change in
// uptime. ok is false without an earlier poll.
func msgRate(prev, v *obs.VarsSnapshot) (rate float64, ok bool) {
	if prev == nil || v.UptimeNS <= prev.UptimeNS {
		return 0, false
	}
	dm := sentTotal(v) - sentTotal(prev)
	return float64(dm) / (float64(v.UptimeNS-prev.UptimeNS) / 1e9), true
}

func sentTotal(v *obs.VarsSnapshot) int64 {
	var n int64
	for _, rc := range v.Ranks {
		n += cval(rc.Counters, "msgs_sent")
	}
	return n
}

func cval(cs []obs.Counter, name string) int64 {
	for _, c := range cs {
		if c.Name == name {
			return c.Value
		}
	}
	return 0
}

func fmtVal(v int64, unit string) string {
	if unit == "ns" {
		return time.Duration(v).Round(time.Microsecond).String()
	}
	return fmt.Sprint(v)
}

func yesNo(b bool) string {
	if b {
		return "yes"
	}
	return "no"
}

func fatal(format string, args ...any) {
	fmt.Fprintf(os.Stderr, "windar-top: "+format+"\n", args...)
	os.Exit(1)
}
