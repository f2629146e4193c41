package main

import (
	"bytes"
	"encoding/json"
	"math"
	"os"
	"path/filepath"
	"reflect"
	"regexp"
	"strings"
	"testing"

	"windar/internal/transport"
)

// toySpecs are the four workloads shrunk until the whole file runs in a
// few seconds; every code path of the full-size runs is still taken.
func toySpecs() []spec {
	return []spec{
		{Name: "flood_mem", Steps: 300, Transport: transport.Mem, CkptEvery: 100, SegmentSteps: 50},
		{Name: "flood_tcp", Steps: 200, Transport: transport.TCP, CkptEvery: 100, SegmentSteps: 50},
		{Name: "lu_deployed", LU: true, Steps: 12, Transport: transport.TCP, CkptEvery: 5, Deployed: true, SegmentSteps: 4},
		{Name: "recovery_mem", Steps: 60*4 + 1, Transport: transport.Mem, CkptEvery: 60, Cycles: 3, RollForward: 512, SegmentSteps: 60},
	}
}

func TestWorkloadsToySize(t *testing.T) {
	for _, s := range toySpecs() {
		g, err := newRig(s, options{Seed: 7, OutDir: t.TempDir()}, false)
		if err != nil {
			t.Fatalf("%s: %v", s.Name, err)
		}
		m, err := g.run()
		if err != nil {
			t.Fatalf("%s: %v", s.Name, err)
		}
		if m.Failed != 0 || m.Msgs != s.expectedMsgs(ranks) || m.Total.MsgsDelivered < m.Msgs {
			t.Errorf("%s: failed=%d %v; delivered %d of %d", s.Name, m.Failed, m.Why, m.Total.MsgsDelivered, m.Msgs)
		}
		if want := (s.Steps-1)/s.SegmentSteps - 1; len(m.SegmentWalls) != want {
			t.Errorf("%s: %d segments, want %d", s.Name, len(m.SegmentWalls), want)
		}
		if len(m.Cycles) != s.Cycles {
			t.Errorf("%s: %d cycles, want %d", s.Name, len(m.Cycles), s.Cycles)
		}
		for _, c := range m.Cycles {
			if !c.Completed || c.Recovery <= 0 || c.RollForward < s.RollForward {
				t.Errorf("%s: bad cycle %+v", s.Name, c)
			}
		}
		for name, v := range endToEndMetrics(m, 1) {
			if math.IsNaN(v) || math.IsInf(v, 0) || (v <= 0 && name != "failed_ops_share") {
				t.Errorf("%s: %s = %v", s.Name, name, v)
			}
		}
	}
}

func TestTracedToySize(t *testing.T) {
	probed := map[string]bool{}
	for name := range probeMetrics(t) {
		probed[name] = true
	}
	for _, s := range toySpecs() {
		dir := t.TempDir()
		g, err := newRig(s, options{Seed: 3, OutDir: dir}, true)
		if err != nil {
			t.Fatalf("%s: %v", s.Name, err)
		}
		m, err := g.run()
		if err != nil || m.Failed != 0 {
			t.Fatalf("%s: %v failed=%d %v", s.Name, err, m.Failed, m.Why)
		}
		got := tracedMetrics(g, m)
		// Every per-layer metric comes from a probe, the traced run, or
		// is one of the two derived in tracedResult.
		for _, d := range perLayer {
			_, traced := got[d.Name]
			derived := d.Name == "trace.overhead_pct" || d.Name == "harness.unattributed_ns_per_msg"
			recoveryOnly := strings.HasSuffix(d.Name, "_per_cycle")
			if !traced && !probed[d.Name] && !derived && !(recoveryOnly && s.Cycles == 0) {
				t.Errorf("%s: no source for per-layer metric %s", s.Name, d.Name)
			}
		}
		for _, name := range []string{"harness.send_call_ns_p50", "harness.send_to_deliver_us_p50",
			"harness.recv_wait_share", "harness.checkpoints", "stable.put_calls_per_msg", "stable.bytes_per_msg"} {
			if got[name] <= 0 {
				t.Errorf("%s: %s = %v, want > 0", s.Name, name, got[name])
			}
		}
		if s.Deployed && (got["stable.disk_group_commits"] <= 0 || got["stable.put_calls_per_msg"] < 1) {
			t.Errorf("%s: disk decorator saw %v commits, %v puts/msg", s.Name,
				got["stable.disk_group_commits"], got["stable.put_calls_per_msg"])
		}
		if s.Cycles > 0 {
			if rf := got["harness.recovery_rollforward_msgs_p50"]; rf < float64(s.RollForward) || rf > 1.5*float64(s.RollForward) {
				t.Errorf("%s: roll-forward p50 %v, target %d", s.Name, rf, s.RollForward)
			}
			if got["harness.recovery_ms_p50"] <= 0 || got["harness.resent_per_cycle"] <= 0 {
				t.Errorf("%s: recovery not observed: %v", s.Name, got)
			}
		}

		path, err := g.tr.writeSpans(dir, g.rec)
		if err != nil {
			t.Fatal(err)
		}
		data, err := os.ReadFile(path)
		if err != nil {
			t.Fatal(err)
		}
		var spans []span
		if err := json.Unmarshal(data, &spans); err != nil {
			t.Fatalf("%s: span file: %v", s.Name, err)
		}
		names := map[string]int{}
		for _, sp := range spans {
			names[sp.Name]++
			if sp.EndNS < sp.StartNS {
				t.Errorf("%s: span %+v ends before it starts", s.Name, sp)
			}
		}
		for _, want := range []string{"app.send", "harness.flight", "app.recv", "stable.put"} {
			if names[want] == 0 {
				t.Errorf("%s: no %s span among %v", s.Name, want, names)
			}
		}
		if s.Cycles > 0 && names["harness.recovery"] != s.Cycles {
			t.Errorf("%s: %d recovery spans, want %d", s.Name, names["harness.recovery"], s.Cycles)
		}
		if left, _ := filepath.Glob(filepath.Join(dir, "wal-*")); len(left) != 0 {
			t.Errorf("%s: WAL fixture left behind: %v", s.Name, left)
		}
	}
}

func probeMetrics(t *testing.T) map[string]float64 {
	t.Helper()
	probes, err := runProbes(0.0005, t.TempDir())
	if err != nil {
		t.Fatal(err)
	}
	for name, v := range probes {
		if math.IsNaN(v) || math.IsInf(v, 0) || v < 0 {
			t.Errorf("probe %s = %v", name, v)
		}
	}
	return probes
}

// TestCorruptReferenceFails is the oracle's own test: a wrong reference
// digest must count every delivery of the rank as failed and make the
// command's report return an error (main then exits non-zero).
func TestCorruptReferenceFails(t *testing.T) {
	const scale = 0.002
	timed, warm := specAt("lu_deployed", scale), specAt("lu_deployed", scale*warmupShare)
	good, err := bareLU(ranks, timed.Steps)
	if err != nil {
		t.Fatal(err)
	}
	warmGood, err := bareLU(ranks, warm.Steps)
	if err != nil {
		t.Fatal(err)
	}
	table := map[string]golden{
		goldenKey(ranks, timed.Steps): good,
		goldenKey(ranks, warm.Steps):  warmGood,
	}
	o := options{Seed: 1, OutDir: t.TempDir(), Golden: table}
	var out bytes.Buffer
	if err := report(&out, []spec{timed}, o, scale, scale*calibratedSeconds, false); err != nil {
		t.Fatalf("intact reference: %v", err)
	}
	last := checkDriverLine(t, out.String(), endToEnd[:driverEndToEnd])
	if !last.Correct || last.Failed != 0 || last.Attempted != timed.expectedMsgs(ranks) {
		t.Errorf("intact reference: %+v", last)
	}

	bad := golden{Digests: append([]string(nil), good.Digests...)}
	bad.Digests[2] = strings.Repeat("0", 64)
	table[goldenKey(ranks, timed.Steps)] = bad
	out.Reset()
	if err := report(&out, []spec{timed}, o, scale, scale*calibratedSeconds, false); err == nil {
		t.Fatal("corrupted reference: report returned no error")
	}
	last = checkDriverLine(t, out.String(), endToEnd[:driverEndToEnd])
	if last.Correct || last.Failed <= 0 || last.Failed >= last.Attempted {
		t.Errorf("corrupted reference: %+v", last)
	}

	// The flood's reference is arithmetic: a different seed is a
	// different reference.
	if reflect.DeepEqual(floodReference(ranks, 50, 1), floodReference(ranks, 50, 2)) {
		t.Error("flood reference ignores the seed")
	}
}

// checkDriverLine parses the last line report printed and checks it is
// exactly the driver's result object carrying exactly defs.
func checkDriverLine(t *testing.T, out string, defs []metricDef) result {
	t.Helper()
	lines := strings.Split(strings.TrimSpace(out), "\n")
	var keys map[string]json.RawMessage
	if err := json.Unmarshal([]byte(lines[len(lines)-1]), &keys); err != nil {
		t.Fatalf("last line is not JSON: %v", err)
	}
	if len(keys) != 4 {
		t.Errorf("driver line has keys %v", keys)
	}
	var r result
	if err := json.Unmarshal([]byte(lines[len(lines)-1]), &r); err != nil {
		t.Fatal(err)
	}
	if len(r.Metrics) != len(defs) {
		t.Errorf("driver line has %d metrics, want %d", len(r.Metrics), len(defs))
	}
	for _, d := range defs {
		if m, ok := r.Metrics[d.Name]; !ok || m.Unit != d.Unit {
			t.Errorf("driver line metric %s = %+v", d.Name, m)
		}
	}
	return r
}

func TestTracedDriverLine(t *testing.T) {
	const scale = 0.004
	s := specAt("recovery_mem", scale)
	probes := probeMetrics(t)
	r, err := tracedResult(s, options{Seed: 5, OutDir: t.TempDir()}, scale, probes)
	if err != nil || !r.Correct {
		t.Fatalf("%v %+v", err, r)
	}
	if len(r.Metrics) != len(perLayer) {
		t.Errorf("%d per-layer metrics reported, want %d", len(r.Metrics), len(perLayer))
	}
	if r.Metrics["harness.unattributed_ns_per_msg"].Value == 0 || r.Metrics["trace.overhead_pct"].Value == 0 {
		t.Errorf("derived metrics missing: %+v", r.Metrics)
	}
}

// TestManifest holds BENCHMARK.json to the tables in this package and to
// the limits of the driver's contract.
func TestManifest(t *testing.T) {
	data, err := os.ReadFile(filepath.Join("..", "BENCHMARK.json"))
	if err != nil {
		t.Fatal(err)
	}
	if len(data) > 64<<10 {
		t.Errorf("BENCHMARK.json is %d bytes", len(data))
	}
	type entry struct {
		Name   string   `json:"name"`
		Why    string   `json:"why"`
		Unit   string   `json:"unit"`
		Better string   `json:"better"`
		Bound  *float64 `json:"bound"`
	}
	var mf struct {
		Command    []string `json:"command"`
		Paths      []string `json:"paths"`
		RunSeconds int      `json:"run_seconds"`
		Workloads  []entry  `json:"workloads"`
		EndToEnd   []entry  `json:"end_to_end"`
		PerLayer   []entry  `json:"per_layer"`
	}
	dec := json.NewDecoder(bytes.NewReader(data))
	dec.DisallowUnknownFields()
	if err := dec.Decode(&mf); err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(mf.Command, []string{"go", "run", "./bench"}) || !reflect.DeepEqual(mf.Paths, []string{"bench"}) {
		t.Errorf("command %v paths %v", mf.Command, mf.Paths)
	}
	if mf.RunSeconds != calibratedSeconds {
		t.Errorf("run_seconds = %d, sizes are calibrated for %d", mf.RunSeconds, calibratedSeconds)
	}
	nameRE := regexp.MustCompile(`^[A-Za-z0-9][A-Za-z0-9_.-]{0,63}$`)
	unitRE := regexp.MustCompile(`^[A-Za-z0-9_/%.-]{1,16}$`)
	seen := map[string]bool{}
	name := func(n string) {
		if !nameRE.MatchString(n) || seen[n] {
			t.Errorf("name %q is malformed or used twice", n)
		}
		seen[n] = true
	}
	all := specs(1)
	if len(mf.Workloads) != len(all) {
		t.Fatalf("%d workloads, want %d", len(mf.Workloads), len(all))
	}
	for i, w := range mf.Workloads {
		name(w.Name)
		if w.Name != all[i].Name || w.Why != all[i].Why || len(w.Why) > 200 || strings.Contains(w.Why, "\n") {
			t.Errorf("workload %d: %+v vs %q: %q", i, w, all[i].Name, all[i].Why)
		}
	}
	check := func(kind string, got []entry, want []metricDef, bounded bool) {
		if len(got) != len(want) {
			t.Fatalf("%s: %d metrics, want %d", kind, len(got), len(want))
		}
		for i, e := range got {
			name(e.Name)
			d := want[i]
			if e.Name != d.Name || e.Unit != d.Unit || e.Better != d.Better || !unitRE.MatchString(e.Unit) {
				t.Errorf("%s %d: %+v, want %+v", kind, i, e, d)
			}
			if bounded != (e.Bound != nil) || (bounded && (*e.Bound != d.Bound || *e.Bound <= 0 || *e.Bound > 0.25)) {
				t.Errorf("%s %s: bound %v, want %v", kind, e.Name, e.Bound, d.Bound)
			}
		}
	}
	check("end_to_end", mf.EndToEnd, endToEnd[:driverEndToEnd], true)
	check("per_layer", mf.PerLayer, perLayer, false)
	if len(perLayer) > 128 {
		t.Errorf("%d per-layer metrics", len(perLayer))
	}
}

func TestQuartilesMatchPython(t *testing.T) {
	// statistics.quantiles(range(1, 11), n=4) == [2.75, 5.5, 8.25]
	q1, med, q3 := quartiles([]float64{10, 1, 9, 2, 8, 3, 7, 4, 6, 5})
	if q1 != 2.75 || med != 5.5 || q3 != 8.25 {
		t.Errorf("quartiles = %v %v %v", q1, med, q3)
	}
	// statistics.quantiles([1, 2, 4], n=4) == [1.0, 2.0, 4.0]
	if q1, med, q3 := quartiles([]float64{4, 1, 2}); q1 != 1 || med != 2 || q3 != 4 {
		t.Errorf("quartiles = %v %v %v", q1, med, q3)
	}
}
