package obs

import (
	"encoding/json"
	"io"
	"net/http"
	"net/http/httptest"
	"strings"
	"testing"
	"time"

	"windar/internal/clock"
	"windar/internal/trace"
)

func testSource(dead bool) Source {
	reg := NewRegistry(2)
	fam := reg.Family("deliver_latency_ns", "Recv wait.", "ns")
	fam.Rank(0).Record(1000)
	fam.Rank(1).Record(3000)
	return Source{
		Registry: reg,
		Counters: func() []RankCounters {
			return []RankCounters{
				{Rank: 0, Counters: []Counter{{Name: "msgs_sent", Value: 5}}},
				{Rank: 1, Counters: []Counter{{Name: "msgs_sent", Value: 6}}},
			}
		},
		Health: func() Health {
			return Health{Finished: false, Ranks: []RankHealth{
				{Rank: 0, Alive: true, Incarnation: 0},
				{Rank: 1, Alive: !dead, Incarnation: 1},
			}}
		},
		Meta:  map[string]string{"protocol": "tdi"},
		Clock: clock.NewFake(time.Unix(0, 0)),
	}
}

func get(t *testing.T, ts *httptest.Server, path string) (int, string) {
	t.Helper()
	resp, err := http.Get(ts.URL + path)
	if err != nil {
		t.Fatalf("GET %s: %v", path, err)
	}
	defer resp.Body.Close()
	body, err := io.ReadAll(resp.Body)
	if err != nil {
		t.Fatalf("GET %s body: %v", path, err)
	}
	return resp.StatusCode, string(body)
}

func TestServerEndpoints(t *testing.T) {
	ts := httptest.NewServer(NewServer(testSource(false)).Handler())
	defer ts.Close()

	code, body := get(t, ts, "/metrics")
	if code != http.StatusOK {
		t.Fatalf("/metrics status %d", code)
	}
	for _, want := range []string{
		"# TYPE windar_deliver_latency_ns histogram",
		`windar_deliver_latency_ns_count{rank="0"} 1`,
		`windar_msgs_sent_total{rank="1"} 6`,
	} {
		if !strings.Contains(body, want) {
			t.Errorf("/metrics missing %q in:\n%s", want, body)
		}
	}

	code, body = get(t, ts, "/debug/vars")
	if code != http.StatusOK {
		t.Fatalf("/debug/vars status %d", code)
	}
	var v VarsSnapshot
	if err := json.Unmarshal([]byte(body), &v); err != nil {
		t.Fatalf("/debug/vars decode: %v", err)
	}
	if v.N != 2 || len(v.Hists) != 1 || len(v.Hists[0].Ranks) != 2 {
		t.Errorf("/debug/vars unexpected payload: %+v", v)
	} else if tot := v.Hists[0].Total; tot.Count != 2 || tot.Sum != 4000 || tot.Max != 3000 {
		t.Errorf("/debug/vars cross-rank total = %+v, want both ranks' records", tot)
	}
	if v.Meta["protocol"] != "tdi" {
		t.Errorf("/debug/vars meta = %v", v.Meta)
	}
	if v.Health == nil || len(v.Health.Ranks) != 2 || v.Health.Ranks[1].Incarnation != 1 {
		t.Errorf("/debug/vars health = %+v", v.Health)
	}

	code, body = get(t, ts, "/healthz")
	if code != http.StatusOK {
		t.Fatalf("/healthz status %d, body %s", code, body)
	}
	var h Health
	if err := json.Unmarshal([]byte(body), &h); err != nil {
		t.Fatalf("/healthz decode: %v", err)
	}
	if len(h.Ranks) != 2 || !h.Ranks[0].Alive {
		t.Errorf("/healthz payload: %+v", h)
	}

	if code, _ := get(t, ts, "/debug/pprof/"); code != http.StatusOK {
		t.Errorf("/debug/pprof/ status %d", code)
	}
}

func TestServerHealthzDeadRank(t *testing.T) {
	ts := httptest.NewServer(NewServer(testSource(true)).Handler())
	defer ts.Close()
	code, body := get(t, ts, "/healthz")
	if code != http.StatusServiceUnavailable {
		t.Fatalf("/healthz with dead rank: status %d, body %s", code, body)
	}
	if !strings.Contains(body, `"alive": false`) {
		t.Errorf("/healthz body lacks dead rank: %s", body)
	}
}

func TestServeListens(t *testing.T) {
	s, err := Serve("127.0.0.1:0", testSource(false))
	if err != nil {
		t.Fatal(err)
	}
	defer s.Close()
	if s.Addr() == "" {
		t.Fatal("no bound address")
	}
	resp, err := http.Get("http://" + s.Addr() + "/metrics")
	if err != nil {
		t.Fatalf("GET live server: %v", err)
	}
	resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("live /metrics status %d", resp.StatusCode)
	}
}

// TestEmptySource exercises every endpoint with no registry, counters
// or health wired: the nil-receiver contract must hold end to
// end.
func TestEmptySource(t *testing.T) {
	ts := httptest.NewServer(NewServer(Source{Clock: clock.NewFake(time.Unix(0, 0))}).Handler())
	defer ts.Close()
	for _, path := range []string{"/metrics", "/debug/vars", "/healthz"} {
		if code, _ := get(t, ts, path); code != http.StatusOK {
			t.Errorf("%s on empty source: status %d", path, code)
		}
	}
	// No flight recorder wired: the endpoint says so instead of serving
	// an empty trace.
	if code, _ := get(t, ts, "/debug/flight"); code != http.StatusNotFound {
		t.Errorf("/debug/flight without a recorder: status %d, want 404", code)
	}
}

// TestServerFlightEndpoint checks /debug/flight streams the window of
// the trace recorder wired to it — what windar.Cluster hands it from
// Config.Trace — byte for byte as the recorder exports it.
func TestServerFlightEndpoint(t *testing.T) {
	rec := trace.NewBounded(4)
	for i := int64(1); i <= 6; i++ {
		rec.OnSend(0, 1, i, false)
		rec.OnDeliver(1, 0, i, i, -1)
	}
	src := testSource(false)
	src.Flight = rec.Export
	ts := httptest.NewServer(NewServer(src).Handler())
	defer ts.Close()
	code, body := get(t, ts, "/debug/flight")
	if code != http.StatusOK {
		t.Fatalf("/debug/flight status %d", code)
	}
	var want strings.Builder
	if err := rec.Export(&want); err != nil {
		t.Fatal(err)
	}
	if body != want.String() || !strings.Contains(body, `"kind":"send"`) {
		t.Errorf("/debug/flight body = %q, want %q", body, want.String())
	}
	if served, err := trace.Import(strings.NewReader(body)); err != nil || len(served.Validate(false)) != 0 {
		t.Errorf("/debug/flight window does not validate: err %v", err)
	}
}
