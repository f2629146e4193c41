package main

import (
	"encoding/json"
	"fmt"
	"io"
	"net/http"
	"net/http/httptest"
	"strings"
	"sync/atomic"
	"testing"

	"windar"
	"windar/layer"
)

// transports lists the substrates the gateway must behave identically
// over.
var transports = []windar.TransportKind{windar.TransportMem, windar.TransportTCP}

// wantFanout is the deterministic response for body over w workers.
func wantFanout(body string, w int) string {
	parts := make([]string, 0, w)
	for i := 1; i <= w; i++ {
		parts = append(parts, fmt.Sprintf("worker-%d:%s", i, strings.ToUpper(body)))
	}
	return strings.Join(parts, "\n")
}

func postFanout(t *testing.T, ts *httptest.Server, path, body string) (int, string) {
	t.Helper()
	resp, err := http.Post(ts.URL+path, "text/plain", strings.NewReader(body))
	if err != nil {
		t.Fatalf("POST %s: %v", path, err)
	}
	defer resp.Body.Close()
	b, err := io.ReadAll(resp.Body)
	if err != nil {
		t.Fatalf("read response: %v", err)
	}
	return resp.StatusCode, string(b)
}

func TestGatewayFanout(t *testing.T) {
	for _, tp := range transports {
		t.Run(string(tp), func(t *testing.T) {
			s := newServer(tp, 3)
			ts := httptest.NewServer(s.handler())
			defer ts.Close()

			code, got := postFanout(t, ts, "/fanout", "hello")
			if code != http.StatusOK {
				t.Fatalf("status = %d, body %q", code, got)
			}
			if want := wantFanout("hello", 3); got != want {
				t.Fatalf("fanout = %q, want %q", got, want)
			}
		})
	}
}

func TestGatewayFanoutWithFailure(t *testing.T) {
	for _, tp := range transports {
		t.Run(string(tp), func(t *testing.T) {
			s := newServer(tp, 3)
			ts := httptest.NewServer(s.handler())
			defer ts.Close()

			// The response must be byte-identical whether or not a worker
			// died mid-request: the causal log replays what was lost.
			want := wantFanout("resilient", 3)
			for kill := 1; kill <= 3; kill++ {
				code, got := postFanout(t, ts, fmt.Sprintf("/fanout?kill=%d", kill), "resilient")
				if code != http.StatusOK {
					t.Fatalf("kill=%d: status = %d, body %q", kill, code, got)
				}
				if got != want {
					t.Fatalf("kill=%d: fanout = %q, want %q", kill, got, want)
				}
			}
		})
	}
}

func TestGatewayRejectsBadKill(t *testing.T) {
	s := newServer(windar.TransportMem, 2)
	ts := httptest.NewServer(s.handler())
	defer ts.Close()
	for _, q := range []string{"?kill=0", "?kill=3", "?kill=x"} {
		code, _ := postFanout(t, ts, "/fanout"+q, "x")
		if code != http.StatusBadRequest {
			t.Errorf("%s: status = %d, want 400", q, code)
		}
	}
}

func TestGatewayStats(t *testing.T) {
	s := newServer(windar.TransportMem, 2)
	ts := httptest.NewServer(s.handler())
	defer ts.Close()

	postFanout(t, ts, "/fanout", "one")
	postFanout(t, ts, "/fanout?kill=1", "two")

	resp, err := http.Get(ts.URL + "/stats")
	if err != nil {
		t.Fatalf("GET /stats: %v", err)
	}
	defer resp.Body.Close()
	var st gatewayStats
	if err := json.NewDecoder(resp.Body).Decode(&st); err != nil {
		t.Fatalf("decode stats: %v", err)
	}
	if st.Requests != 2 {
		t.Errorf("requests = %d, want 2", st.Requests)
	}
	// Scatter + gather over 2 workers is at least 4 app messages per
	// request; the embedded interceptor must have seen them.
	if st.MsgsSent < 8 || st.MsgsDelivered < 8 {
		t.Errorf("interceptor counted sent=%d delivered=%d, want >= 8 each", st.MsgsSent, st.MsgsDelivered)
	}
	if st.Recoveries < 1 {
		t.Errorf("recoveries = %d, want >= 1 (one worker was killed)", st.Recoveries)
	}
}

// TestGatewayUserInterceptor runs a request with an extra user layer in
// the chain, proving the gateway's chain slot composes with more
// interceptors (the embeddability claim, httptest-style).
func TestGatewayUserInterceptor(t *testing.T) {
	var payloadBytes atomic.Int64
	s := newServer(windar.TransportMem, 2)
	s.userChain = []windar.Interceptor{
		layer.InterceptorFunc(func(next windar.Handler) windar.Handler {
			return &byteMeter{Forward: windar.Forward{Next: next}, total: &payloadBytes}
		}),
	}
	ts := httptest.NewServer(s.handler())
	defer ts.Close()

	code, got := postFanout(t, ts, "/fanout", "meter")
	if code != http.StatusOK {
		t.Fatalf("status = %d, body %q", code, got)
	}
	if want := wantFanout("meter", 2); got != want {
		t.Fatalf("fanout = %q, want %q", got, want)
	}
	if payloadBytes.Load() == 0 {
		t.Fatal("user interceptor observed no payload bytes")
	}
}

type byteMeter struct {
	windar.Forward
	total *atomic.Int64
}

func (b *byteMeter) Deliver(m *windar.Msg) {
	b.total.Add(int64(len(m.Payload)))
	b.Forward.Deliver(m)
}

func TestGatewayHealthz(t *testing.T) {
	ts := httptest.NewServer(newServer(windar.TransportMem, 2).handler())
	defer ts.Close()
	resp, err := http.Get(ts.URL + "/healthz")
	if err != nil {
		t.Fatalf("GET /healthz: %v", err)
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("status = %d", resp.StatusCode)
	}
}

// TestDemoMode runs the -demo path end to end (what make examples
// executes).
func TestDemoMode(t *testing.T) {
	if err := runDemo(newServer(windar.TransportMem, 2)); err != nil {
		t.Fatalf("demo: %v", err)
	}
}
