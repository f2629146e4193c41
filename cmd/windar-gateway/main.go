// Command windar-gateway demonstrates windar as an embeddable library:
// an HTTP service whose request fan-out runs over a causally-logged
// rank cluster instead of plain goroutines. Each request scatters its
// body to a set of worker ranks, every worker transforms its copy, and
// the coordinator gathers the results — with the full message-logging
// machinery (TDI piggybacks, sender logs, checkpoint/recovery)
// underneath, so a worker failure mid-request is recovered
// transparently instead of failing the request.
//
// Endpoints:
//
//	POST /fanout        scatter the body to the workers, gather the
//	                    transformed shards; ?kill=<rank> injects a
//	                    worker failure + recovery mid-request
//	GET  /healthz       liveness
//	GET  /stats         gateway counters (requests, cluster messages
//	                    observed by the embedded interceptor, recoveries)
//
// The gateway deliberately imports only the public windar package — the
// windar-lint pubapi analyzer enforces it — as the reference for what an
// embedding service can reach.
package main

import (
	"bytes"
	"encoding/json"
	"flag"
	"fmt"
	"io"
	"log"
	"net/http"
	"os"
	"strconv"
	"sync/atomic"

	"windar"
)

// fanApp is the per-request application: rank 0 scatters the request
// payload to every worker rank, each worker transforms its copy, and
// rank 0 gathers the shards in rank order. It is deterministic and
// restartable, so a killed worker is recovered by replaying its logged
// messages and the request still completes with the same bytes.
type fanApp struct {
	rank, n int
	payload []byte // request body (coordinator only)
	result  []byte // gathered response (coordinator only)
}

// Steps implements windar.App.
func (a *fanApp) Steps() int { return 1 }

// Step implements windar.App: one scatter-gather round.
func (a *fanApp) Step(env windar.Env, s int) {
	if a.rank == 0 {
		for w := 1; w < a.n; w++ {
			env.Send(w, 0, a.payload)
		}
		parts := make([][]byte, a.n)
		for w := 1; w < a.n; w++ {
			data, from := env.Recv(windar.AnySource, 0)
			parts[from] = bytes.Clone(data) // data is lent only until the next Recv
		}
		var buf bytes.Buffer
		for w := 1; w < a.n; w++ {
			if w > 1 {
				buf.WriteByte('\n')
			}
			buf.Write(parts[w])
		}
		a.result = buf.Bytes()
		return
	}
	data, _ := env.Recv(0, 0)
	env.Send(0, 0, transform(a.rank, data))
}

// transform is the per-worker shard computation: tag the shard with the
// worker's identity and upper-case it.
func transform(rank int, data []byte) []byte {
	return append([]byte(fmt.Sprintf("worker-%d:", rank)), bytes.ToUpper(data)...)
}

// Snapshot implements windar.App.
func (a *fanApp) Snapshot() []byte { return append([]byte(nil), a.result...) }

// Restore implements windar.App.
func (a *fanApp) Restore(b []byte) error {
	a.result = append([]byte(nil), b...)
	return nil
}

// gatewayStats is the /stats payload.
type gatewayStats struct {
	Requests      int64 `json:"requests"`
	Failures      int64 `json:"failures"`
	Recoveries    int64 `json:"recoveries"`
	Checkpoints   int64 `json:"checkpoints"`
	MsgsSent      int64 `json:"msgs_sent"`
	MsgsDelivered int64 `json:"msgs_delivered"`
}

// chainCounter is the gateway's embedded interceptor: one instance is
// shared by every rank of every request cluster and tallies the cluster
// traffic flowing under the HTTP surface. Wrap hands each rank
// incarnation its own forwarding layer around the shared counters.
type chainCounter struct {
	sent, delivered, restores, checkpoints atomic.Int64
}

// Wrap implements windar.Interceptor.
func (c *chainCounter) Wrap(next windar.Handler) windar.Handler {
	return &countingLayer{Forward: windar.Forward{Next: next}, c: c}
}

type countingLayer struct {
	windar.Forward
	c *chainCounter
}

func (l *countingLayer) Send(m *windar.Msg) {
	l.c.sent.Add(1)
	l.Forward.Send(m)
}

func (l *countingLayer) Deliver(m *windar.Msg) {
	l.c.delivered.Add(1)
	l.Forward.Deliver(m)
}

func (l *countingLayer) Restore(info *windar.RestoreInfo) {
	l.c.restores.Add(1)
	l.Forward.Restore(info)
}

func (l *countingLayer) Checkpoint(info *windar.CheckpointInfo) {
	l.c.checkpoints.Add(1)
	l.Forward.Checkpoint(info)
}

// server is the gateway: HTTP in front, a short-lived causally-logged
// cluster per request behind.
type server struct {
	transport windar.TransportKind
	workers   int
	protocol  windar.Protocol

	counter   chainCounter
	requests  atomic.Int64
	failures  atomic.Int64
	userChain []windar.Interceptor // extra layers under test
}

// newServer builds the gateway over the given transport with workers
// worker ranks per request.
func newServer(transport windar.TransportKind, workers int) *server {
	return &server{transport: transport, workers: workers, protocol: windar.TDI}
}

// handler returns the gateway's HTTP surface.
func (s *server) handler() http.Handler {
	mux := http.NewServeMux()
	mux.HandleFunc("/fanout", s.handleFanout)
	mux.HandleFunc("/healthz", func(w http.ResponseWriter, r *http.Request) {
		fmt.Fprintln(w, "ok")
	})
	mux.HandleFunc("/stats", s.handleStats)
	return mux
}

// maxBody bounds the request payload a fan-out accepts.
const maxBody = 1 << 20

// handleFanout runs one scatter-gather request through a fresh cluster.
func (s *server) handleFanout(w http.ResponseWriter, req *http.Request) {
	if req.Method != http.MethodPost {
		http.Error(w, "POST only", http.StatusMethodNotAllowed)
		return
	}
	body, err := io.ReadAll(io.LimitReader(req.Body, maxBody))
	if err != nil {
		http.Error(w, err.Error(), http.StatusBadRequest)
		return
	}
	kill := 0
	if v := req.URL.Query().Get("kill"); v != "" {
		kill, err = strconv.Atoi(v)
		if err != nil || kill < 1 || kill > s.workers {
			http.Error(w, fmt.Sprintf("kill must name a worker rank 1..%d", s.workers), http.StatusBadRequest)
			return
		}
	}
	result, err := s.fanout(body, kill)
	if err != nil {
		s.failures.Add(1)
		http.Error(w, err.Error(), http.StatusInternalServerError)
		return
	}
	s.requests.Add(1)
	w.Header().Set("Content-Type", "text/plain; charset=utf-8")
	w.Write(result)
}

// fanout executes one request on a fresh cluster: ranks 0..workers with
// rank 0 coordinating. kill > 0 fails that worker mid-request and
// recovers it; the causal log replays whatever the worker lost, so the
// response is byte-identical to the failure-free run.
func (s *server) fanout(payload []byte, kill int) ([]byte, error) {
	n := s.workers + 1
	cfg := windar.Config{
		Procs:        n,
		Protocol:     s.protocol,
		Transport:    s.transport,
		Interceptors: append([]windar.Interceptor{&s.counter}, s.userChain...),
	}
	factory := func(rank, procs int) windar.App {
		return &fanApp{rank: rank, n: procs, payload: payload}
	}
	c, err := windar.NewCluster(cfg, factory)
	if err != nil {
		return nil, err
	}
	defer c.Close()
	if err := c.Start(); err != nil {
		return nil, err
	}
	if kill > 0 {
		if err := c.KillAndRecover(kill, 0); err != nil {
			return nil, err
		}
	}
	c.Wait()
	return c.AppSnapshot(0), nil
}

// handleStats serves the gateway counters.
func (s *server) handleStats(w http.ResponseWriter, req *http.Request) {
	st := gatewayStats{
		Requests:      s.requests.Load(),
		Failures:      s.failures.Load(),
		Recoveries:    s.counter.restores.Load(),
		Checkpoints:   s.counter.checkpoints.Load(),
		MsgsSent:      s.counter.sent.Load(),
		MsgsDelivered: s.counter.delivered.Load(),
	}
	w.Header().Set("Content-Type", "application/json")
	json.NewEncoder(w).Encode(st)
}

func main() {
	var (
		addr    = flag.String("addr", "127.0.0.1:8087", "listen address")
		workers = flag.Int("workers", 3, "worker ranks per request")
		tport   = flag.String("transport", string(windar.TransportMem), "cluster transport: mem or tcp")
		demo    = flag.Bool("demo", false, "serve nothing; run one in-process request (with a failure) and exit")
	)
	flag.Parse()
	s := newServer(windar.TransportKind(*tport), *workers)
	if *demo {
		if err := runDemo(s); err != nil {
			fmt.Fprintln(os.Stderr, "windar-gateway:", err)
			os.Exit(1)
		}
		return
	}
	log.Printf("windar-gateway: listening on %s (%d workers per request, %s transport)", *addr, *workers, *tport)
	log.Fatal(http.ListenAndServe(*addr, s.handler()))
}

// runDemo exercises the gateway end to end without a listener: one
// failure-free request, one with a worker killed and recovered
// mid-request, and the stats the embedded interceptor collected.
func runDemo(s *server) error {
	clean, err := s.fanout([]byte("hello causal logging"), 0)
	if err != nil {
		return err
	}
	fmt.Printf("fan-out over %d workers (%s transport):\n%s\n", s.workers, s.transport, clean)
	faulty, err := s.fanout([]byte("hello causal logging"), 1)
	if err != nil {
		return err
	}
	if !bytes.Equal(clean, faulty) {
		return fmt.Errorf("response diverged after worker failure:\n%s", faulty)
	}
	fmt.Printf("worker 1 killed and recovered mid-request: response identical\n")
	fmt.Printf("cluster traffic under the gateway: %d sends, %d deliveries, %d restores\n",
		s.counter.sent.Load(), s.counter.delivered.Load(), s.counter.restores.Load())
	return nil
}
