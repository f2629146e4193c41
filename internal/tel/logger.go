// Package tel implements the TEL baseline: causal message logging with a
// stable event logger, in the style of Bouteiller et al. [IPDPS'05] — the
// second comparator of the paper's Fig. 6 and Fig. 7.
//
// Each delivery's determinant is sent asynchronously to a stable event
// logger. Until the logger acknowledges it, the determinant must be
// piggybacked causally, exactly like classic causal logging; once stable,
// piggybacking stops. Piggyback volume is therefore bounded by the
// message rate times the logger round-trip — smaller than TAG's
// ever-growing graph but still a multiple of TDI's flat vector, and the
// scheme adds determinant traffic and a stable-storage service that TDI
// does not need.
package tel

import (
	"sort"
	"sync"
	"time"

	"windar/internal/clock"
	"windar/internal/determinant"
	"windar/internal/vclock"
)

// Logger is the shared stable event-logger service. One instance serves
// the whole cluster; it survives every rank failure (it models a
// dedicated stable node). Safe for concurrent use.
//
// The logger is a single-server queue: requests from all ranks are
// serviced one at a time, each paying the stable-storage latency. Under
// load the queue backs up and acknowledgements lag — the centralized
// event-logger scalability limit the literature attacks with distributed
// event logging (Ropars & Morin [9]), and the reason TEL's piggyback
// window grows with system scale in Fig. 6.
type Logger struct {
	clk     clock.Clock
	latency time.Duration

	mu         sync.Mutex
	byReceiver map[int]map[int64]determinant.D // receiver -> deliverIndex -> det
	stableUpTo vclock.Vec                      // contiguous stable prefix per receiver
	logged     int64

	reqMu   sync.Mutex
	reqCond *sync.Cond
	queue   []logReq

	closeOnce sync.Once
	closed    chan struct{}
	served    chan struct{} // closed when serve returns
}

type logReq struct {
	batch []determinant.D
	ack   func(vclock.Vec)
}

// NewLogger returns a logger for an n-process system whose log operations
// each occupy the single logger server for latency (the stable-storage
// round trip).
func NewLogger(n int, clk clock.Clock, latency time.Duration) *Logger {
	if clk == nil {
		clk = clock.Real{}
	}
	lg := &Logger{
		clk:        clk,
		latency:    latency,
		byReceiver: make(map[int]map[int64]determinant.D),
		stableUpTo: vclock.New(n),
		closed:     make(chan struct{}),
		served:     make(chan struct{}),
	}
	lg.reqCond = sync.NewCond(&lg.reqMu)
	go lg.serve()
	return lg
}

// Close aborts in-flight log requests (their acks never fire) and returns
// once the server goroutine has: no commit or ack follows it.
func (lg *Logger) Close() {
	lg.closeOnce.Do(func() {
		close(lg.closed)
		lg.reqMu.Lock()
		lg.reqCond.Broadcast()
		lg.reqMu.Unlock()
	})
	<-lg.served
}

// LogAsync enqueues ds for durable recording; once the single logger
// server has processed the request (after queueing plus the service
// latency) it invokes ack with the logger's stable vector (per-receiver
// contiguous stable delivery prefix). The ack runs on the logger's
// goroutine with no logger lock held; callers synchronize their own
// state inside ack.
func (lg *Logger) LogAsync(ds []determinant.D, ack func(stable vclock.Vec)) {
	batch := make([]determinant.D, len(ds))
	copy(batch, ds)
	lg.reqMu.Lock()
	lg.queue = append(lg.queue, logReq{batch: batch, ack: ack})
	lg.reqCond.Signal()
	lg.reqMu.Unlock()
}

// serve is the single-server loop.
func (lg *Logger) serve() {
	defer close(lg.served)
	for {
		lg.reqMu.Lock()
		for len(lg.queue) == 0 {
			select {
			case <-lg.closed:
				lg.reqMu.Unlock()
				return
			default:
			}
			lg.reqCond.Wait()
		}
		req := lg.queue[0]
		lg.queue = lg.queue[1:]
		lg.reqMu.Unlock()

		if lg.latency > 0 {
			select {
			case <-lg.clk.After(lg.latency):
			case <-lg.closed:
				return
			}
		}
		select {
		case <-lg.closed:
			return
		default:
		}
		stable := lg.commit(req.batch)
		if req.ack != nil {
			req.ack(stable)
		}
	}
}

func (lg *Logger) commit(ds []determinant.D) vclock.Vec {
	lg.mu.Lock()
	defer lg.mu.Unlock()
	for _, d := range ds {
		m := lg.byReceiver[d.Receiver]
		if m == nil {
			m = make(map[int64]determinant.D)
			lg.byReceiver[d.Receiver] = m
		}
		if _, ok := m[d.DeliverIndex]; !ok {
			m[d.DeliverIndex] = d
			lg.logged++
		}
	}
	// Advance each touched receiver's contiguous prefix.
	for _, d := range ds {
		r := d.Receiver
		if r < 0 || r >= len(lg.stableUpTo) {
			continue
		}
		m := lg.byReceiver[r]
		for {
			if _, ok := m[lg.stableUpTo[r]+1]; !ok {
				break
			}
			lg.stableUpTo[r]++
		}
	}
	return lg.stableUpTo.Clone()
}

// StableVec returns the current per-receiver contiguous stable prefix.
func (lg *Logger) StableVec() vclock.Vec {
	lg.mu.Lock()
	defer lg.mu.Unlock()
	return lg.stableUpTo.Clone()
}

// FetchFor returns receiver's stable determinants with DeliverIndex >
// after, in delivery order — the recovery read an incarnation performs
// before rolling forward.
func (lg *Logger) FetchFor(receiver int, after int64) []determinant.D {
	if lg.latency > 0 {
		select {
		case <-lg.clk.After(lg.latency):
		case <-lg.closed:
			return nil
		}
	}
	lg.mu.Lock()
	defer lg.mu.Unlock()
	var out []determinant.D
	for idx, d := range lg.byReceiver[receiver] {
		if idx > after {
			out = append(out, d)
		}
	}
	sort.Slice(out, func(i, j int) bool { return out[i].DeliverIndex < out[j].DeliverIndex })
	return out
}

// Logged reports the number of distinct determinants recorded.
func (lg *Logger) Logged() int64 {
	lg.mu.Lock()
	defer lg.mu.Unlock()
	return lg.logged
}

// Prune discards receiver's determinants at or below upto (its checkpoint
// made them unreplayable).
func (lg *Logger) Prune(receiver int, upto int64) {
	lg.mu.Lock()
	defer lg.mu.Unlock()
	m := lg.byReceiver[receiver]
	for idx := range m {
		if idx <= upto {
			delete(m, idx)
		}
	}
	if receiver >= 0 && receiver < len(lg.stableUpTo) && lg.stableUpTo[receiver] < upto {
		lg.stableUpTo[receiver] = upto
	}
}
