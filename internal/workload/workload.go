// Package workload provides small synthetic message-passing applications
// — a token ring, a 1-D halo exchange, an AnySource master/worker, and a
// deterministic random-pairs pattern. They complement the NPB kernels as
// cheap, shape-controllable fodder for tests, examples and ablation
// benches.
package workload

import (
	"encoding/binary"
	"fmt"

	"windar/internal/app"
	"windar/internal/mpi"
)

func u64(v uint64) []byte {
	var b [8]byte
	binary.BigEndian.PutUint64(b[:], v)
	return b[:]
}

func du64(b []byte) uint64 {
	if len(b) != 8 {
		panic(fmt.Sprintf("workload: bad payload length %d", len(b)))
	}
	return binary.BigEndian.Uint64(b)
}

// state is the shared 8-byte-checksum app core; every Snapshot reuses snap.
type state struct {
	rank, n, steps int
	sum            uint64
	snap           [8]byte
}

func (s *state) Steps() int       { return s.steps }
func (s *state) Snapshot() []byte { return binary.BigEndian.AppendUint64(s.snap[:0], s.sum) }

func (s *state) Restore(b []byte) error {
	if len(b) != 8 {
		return fmt.Errorf("workload: bad snapshot length %d", len(b))
	}
	s.sum = du64(b)
	return nil
}

// fold mixes v into the checksum (order-sensitive).
func (s *state) fold(v uint64) { s.sum = s.sum*1099511628211 + v }

// Ring circulates a value around the ring every step: rank r sends to
// r+1 and receives from r-1. Deterministic, one message per rank per
// step.
type Ring struct{ state }

// NewRing returns the ring factory with the given step count.
func NewRing(steps int) app.Factory {
	return func(rank, n int) app.App {
		return &Ring{state{rank: rank, n: n, steps: steps}}
	}
}

// Step implements app.App.
func (r *Ring) Step(env app.Env, s int) {
	env.Send((r.rank+1)%r.n, 0, u64(r.sum+uint64(s)+uint64(r.rank)*7919))
	data, _ := env.Recv((r.rank-1+r.n)%r.n, 0)
	r.fold(du64(data))
}

// Halo is a 1-D halo exchange: every step each rank swaps values with
// both linear neighbours — two messages per rank per step, the skeleton
// of a stencil code.
type Halo struct{ state }

// NewHalo returns the halo factory.
func NewHalo(steps int) app.Factory {
	return func(rank, n int) app.App {
		return &Halo{state{rank: rank, n: n, steps: steps}}
	}
}

// Step implements app.App.
func (h *Halo) Step(env app.Env, s int) {
	left, right := h.rank-1, h.rank+1
	payload := u64(h.sum + uint64(s))
	if left >= 0 {
		env.Send(left, 1, payload)
	}
	if right < h.n {
		env.Send(right, 2, payload)
	}
	if right < h.n {
		data, _ := env.Recv(right, 1)
		h.fold(du64(data))
	}
	if left >= 0 {
		data, _ := env.Recv(left, 2)
		h.fold(du64(data) * 3)
	}
}

// MasterWorker is the paper's Section II.C pattern: workers send results
// to rank 0, which receives them with AnySource — non-deterministic
// delivery order — and must therefore accumulate commutatively before
// broadcasting the total back.
type MasterWorker struct{ state }

// NewMasterWorker returns the master/worker factory.
func NewMasterWorker(steps int) app.Factory {
	return func(rank, n int) app.App {
		return &MasterWorker{state{rank: rank, n: n, steps: steps}}
	}
}

// Step implements app.App.
func (m *MasterWorker) Step(env app.Env, s int) {
	if m.rank == 0 {
		var total uint64
		for i := 1; i < m.n; i++ {
			data, _ := env.Recv(app.AnySource, 3)
			total += du64(data) // commutative: arrival order is free
		}
		m.sum += total
		for i := 1; i < m.n; i++ {
			env.Send(i, 4, u64(m.sum))
		}
	} else {
		env.Send(0, 3, u64(uint64(m.rank)*104729+uint64(s)*31+m.sum%1000))
		data, _ := env.Recv(0, 4)
		m.sum = du64(data)
	}
}

// Pairs exchanges messages between deterministically "random" pairs each
// step: rank r talks to rank r XOR pattern(s), exercising varied
// communication graphs. When the partner is out of range (non-power-of-2
// n), the rank synchronises via a collective instead.
type Pairs struct {
	state
	coll mpi.Buffers // scratch, not state
}

// NewPairs returns the pairs factory.
func NewPairs(steps int) app.Factory {
	return func(rank, n int) app.App {
		return &Pairs{state: state{rank: rank, n: n, steps: steps}}
	}
}

// Step implements app.App.
func (p *Pairs) Step(env app.Env, s int) {
	mask := 1 << (s % 4)
	partner := p.rank ^ mask
	if partner < p.n {
		env.Send(partner, 5, u64(p.sum+uint64(s)))
		data, _ := env.Recv(partner, 5)
		p.fold(du64(data))
	}
	// A periodic allreduce couples everyone causally.
	if (s+1)%4 == 0 {
		res := mpi.Allreduce(env, 1<<20, []float64{float64(p.sum % 1024)}, mpi.Sum, &p.coll)
		p.fold(uint64(res[0]))
	}
}

// Flood is a windowed ring flood: every step rank r pushes a window of
// messages to r+1 before draining the matching window from r-1. The
// window keeps many in-flight messages per source, so the delivery path
// — not the application — is the bottleneck; the throughput bench is
// built on it.
type Flood struct {
	state
	window int
	// buf is the send-payload scratch: Env.Send copies the payload
	// before returning, so one buffer serves every send without
	// allocating per message.
	buf [8]byte
}

// DefaultFloodWindow is the in-flight window ByName("flood") selects.
const DefaultFloodWindow = 8

// NewFlood returns the flood factory with the given step count and
// per-step window (messages sent before the first receive).
func NewFlood(steps, window int) app.Factory {
	if window <= 0 {
		window = DefaultFloodWindow
	}
	return func(rank, n int) app.App {
		return &Flood{state: state{rank: rank, n: n, steps: steps}, window: window}
	}
}

// Step implements app.App.
func (f *Flood) Step(env app.Env, s int) {
	next, prev := (f.rank+1)%f.n, (f.rank-1+f.n)%f.n
	for i := 0; i < f.window; i++ {
		binary.BigEndian.PutUint64(f.buf[:], f.sum+uint64(s)*131+uint64(i))
		env.Send(next, 6, f.buf[:])
	}
	for i := 0; i < f.window; i++ {
		data, _ := env.Recv(prev, 6)
		f.fold(du64(data))
	}
}

// ByName returns a synthetic workload factory by name: "ring", "halo",
// "masterworker", "pairs" or "flood".
func ByName(name string, steps int) (app.Factory, error) {
	switch name {
	case "ring":
		return NewRing(steps), nil
	case "halo":
		return NewHalo(steps), nil
	case "masterworker":
		return NewMasterWorker(steps), nil
	case "pairs":
		return NewPairs(steps), nil
	case "flood":
		return NewFlood(steps, DefaultFloodWindow), nil
	default:
		return nil, fmt.Errorf("workload: unknown workload %q", name)
	}
}
