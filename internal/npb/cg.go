package npb

import (
	"encoding/binary"
	"fmt"
	"math"

	"windar/internal/app"
	"windar/internal/mpi"
)

// cgApp is a CG (conjugate gradient) benchmark in the spirit of NPB CG,
// added beyond the paper's three benchmarks as an extension workload
// with yet another communication character: collective-dominated — every
// inner iteration performs two global Allreduce dot products plus a
// small halo exchange for the sparse matrix-vector product. Checkpoint
// state is small (three local vectors), message size tiny, and the
// causal dependency chains are global rather than neighbour-local, which
// stresses the transitive part of dependency tracking.
//
// The system solved is the 1-D Laplacian A = tridiag(-1, 2+eps, -1) over
// a vector of p.N^2 entries, block-distributed across ranks; b is a
// deterministic right-hand side. The math is a real CG recurrence whose
// state evolves deterministically, so snapshots double as checksums.
type cgApp struct {
	rank, nProcs int
	p            Params
	m            int // local vector length
	off          int // global offset
	x, r, pv     []float64
	q            []float64 // matvec's result, reused: consumed within the iteration
	rho          float64
	innerPer     int
	msgBufs
}

var _ app.App = (*cgApp)(nil)

// cgInnerPerStep is the number of CG iterations per application step.
const cgInnerPerStep = 4

// CG returns the factory for the conjugate-gradient extension benchmark.
func CG(p Params) (app.Factory, error) {
	if err := p.Validate(); err != nil {
		return nil, err
	}
	return func(rank, n int) app.App {
		total := p.N * p.N
		m, off := blockSpan(total, n, rank)
		a := &cgApp{
			rank: rank, nProcs: n, p: p,
			m: m, off: off,
			x:        make([]float64, m),
			r:        make([]float64, m),
			pv:       make([]float64, m),
			q:        make([]float64, m),
			innerPer: cgInnerPerStep,
		}
		// x0 = 0, r0 = b, p0 = r0.
		for i := 0; i < m; i++ {
			b := 1 + 0.001*float64(off+i)
			a.r[i] = b
			a.pv[i] = b
		}
		a.rho = -1 // computed on first step
		return a
	}, nil
}

// Steps implements app.App.
func (a *cgApp) Steps() int { return a.p.Iterations }

// Step implements app.App: innerPer CG iterations, each with one halo
// exchange (matvec) and two Allreduces (dot products).
func (a *cgApp) Step(env app.Env, s int) {
	if a.rho < 0 {
		a.rho = a.globalDot(env, a.r, a.r)
	}
	for it := 0; it < a.innerPer; it++ {
		q := a.matvec(env, a.pv)
		pq := a.globalDot(env, a.pv, q)
		if pq == 0 {
			return // converged exactly; keep the state frozen
		}
		alpha := a.rho / pq
		for i := range a.x {
			a.x[i] += alpha * a.pv[i]
			a.r[i] -= alpha * q[i]
		}
		rhoNew := a.globalDot(env, a.r, a.r)
		beta := rhoNew / a.rho
		a.rho = rhoNew
		for i := range a.pv {
			a.pv[i] = a.r[i] + beta*a.pv[i]
		}
	}
}

// matvec computes A*v for the distributed tridiagonal operator; the
// first/last local entries need one halo value from each linear
// neighbour.
func (a *cgApp) matvec(env app.Env, v []float64) []float64 {
	left, right := a.rank-1, a.rank+1
	if a.m == 0 {
		return nil
	}
	if left >= 0 {
		env.Send(left, 11, a.encode(v[:1]))
	}
	if right < a.nProcs {
		env.Send(right, 12, a.encode(v[a.m-1:]))
	}
	lo, hi := 0.0, 0.0
	if right < a.nProcs {
		data, _ := env.Recv(right, 11)
		hi = a.decode(0, data)[0]
	}
	if left >= 0 {
		data, _ := env.Recv(left, 12)
		lo = a.decode(0, data)[0]
	}
	const diag = 2.0001
	q := a.q
	for i := range q {
		l, r := lo, hi
		if i > 0 {
			l = v[i-1]
		}
		if i < a.m-1 {
			r = v[i+1]
		}
		q[i] = diag*v[i] - l - r
	}
	return q
}

// globalDot is the Allreduce dot product.
func (a *cgApp) globalDot(env app.Env, u, v []float64) float64 {
	var local float64
	for i := range u {
		local += u[i] * v[i]
	}
	return mpi.Allreduce(env, normTagBase, []float64{local}, mpi.Sum, &a.coll)[0]
}

// Snapshot implements app.App: x, r, p and rho.
func (a *cgApp) Snapshot() []byte {
	out := make([]byte, 0, 8*(3*a.m+1))
	out = append(out, encodeF64s(a.x)...)
	out = append(out, encodeF64s(a.r)...)
	out = append(out, encodeF64s(a.pv)...)
	var b [8]byte
	binary.LittleEndian.PutUint64(b[:], math.Float64bits(a.rho))
	return append(out, b[:]...)
}

// Restore implements app.App.
func (a *cgApp) Restore(data []byte) error {
	want := 8 * (3*a.m + 1)
	if len(data) != want {
		return fmt.Errorf("npb: cg snapshot size %d, want %d", len(data), want)
	}
	sz := 8 * a.m
	copy(a.x, decodeF64s(data[:sz]))
	copy(a.r, decodeF64s(data[sz:2*sz]))
	copy(a.pv, decodeF64s(data[2*sz:3*sz]))
	a.rho = math.Float64frombits(binary.LittleEndian.Uint64(data[3*sz:]))
	return nil
}

// Residual returns the current local residual norm contribution
// (diagnostics).
func (a *cgApp) Residual() float64 {
	var s float64
	for _, v := range a.r {
		s += v * v
	}
	return s
}
