package npb

import (
	"fmt"
	"math"

	"windar/internal/app"
	"windar/internal/mpi"
)

// btComp is BT's per-cell payload factor: the solver works on 5x5 blocks,
// so a face carries 25 values per cell — the large-message, large-state
// benchmark.
const btComp = 25

// spComp is SP's scalar penta-diagonal factor.
const spComp = 5

// adiApp is the shared ADI (alternating direction implicit) skeleton of
// BT and SP: each pseudo-time step performs forward and backward line
// sweeps along the x and then the y process-grid dimension, exchanging
// one whole block face per neighbour per direction. BT's faces are 5x
// larger than SP's; SP compensates with roughly twice the iterations and
// an auxiliary rhs field (its "moderate" character in the paper).
type adiApp struct {
	grid
	p    Params
	name string
	rhs  []float64 // SP only: auxiliary field, doubles the state
}

var _ app.App = (*adiApp)(nil)

// BT returns the factory for the BT benchmark.
func BT(p Params) (app.Factory, error) {
	if err := p.Validate(); err != nil {
		return nil, err
	}
	return func(rank, n int) app.App {
		return &adiApp{grid: newGrid(rank, n, p, btComp), p: p, name: "bt"}
	}, nil
}

// SP returns the factory for the SP benchmark.
func SP(p Params) (app.Factory, error) {
	if err := p.Validate(); err != nil {
		return nil, err
	}
	return func(rank, n int) app.App {
		a := &adiApp{grid: newGrid(rank, n, p, spComp), p: p, name: "sp"}
		a.rhs = make([]float64, len(a.u))
		for i := range a.rhs {
			a.rhs[i] = 0.5 * a.u[i]
		}
		return a
	}, nil
}

// Benchmark returns the factory for name: "lu", "bt" or "sp" (the
// paper's set), or "cg" (this repository's extension workload).
func Benchmark(name string, p Params) (app.Factory, error) {
	switch name {
	case "lu":
		return LU(p)
	case "bt":
		return BT(p)
	case "sp":
		return SP(p)
	case "cg":
		return CG(p)
	default:
		return nil, fmt.Errorf("npb: unknown benchmark %q (want lu, bt, sp or cg)", name)
	}
}

// Steps implements app.App.
func (a *adiApp) Steps() int { return a.p.Iterations }

// Snapshot implements app.App: u, plus rhs for SP.
func (a *adiApp) Snapshot() []byte { return a.snapshot(a.u, a.rhs) }

// Restore implements app.App.
func (a *adiApp) Restore(b []byte) error {
	base := 8 * len(a.u)
	if a.rhs != nil {
		if len(b) != base+8*len(a.rhs) {
			return fmt.Errorf("npb: %s snapshot size %d, want %d", a.name, len(b), base+8*len(a.rhs))
		}
		copy(a.rhs, decodeF64s(b[base:]))
		b = b[:base]
	}
	return a.restore(b)
}

// Step implements app.App: x-direction forward and backward sweeps, then
// y-direction, then the periodic residual Allreduce. One face message per
// neighbour per direction — 4 large messages per step at most.
func (a *adiApp) Step(env app.Env, s int) {
	west := a.neighbour(-1, 0)
	east := a.neighbour(1, 0)
	north := a.neighbour(0, -1)
	south := a.neighbour(0, 1)

	// x forward: west -> east pipeline.
	var face []float64
	if west >= 0 {
		b, _ := env.Recv(west, tagFaceXF)
		face = a.decode(0, b)
	}
	a.sweepX(face, true)
	if east >= 0 {
		env.Send(east, tagFaceXF, a.encode(a.faceX(a.nx-1)))
	}
	// x backward: east -> west.
	face = nil
	if east >= 0 {
		b, _ := env.Recv(east, tagFaceXB)
		face = a.decode(0, b)
	}
	a.sweepX(face, false)
	if west >= 0 {
		env.Send(west, tagFaceXB, a.encode(a.faceX(0)))
	}
	// y forward: north -> south.
	face = nil
	if north >= 0 {
		b, _ := env.Recv(north, tagFaceYF)
		face = a.decode(0, b)
	}
	a.sweepY(face, true)
	if south >= 0 {
		env.Send(south, tagFaceYF, a.encode(a.faceY(a.ny-1)))
	}
	// y backward: south -> north.
	face = nil
	if south >= 0 {
		b, _ := env.Recv(south, tagFaceYB)
		face = a.decode(0, b)
	}
	a.sweepY(face, false)
	if north >= 0 {
		env.Send(north, tagFaceYB, a.encode(a.faceY(0)))
	}

	if a.rhs != nil {
		// SP's extra local smoothing against the auxiliary field.
		for i, v := range a.u {
			a.rhs[i] = 0.95*a.rhs[i] + 0.05*v
			a.u[i] += 0.01 * (a.rhs[i] - v)
		}
	}

	if a.p.NormEvery > 0 && (s+1)%a.p.NormEvery == 0 {
		norm := mpi.Allreduce(env, normTagBase, []float64{a.localNormSq()}, mpi.Sum, &a.coll)
		a.u[0] += 1e-12 * math.Sqrt(norm[0])
	}
}

// faceX extracts the full y-z face at local x-index i (ny*nz*comp
// values) — BT's 28 KiB-class message at N=12 — into the line scratch.
func (a *adiApp) faceX(i int) []float64 {
	out := a.lineBuf(a.ny * a.nz * a.comp)
	p := 0
	for j := 0; j < a.ny; j++ {
		for k := 0; k < a.nz; k++ {
			for c := 0; c < a.comp; c++ {
				out[p] = a.u[a.idx(i, j, k, c)]
				p++
			}
		}
	}
	return out
}

// faceY extracts the full x-z face at local y-index j into the line
// scratch.
func (a *adiApp) faceY(j int) []float64 {
	out := a.lineBuf(a.nx * a.nz * a.comp)
	p := 0
	for i := 0; i < a.nx; i++ {
		for k := 0; k < a.nz; k++ {
			for c := 0; c < a.comp; c++ {
				out[p] = a.u[a.idx(i, j, k, c)]
				p++
			}
		}
	}
	return out
}

// sweepX performs the forward (ascending i) or backward substitution
// along x, seeding the first line from the received face or the domain
// boundary.
func (a *adiApp) sweepX(face []float64, forward bool) {
	for t := 0; t < a.nx; t++ {
		i := t
		if !forward {
			i = a.nx - 1 - t
		}
		for j := 0; j < a.ny; j++ {
			for k := 0; k < a.nz; k++ {
				for c := 0; c < a.comp; c++ {
					var prev float64
					first := (forward && i == 0) || (!forward && i == a.nx-1)
					switch {
					case !first && forward:
						prev = a.u[a.idx(i-1, j, k, c)]
					case !first && !forward:
						prev = a.u[a.idx(i+1, j, k, c)]
					case face != nil:
						prev = face[(j*a.nz+k)*a.comp+c]
					default:
						gx := a.x0 - 1
						if !forward {
							gx = a.x0 + a.nx
						}
						prev = bc(gx, a.y0+j, k, c)
					}
					id := a.idx(i, j, k, c)
					a.u[id] = 0.9*a.u[id] + 0.1*prev + 5e-5*float64(c%5+1)
				}
			}
		}
	}
}

// sweepY is sweepX along the y dimension.
func (a *adiApp) sweepY(face []float64, forward bool) {
	for t := 0; t < a.ny; t++ {
		j := t
		if !forward {
			j = a.ny - 1 - t
		}
		for i := 0; i < a.nx; i++ {
			for k := 0; k < a.nz; k++ {
				for c := 0; c < a.comp; c++ {
					var prev float64
					first := (forward && j == 0) || (!forward && j == a.ny-1)
					switch {
					case !first && forward:
						prev = a.u[a.idx(i, j-1, k, c)]
					case !first && !forward:
						prev = a.u[a.idx(i, j+1, k, c)]
					case face != nil:
						prev = face[(i*a.nz+k)*a.comp+c]
					default:
						gy := a.y0 - 1
						if !forward {
							gy = a.y0 + a.ny
						}
						prev = bc(a.x0+i, gy, k, c)
					}
					id := a.idx(i, j, k, c)
					a.u[id] = 0.9*a.u[id] + 0.1*prev + 5e-5*float64(c%5+1)
				}
			}
		}
	}
}
