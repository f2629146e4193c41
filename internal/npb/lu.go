package npb

import (
	"math"

	"windar/internal/app"
	"windar/internal/mpi"
)

// luComp is the number of solution components per cell (the five
// conservation variables of the NPB LU solver).
const luComp = 5

// luApp is the LU analogue: an SSOR-style solver whose lower and upper
// triangular sweeps form 2-D pipelined wavefronts over the process grid,
// exchanging one small boundary line per k-plane per neighbour — the
// high-message-frequency, small-message workload of the paper's Fig. 6/7.
type luApp struct {
	grid
	p Params
}

var _ app.App = (*luApp)(nil)

// LU returns the factory for the LU benchmark.
func LU(p Params) (app.Factory, error) {
	if err := p.Validate(); err != nil {
		return nil, err
	}
	return func(rank, n int) app.App {
		return &luApp{grid: newGrid(rank, n, p, luComp), p: p}
	}, nil
}

// Steps implements app.App.
func (a *luApp) Steps() int { return a.p.Iterations }

// Snapshot implements app.App.
func (a *luApp) Snapshot() []byte { return a.snapshot() }

// Restore implements app.App.
func (a *luApp) Restore(b []byte) error { return a.restore(b) }

// Step implements app.App: one SSOR pseudo-time step — a lower-triangular
// wavefront sweep (dependencies from west/north) followed by an
// upper-triangular sweep (dependencies from east/south), each pipelined
// across the nz k-planes, plus a periodic residual Allreduce.
func (a *luApp) Step(env app.Env, s int) {
	west := a.neighbour(-1, 0)
	east := a.neighbour(1, 0)
	north := a.neighbour(0, -1)
	south := a.neighbour(0, 1)

	for k := 0; k < a.nz; k++ {
		var wline, nline []float64
		if west >= 0 {
			b, _ := env.Recv(west, tagSweepLow)
			wline = a.decode(0, b)
		}
		if north >= 0 {
			b, _ := env.Recv(north, tagSweepLow)
			nline = a.decode(1, b)
		}
		a.lowerSweep(k, wline, nline)
		if east >= 0 {
			env.Send(east, tagSweepLow, a.encode(a.lineX(a.nx-1, k)))
		}
		if south >= 0 {
			env.Send(south, tagSweepLow, a.encode(a.lineY(a.ny-1, k)))
		}
	}

	for k := a.nz - 1; k >= 0; k-- {
		var eline, sline []float64
		if east >= 0 {
			b, _ := env.Recv(east, tagSweepHigh)
			eline = a.decode(0, b)
		}
		if south >= 0 {
			b, _ := env.Recv(south, tagSweepHigh)
			sline = a.decode(1, b)
		}
		a.upperSweep(k, eline, sline)
		if west >= 0 {
			env.Send(west, tagSweepHigh, a.encode(a.lineX(0, k)))
		}
		if north >= 0 {
			env.Send(north, tagSweepHigh, a.encode(a.lineY(0, k)))
		}
	}

	if a.p.NormEvery > 0 && (s+1)%a.p.NormEvery == 0 {
		norm := mpi.Allreduce(env, normTagBase, []float64{a.localNormSq()}, mpi.Sum, &a.coll)
		// Fold the global residual back into the state so the collective
		// is load-bearing for the correctness checksum.
		a.u[0] += 1e-12 * math.Sqrt(norm[0])
	}
}

// lineX extracts the boundary line at local x-index i for plane k
// (ny*comp values) into the line scratch.
func (a *luApp) lineX(i, k int) []float64 {
	out := a.lineBuf(a.ny * a.comp)
	for j := 0; j < a.ny; j++ {
		for c := 0; c < a.comp; c++ {
			out[j*a.comp+c] = a.u[a.idx(i, j, k, c)]
		}
	}
	return out
}

// lineY extracts the boundary line at local y-index j for plane k
// (nx*comp values) into the line scratch.
func (a *luApp) lineY(j, k int) []float64 {
	out := a.lineBuf(a.nx * a.comp)
	for i := 0; i < a.nx; i++ {
		for c := 0; c < a.comp; c++ {
			out[i*a.comp+c] = a.u[a.idx(i, j, k, c)]
		}
	}
	return out
}

// bc is the fixed domain-boundary value.
func bc(gx, gy, gz, c int) float64 {
	return 1 + 0.003*float64(gx+gy) + 0.002*float64(gz) + 0.05*float64(c+1)
}

// lowerSweep updates plane k in ascending (i, j) order, pulling
// dependencies from the west and north (remote lines at the block edge).
func (a *luApp) lowerSweep(k int, wline, nline []float64) {
	for i := 0; i < a.nx; i++ {
		for j := 0; j < a.ny; j++ {
			for c := 0; c < a.comp; c++ {
				var w, nv float64
				switch {
				case i > 0:
					w = a.u[a.idx(i-1, j, k, c)]
				case wline != nil:
					w = wline[j*a.comp+c]
				default:
					w = bc(a.x0-1, a.y0+j, k, c)
				}
				switch {
				case j > 0:
					nv = a.u[a.idx(i, j-1, k, c)]
				case nline != nil:
					nv = nline[i*a.comp+c]
				default:
					nv = bc(a.x0+i, a.y0-1, k, c)
				}
				kv := a.u[a.idx(i, j, k, c)]
				if k > 0 {
					kv = a.u[a.idx(i, j, k-1, c)]
				}
				id := a.idx(i, j, k, c)
				a.u[id] = 0.82*a.u[id] + 0.08*w + 0.06*nv + 0.04*kv +
					1e-4*float64(c+1)
			}
		}
	}
}

// upperSweep updates plane k in descending (i, j) order, pulling
// dependencies from the east and south.
func (a *luApp) upperSweep(k int, eline, sline []float64) {
	for i := a.nx - 1; i >= 0; i-- {
		for j := a.ny - 1; j >= 0; j-- {
			for c := 0; c < a.comp; c++ {
				var e, sv float64
				switch {
				case i < a.nx-1:
					e = a.u[a.idx(i+1, j, k, c)]
				case eline != nil:
					e = eline[j*a.comp+c]
				default:
					e = bc(a.x0+a.nx, a.y0+j, k, c)
				}
				switch {
				case j < a.ny-1:
					sv = a.u[a.idx(i, j+1, k, c)]
				case sline != nil:
					sv = sline[i*a.comp+c]
				default:
					sv = bc(a.x0+i, a.y0+a.ny, k, c)
				}
				kv := a.u[a.idx(i, j, k, c)]
				if k < a.nz-1 {
					kv = a.u[a.idx(i, j, k+1, c)]
				}
				id := a.idx(i, j, k, c)
				a.u[id] = 0.84*a.u[id] + 0.07*e + 0.05*sv + 0.04*kv
			}
		}
	}
}
