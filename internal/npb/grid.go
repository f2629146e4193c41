// Package npb implements communication-faithful Go analogues of the three
// NAS NPB2.3 benchmarks the paper evaluates with — LU, BT and SP — as
// step-structured applications for the rollback-recovery harness.
//
// The kernels reproduce the communication characters the paper relies on
// (Section IV):
//
//   - LU: pipelined 2-D wavefront sweeps per k-plane — many small
//     messages, high frequency, relatively small process state;
//   - BT: ADI-style forward/backward line sweeps with 5x5 block faces —
//     few large messages, large process state (checkpoint);
//   - SP: the same ADI structure with scalar penta-diagonal faces and
//     twice the iterations — moderate message size and frequency.
//
// The numerics are simplified stencil recurrences (not the full
// Navier-Stokes approximate factorization), chosen so every rank's state
// evolves deterministically through real floating-point work whose final
// snapshot doubles as a correctness checksum for recovery tests: a run
// with failures must produce bit-identical state to a failure-free run.
package npb

import (
	"encoding/binary"
	"fmt"
	"math"

	"windar/internal/mpi"
)

// Params sizes a benchmark instance.
type Params struct {
	// N is the global cube edge (the domain is N x N x N, decomposed in
	// two dimensions across ranks).
	N int
	// Iterations is the number of pseudo-time steps (application steps).
	Iterations int
	// NormEvery inserts an Allreduce residual computation every k steps;
	// 0 disables it.
	NormEvery int
}

// Validate reports whether p is usable.
func (p Params) Validate() error {
	if p.N < 2 {
		return fmt.Errorf("npb: N must be >= 2, got %d", p.N)
	}
	if p.Iterations < 1 {
		return fmt.Errorf("npb: Iterations must be >= 1, got %d", p.Iterations)
	}
	return nil
}

// ClassS is a tiny instance comparable in spirit to NPB class S, scaled
// for in-process simulation.
func ClassS(iters int) Params { return Params{N: 8, Iterations: iters, NormEvery: 4} }

// ClassW is a mid-size instance.
func ClassW(iters int) Params { return Params{N: 12, Iterations: iters, NormEvery: 4} }

// ClassA is the largest preset.
func ClassA(iters int) Params { return Params{N: 16, Iterations: iters, NormEvery: 4} }

// procGrid factors nProcs into the most square px*py grid with px <= py.
func procGrid(nProcs int) (px, py int) {
	px = 1
	for f := 1; f*f <= nProcs; f++ {
		if nProcs%f == 0 {
			px = f
		}
	}
	return px, nProcs / px
}

// grid is the common 2-D block decomposition of the N^3 domain with comp
// values per cell. The z dimension is kept local (undecomposed), as in
// the 2-D decompositions of NPB's LU.
type grid struct {
	rank, nProcs int
	px, py       int // process grid (x-major: rank = ix*py + iy)
	ix, iy       int
	nx, ny, nz   int // local cells
	x0, y0       int // global offsets
	comp         int
	u            []float64
	msgBufs
}

func newGrid(rank, nProcs int, p Params, comp int) grid {
	px, py := procGrid(nProcs)
	g := grid{
		rank: rank, nProcs: nProcs,
		px: px, py: py,
		ix: rank / py, iy: rank % py,
		nz: p.N, comp: comp,
	}
	g.nx, g.x0 = blockSpan(p.N, px, g.ix)
	g.ny, g.y0 = blockSpan(p.N, py, g.iy)
	g.u = make([]float64, g.nx*g.ny*g.nz*comp)
	for i := 0; i < g.nx; i++ {
		for j := 0; j < g.ny; j++ {
			for k := 0; k < g.nz; k++ {
				for c := 0; c < comp; c++ {
					gx, gy := g.x0+i, g.y0+j
					g.u[g.idx(i, j, k, c)] = initVal(gx, gy, k, c)
				}
			}
		}
	}
	return g
}

// blockSpan distributes n cells over parts blocks, returning block i's
// size and offset.
func blockSpan(n, parts, i int) (size, off int) {
	base := n / parts
	rem := n % parts
	size = base
	if i < rem {
		size++
		off = i * (base + 1)
	} else {
		off = rem*(base+1) + (i-rem)*base
	}
	return size, off
}

// initVal is the deterministic initial condition.
func initVal(gx, gy, gz, c int) float64 {
	return 1 + 0.01*float64(gx+1)*0.5 + 0.02*float64(gy+1)*0.25 +
		0.005*float64(gz+1) + 0.1*float64(c+1)
}

func (g *grid) idx(i, j, k, c int) int {
	return ((i*g.ny+j)*g.nz+k)*g.comp + c
}

// neighbour returns the rank at the given process-grid offset, or -1.
func (g *grid) neighbour(dix, diy int) int {
	nix, niy := g.ix+dix, g.iy+diy
	if nix < 0 || nix >= g.px || niy < 0 || niy >= g.py {
		return -1
	}
	return nix*g.py + niy
}

// snapshot serializes the field.
func (g *grid) snapshot() []byte {
	out := make([]byte, 8*len(g.u))
	for i, v := range g.u {
		binary.LittleEndian.PutUint64(out[i*8:], math.Float64bits(v))
	}
	return out
}

// restore replaces the field from a snapshot.
func (g *grid) restore(b []byte) error {
	if len(b) != 8*len(g.u) {
		return fmt.Errorf("npb: snapshot size %d, want %d", len(b), 8*len(g.u))
	}
	for i := range g.u {
		g.u[i] = math.Float64frombits(binary.LittleEndian.Uint64(b[i*8:]))
	}
	return nil
}

// localNormSq is the squared L2 norm of the local field, the residual
// input of the periodic Allreduce.
func (g *grid) localNormSq() float64 {
	var s float64
	for _, v := range g.u {
		s += v * v
	}
	return s
}

// encodeF64s / decodeF64s are the payload and snapshot codecs.
func encodeF64s(v []float64) []byte { return mpi.EncodeF64s(nil, v) }

func decodeF64s(b []byte) []float64 { return mpi.DecodeF64s(nil, b) }

// grow returns s resized to n, reallocated only when its capacity is short.
func grow[T any](s []T, n int) []T {
	if cap(s) < n {
		return make([]T, n)
	}
	return s[:n]
}

// msgBufs are a kernel's message scratch, reused across steps and never
// part of its state: the outgoing line and its encoding (Send copies the
// payload before it returns) and the received lines, decoded into place.
// A sweep holds at most two received lines at once, one per slot. coll
// is the collectives' scratch.
type msgBufs struct {
	line []float64
	enc  []byte
	in   [2][]float64
	coll mpi.Buffers
}

// lineBuf returns the outgoing-line scratch resized to n values.
func (m *msgBufs) lineBuf(n int) []float64 {
	m.line = grow(m.line, n)
	return m.line
}

// encode returns v's encoding in the reused buffer.
func (m *msgBufs) encode(v []float64) []byte {
	m.enc = mpi.EncodeF64s(m.enc, v)
	return m.enc
}

// decode returns b decoded into slot's buffer, valid until the slot's
// next decode.
func (m *msgBufs) decode(slot int, b []byte) []float64 {
	m.in[slot] = mpi.DecodeF64s(m.in[slot], b)
	return m.in[slot]
}

// Message tags. Collectives get a disjoint high range via normTag.
const (
	tagSweepLow  int32 = 1
	tagSweepHigh int32 = 2
	tagFaceXF    int32 = 3
	tagFaceXB    int32 = 4
	tagFaceYF    int32 = 5
	tagFaceYB    int32 = 6
	normTagBase  int32 = 1 << 16
)
