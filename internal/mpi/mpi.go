// Package mpi provides the MPI-flavoured collectives built on the
// point-to-point app.Env primitives that the NPB kernels and workloads
// program against, standing in for the MPICH stack of the paper's
// testbed.
//
// Allreduce (Reduce then Bcast) is the one collective they need. Both
// halves are deterministic binomial-tree algorithms over Send/Recv with
// explicit sources, so they compose with the harness's strict
// per-channel FIFO delivery. Every call must be entered by all ranks of
// the environment with the same tag; sequential collectives on the same
// tag are safe (FIFO), concurrent ones on the same (pair, tag) are not —
// give them distinct tags.
package mpi

import (
	"encoding/binary"
	"math"

	"windar/internal/app"
)

// Bcast distributes root's data to every rank over a binomial tree and
// returns the received copy (root returns data itself).
func Bcast(env app.Env, root int, tag int32, data []byte) []byte {
	n := env.N()
	if n == 1 {
		return data
	}
	rank := env.Rank()
	// Binomial tree on virtual ranks (rotated so the tree is rooted at
	// 0): in round k, ranks < 2^k send to rank+2^k.
	vrank := (rank - root + n) % n
	if vrank != 0 {
		// Find the round in which this rank receives: the position of
		// its highest set bit.
		hb := highestBit(vrank)
		parentV := vrank - hb
		src := (parentV + root) % n
		data, _ = env.Recv(src, tag)
	}
	for dist := nextPow2(vrank + 1); dist < n; dist *= 2 {
		if vrank+dist < n {
			dst := (vrank + dist + root) % n
			env.Send(dst, tag, data)
		}
	}
	return data
}

func highestBit(v int) int {
	hb := 1
	for hb*2 <= v {
		hb *= 2
	}
	return hb
}

func nextPow2(v int) int {
	p := 1
	for p < v {
		p *= 2
	}
	return p
}

// Op is a commutative, associative reduction operator on float64.
type Op int

const (
	// Sum adds elementwise.
	Sum Op = iota
	// Max takes the elementwise maximum.
	Max
	// Min takes the elementwise minimum.
	Min
)

func (op Op) apply(dst, src []float64) {
	for i := range dst {
		switch op {
		case Sum:
			dst[i] += src[i]
		case Max:
			dst[i] = math.Max(dst[i], src[i])
		case Min:
			dst[i] = math.Min(dst[i], src[i])
		}
	}
}

// EncodeF64s packs a float64 vector for transmission.
func EncodeF64s(v []float64) []byte {
	out := make([]byte, 8*len(v))
	for i, x := range v {
		binary.LittleEndian.PutUint64(out[i*8:], math.Float64bits(x))
	}
	return out
}

// DecodeF64s unpacks EncodeF64s.
func DecodeF64s(b []byte) []float64 {
	out := make([]float64, len(b)/8)
	for i := range out {
		out[i] = math.Float64frombits(binary.LittleEndian.Uint64(b[i*8:]))
	}
	return out
}

// Reduce folds each rank's vec with op at root, returning the result at
// root (nil elsewhere). Binomial tree on virtual ranks rooted at root.
// Note: the combine order is fixed by the tree, so results are bitwise
// deterministic for a given n.
func Reduce(env app.Env, root int, tag int32, vec []float64, op Op) []float64 {
	n := env.N()
	rank := env.Rank()
	acc := make([]float64, len(vec))
	copy(acc, vec)
	if n == 1 {
		return acc
	}
	vrank := (rank - root + n) % n
	// In round k (dist = 2^k), virtual ranks that are multiples of
	// 2^(k+1) receive from vrank+dist; ranks at odd multiples of dist
	// send to vrank-dist and leave.
	for dist := 1; dist < n; dist *= 2 {
		if vrank%(2*dist) != 0 {
			dst := (vrank - dist + root) % n
			env.Send(dst, tag, EncodeF64s(acc))
			return nil
		}
		if vrank+dist < n {
			src := (vrank + dist + root) % n
			data, _ := env.Recv(src, tag)
			op.apply(acc, DecodeF64s(data))
		}
	}
	if rank == root {
		return acc
	}
	return nil
}

// Allreduce is Reduce followed by Bcast, using tag and tag+1.
func Allreduce(env app.Env, tag int32, vec []float64, op Op) []float64 {
	res := Reduce(env, 0, tag, vec, op)
	var payload []byte
	if env.Rank() == 0 {
		payload = EncodeF64s(res)
	}
	return DecodeF64s(Bcast(env, 0, tag+1, payload))
}
