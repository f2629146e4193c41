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
	"slices"

	"windar/internal/app"
)

// Bcast distributes root's data to every rank over a binomial tree and
// returns the received copy (root returns data itself), lent like any
// payload Env.Recv returns: valid until the caller's next Recv.
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

// Buffers is one caller's scratch for the collectives, kept across
// calls: once it has grown, a collective allocates nothing. The slice a
// collective returns lives in it, valid until the next call with the
// same Buffers. The zero value is ready to use.
type Buffers struct {
	acc, in []float64
	enc     []byte
}

// EncodeF64s packs v for transmission into dst's storage, growing it
// only when it is short.
func EncodeF64s(dst []byte, v []float64) []byte {
	dst = slices.Grow(dst[:0], 8*len(v))[:8*len(v)]
	for i, x := range v {
		binary.LittleEndian.PutUint64(dst[i*8:], math.Float64bits(x))
	}
	return dst
}

// DecodeF64s unpacks EncodeF64s into dst's storage, growing it only when
// it is short.
func DecodeF64s(dst []float64, b []byte) []float64 {
	dst = slices.Grow(dst[:0], len(b)/8)[:len(b)/8]
	for i := range dst {
		dst[i] = math.Float64frombits(binary.LittleEndian.Uint64(b[i*8:]))
	}
	return dst
}

// Reduce folds each rank's vec with op at root, returning the result at
// root (nil elsewhere). Binomial tree on virtual ranks rooted at root.
// Note: the combine order is fixed by the tree, so results are bitwise
// deterministic for a given n.
func Reduce(env app.Env, root int, tag int32, vec []float64, op Op, b *Buffers) []float64 {
	n := env.N()
	rank := env.Rank()
	b.acc = append(b.acc[:0], vec...)
	if n == 1 {
		return b.acc
	}
	vrank := (rank - root + n) % n
	// In round k (dist = 2^k), virtual ranks that are multiples of
	// 2^(k+1) receive from vrank+dist; ranks at odd multiples of dist
	// send to vrank-dist and leave.
	for dist := 1; dist < n; dist *= 2 {
		if vrank%(2*dist) != 0 {
			dst := (vrank - dist + root) % n
			b.enc = EncodeF64s(b.enc, b.acc) // Send copies it
			env.Send(dst, tag, b.enc)
			return nil
		}
		if vrank+dist < n {
			src := (vrank + dist + root) % n
			data, _ := env.Recv(src, tag)
			b.in = DecodeF64s(b.in, data)
			op.apply(b.acc, b.in)
		}
	}
	if rank == root {
		return b.acc
	}
	return nil
}

// Allreduce is Reduce followed by Bcast, using tag and tag+1.
func Allreduce(env app.Env, tag int32, vec []float64, op Op, b *Buffers) []float64 {
	if res := Reduce(env, 0, tag, vec, op, b); env.Rank() == 0 {
		b.enc = EncodeF64s(b.enc, res)
	}
	// Bcast reads only the root's data.
	b.acc = DecodeF64s(b.acc, Bcast(env, 0, tag+1, b.enc))
	return b.acc
}
