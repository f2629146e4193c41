package main

import (
	"crypto/sha256"
	"encoding/binary"
	"encoding/hex"
	"fmt"
	"math"

	"windar/internal/app"
	"windar/internal/npb"
	"windar/internal/transport"
	"windar/internal/workload"
)

// Frozen sizes. They were calibrated once on the 2-core reference box so
// that each timed section lasts about calibratedSeconds; -seconds scales
// the step counts linearly, so for a given -seconds the work — and with
// it every count-derived metric — repeats exactly.
const (
	ranks             = 4
	calibratedSeconds = 10

	floodWindow   = 16
	floodMemSteps = 120000
	floodTCPSteps = 80000

	luGrid       = 16
	luIterations = 3600
	luNormEvery  = 4
	luCkptEvery  = 10

	floodCkptEvery      = 200
	recoveryCkptEvery   = 2200
	recoveryRollForward = 32768
	recoveryCycles      = 40

	// segments is how many equal-work segments a timed section is cut
	// into for the fast-decile throughput and CPU figures (see segmenter).
	segments = 50

	// warmupShare of the timed work runs, discarded, in a separate
	// cluster during set-up; tracedShare is the size of the traced and
	// paired untraced runs behind the per-layer metrics.
	warmupShare = 0.15
	tracedShare = 0.25
)

// spec is one workload at one size.
type spec struct {
	Name string
	Why  string
	// LU selects the npb.LU kernel; otherwise the windowed ring flood.
	LU bool
	// Steps is flood steps or LU iterations.
	Steps     int
	Transport transport.Kind
	CkptEvery int
	// Deployed turns on the configuration the north star names: disk WAL
	// with a 2 ms group commit, durable sender logs, span tracing and an
	// attached obs registry.
	Deployed bool
	// Cycles kill/recover cycles, each after the victim has delivered
	// RollForward messages past one of its checkpoints.
	Cycles      int
	RollForward int64
	// SegmentSteps is the length of one equal-work segment of the timed
	// section, in application steps.
	SegmentSteps int
}

// specs returns the four workloads at scale times their calibrated size.
func specs(scale float64) []spec {
	n := func(full int) int {
		v := int(math.Round(float64(full) * scale))
		if v < 1 {
			v = 1
		}
		return v
	}
	cycles := n(recoveryCycles)
	// Segment lengths are multiples of the checkpoint interval (and of
	// luNormEvery), so every segment holds the same work.
	seg := func(steps, multiple int) int {
		return max(steps/segments/multiple, 1) * multiple
	}
	return []spec{
		{
			Name:  "flood_mem",
			Why:   "8 B ring flood over the zero-latency mem fabric: per-message CPU of harness, core and proto is undiluted; wire, sockets, disk and trace do nothing",
			Steps: n(floodMemSteps), Transport: transport.Mem, CkptEvery: floodCkptEvery,
			SegmentSteps: seg(n(floodMemSteps), floodCkptEvery),
		},
		{
			Name:  "flood_tcp",
			Why:   "the same flood over loopback TCP: adds exactly wire framing and transport/tcp batching, so the pair with flood_mem isolates the transport",
			Steps: n(floodTCPSteps), Transport: transport.TCP, CkptEvery: floodCkptEvery,
			SegmentSteps: seg(n(floodTCPSteps), floodCkptEvery),
		},
		{
			Name: "lu_deployed",
			Why:  "NPB LU wavefront in the deployed configuration (tcp, disk WAL, durable logs, span tracing, obs): latency-bound ping-pong where ckpt, stable and trace do real work",
			LU:   true, Steps: n(luIterations), Transport: transport.TCP, CkptEvery: luCkptEvery,
			Deployed: true, SegmentSteps: seg(n(luIterations), 2*luCkptEvery),
		},
		{
			Name: "recovery_mem",
			Why:  "mem flood under a kill/recover schedule with 32768-delivery roll-forwards: the sender log is read and replayed, not only appended and released",
			// A lead-in interval, then one checkpoint interval per cycle:
			// each segment holds exactly one kill and recovery. The extra
			// step lets the last segment's end be observed.
			Steps: recoveryCkptEvery*(cycles+1) + 1, Transport: transport.Mem,
			CkptEvery: recoveryCkptEvery, Cycles: cycles, RollForward: recoveryRollForward,
			SegmentSteps: recoveryCkptEvery,
		},
	}
}

// expectedMsgs is the closed-form count of application messages the
// workload must deliver on n ranks.
func (s spec) expectedMsgs(n int) int64 {
	if !s.LU {
		return int64(s.Steps) * floodWindow * int64(n)
	}
	// Per iteration each of the 2*luGrid pipelined plane sweeps crosses
	// every interior process-grid edge once; every luNormEvery-th
	// iteration adds a binomial reduce plus broadcast.
	px := 1
	for f := 1; f*f <= n; f++ {
		if n%f == 0 {
			px = f
		}
	}
	py := n / px
	edges := (px-1)*py + px*(py-1)
	return int64(s.Steps)*int64(2*luGrid*edges) + int64(s.Steps/luNormEvery)*int64(2*(n-1))
}

// factory builds the workload's application. The seed reaches the
// program only through its inputs: the flood's initial checksums (and so
// every payload it sends) derive from it. LU's field is fixed by the
// kernel, as NPB problem classes are.
func (s spec) factory(seed int64) (app.Factory, error) {
	if s.LU {
		return npb.LU(npb.Params{N: luGrid, Iterations: s.Steps, NormEvery: luNormEvery})
	}
	inner := workload.NewFlood(s.Steps, floodWindow)
	return func(rank, n int) app.App {
		a := inner(rank, n)
		var b [8]byte
		binary.BigEndian.PutUint64(b[:], floodInitial(seed, rank))
		if err := a.Restore(b[:]); err != nil {
			panic(err) // the flood accepts any 8-byte snapshot
		}
		return a
	}, nil
}

// floodInitial is rank's seeded starting checksum (splitmix64).
func floodInitial(seed int64, rank int) uint64 {
	z := uint64(seed) + uint64(rank+1)*0x9e3779b97f4a7c15
	z = (z ^ (z >> 30)) * 0xbf58476d1ce4e5b9
	z = (z ^ (z >> 27)) * 0x94d049bb133111eb
	return z ^ (z >> 31)
}

// floodReference recomputes, without a cluster, the final snapshot of
// every rank of a seeded flood: each step a rank sends
// sum+131*step+i for i < window to its successor, then folds its
// predecessor's window into its own checksum (FNV-style multiply-add).
func floodReference(n, steps int, seed int64) [][]byte {
	const prime = 1099511628211
	sums := make([]uint64, n)
	next := make([]uint64, n)
	for r := range sums {
		sums[r] = floodInitial(seed, r)
	}
	for s := 0; s < steps; s++ {
		for r := 0; r < n; r++ {
			base := sums[(r-1+n)%n] + uint64(s)*131
			sum := sums[r]
			for i := uint64(0); i < floodWindow; i++ {
				sum = sum*prime + base + i
			}
			next[r] = sum
		}
		sums, next = next, sums
	}
	out := make([][]byte, n)
	for r, v := range sums {
		out[r] = binary.BigEndian.AppendUint64(nil, v)
	}
	return out
}

// digest is the form in which reference snapshots are compared and, for
// LU, committed to golden.json.
func digest(snapshot []byte) string {
	h := sha256.Sum256(snapshot)
	return hex.EncodeToString(h[:])
}

// goldenKey names one LU instance in golden.json.
func goldenKey(n, iterations int) string {
	return fmt.Sprintf("lu-grid%d-n%d-iters%d", luGrid, n, iterations)
}
