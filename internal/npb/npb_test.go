package npb

import (
	"math"
	"testing"
	"testing/quick"

	"windar/internal/mpi"
)

func TestProcGrid(t *testing.T) {
	cases := map[int][2]int{
		1:  {1, 1},
		2:  {1, 2},
		4:  {2, 2},
		6:  {2, 3},
		8:  {2, 4},
		9:  {3, 3},
		12: {3, 4},
		16: {4, 4},
		32: {4, 8},
	}
	for n, want := range cases {
		px, py := procGrid(n)
		if px != want[0] || py != want[1] {
			t.Errorf("procGrid(%d) = (%d,%d), want %v", n, px, py, want)
		}
		if px*py != n {
			t.Errorf("procGrid(%d) does not cover all ranks", n)
		}
	}
}

func TestBlockSpanCoversDomain(t *testing.T) {
	f := func(n8, parts8 uint8) bool {
		n := int(n8%64) + 1
		parts := int(parts8%8) + 1
		total, nextOff := 0, 0
		for i := 0; i < parts; i++ {
			size, off := blockSpan(n, parts, i)
			if off != nextOff || size < 0 {
				return false
			}
			total += size
			nextOff += size
		}
		return total == n
	}
	if err := quick.Check(f, nil); err != nil {
		t.Error(err)
	}
}

func TestBlockSpanBalanced(t *testing.T) {
	for i := 0; i < 5; i++ {
		size, _ := blockSpan(13, 5, i)
		if size < 2 || size > 3 {
			t.Fatalf("blockSpan(13,5,%d) size %d", i, size)
		}
	}
}

func TestGridIndexBijective(t *testing.T) {
	g := newGrid(3, 4, Params{N: 6, Iterations: 1}, 5)
	seen := make(map[int]bool)
	for i := 0; i < g.nx; i++ {
		for j := 0; j < g.ny; j++ {
			for k := 0; k < g.nz; k++ {
				for c := 0; c < g.comp; c++ {
					id := g.idx(i, j, k, c)
					if id < 0 || id >= len(g.u) || seen[id] {
						t.Fatalf("idx(%d,%d,%d,%d) = %d invalid or duplicate", i, j, k, c, id)
					}
					seen[id] = true
				}
			}
		}
	}
	if len(seen) != len(g.u) {
		t.Fatalf("index covers %d of %d cells", len(seen), len(g.u))
	}
}

func TestGridNeighbours(t *testing.T) {
	// 2x2 grid over 4 ranks: rank = ix*py + iy.
	g := newGrid(0, 4, Params{N: 4, Iterations: 1}, 1)
	if g.neighbour(-1, 0) != -1 || g.neighbour(0, -1) != -1 {
		t.Fatal("rank 0 should have no west/north neighbour")
	}
	if g.neighbour(1, 0) != 2 || g.neighbour(0, 1) != 1 {
		t.Fatalf("rank 0 neighbours: east=%d south=%d", g.neighbour(1, 0), g.neighbour(0, 1))
	}
	g3 := newGrid(3, 4, Params{N: 4, Iterations: 1}, 1)
	if g3.neighbour(1, 0) != -1 || g3.neighbour(0, 1) != -1 {
		t.Fatal("rank 3 should have no east/south neighbour")
	}
	if g3.neighbour(-1, 0) != 1 || g3.neighbour(0, -1) != 2 {
		t.Fatalf("rank 3 neighbours: west=%d north=%d", g3.neighbour(-1, 0), g3.neighbour(0, -1))
	}
}

func TestSnapshotRestoreRoundTrip(t *testing.T) {
	g := newGrid(1, 2, Params{N: 5, Iterations: 1}, 3)
	for i := range g.u {
		g.u[i] = float64(i) * 1.5
	}
	snap := g.snapshot(g.u)
	g2 := newGrid(1, 2, Params{N: 5, Iterations: 1}, 3)
	if err := g2.restore(snap); err != nil {
		t.Fatal(err)
	}
	for i := range g.u {
		if g2.u[i] != g.u[i] {
			t.Fatalf("u[%d] = %v, want %v", i, g2.u[i], g.u[i])
		}
	}
	if err := g2.restore(snap[:8]); err == nil {
		t.Fatal("short snapshot accepted")
	}
}

func TestParamsValidate(t *testing.T) {
	if err := (Params{N: 1, Iterations: 1}).Validate(); err == nil {
		t.Fatal("N=1 accepted")
	}
	if err := (Params{N: 4, Iterations: 0}).Validate(); err == nil {
		t.Fatal("Iterations=0 accepted")
	}
	if err := (Params{N: 4, Iterations: 1}).Validate(); err != nil {
		t.Fatal(err)
	}
}

func TestBenchmarkFactoryNames(t *testing.T) {
	p := ClassS(2)
	for _, name := range []string{"lu", "bt", "sp"} {
		f, err := Benchmark(name, p)
		if err != nil || f == nil {
			t.Fatalf("Benchmark(%q): %v", name, err)
		}
		a := f(0, 4)
		if a.Steps() != 2 {
			t.Fatalf("%s Steps = %d", name, a.Steps())
		}
	}
	if _, err := Benchmark("mg", p); err == nil {
		t.Fatal("unknown benchmark accepted")
	}
}

func TestStateSizeCharacter(t *testing.T) {
	// The paper's characterisation: BT has a large checkpoint, LU a
	// relatively small one, SP in between.
	p := ClassS(1)
	luF, _ := LU(p)
	btF, _ := BT(p)
	spF, _ := SP(p)
	lu := len(luF(0, 4).Snapshot())
	bt := len(btF(0, 4).Snapshot())
	sp := len(spF(0, 4).Snapshot())
	if !(bt > sp && sp > lu) {
		t.Fatalf("state sizes: lu=%d sp=%d bt=%d, want bt > sp > lu", lu, sp, bt)
	}
}

func TestInitValDeterministic(t *testing.T) {
	a := newGrid(2, 4, ClassS(1), 5)
	b := newGrid(2, 4, ClassS(1), 5)
	for i := range a.u {
		if a.u[i] != b.u[i] {
			t.Fatalf("init not deterministic at %d", i)
		}
	}
}

func TestLocalNormSqPositiveFinite(t *testing.T) {
	g := newGrid(0, 1, ClassS(1), 5)
	n := g.localNormSq()
	if n <= 0 || math.IsNaN(n) || math.IsInf(n, 0) {
		t.Fatalf("localNormSq = %v", n)
	}
}

func TestEncodeDecodeF64s(t *testing.T) {
	v := []float64{0, 1.5, -2.25, math.Pi}
	got := decodeF64s(mpi.EncodeF64s(nil, v))
	for i := range v {
		if got[i] != v[i] {
			t.Fatalf("round trip: %v vs %v", got, v)
		}
	}
}
