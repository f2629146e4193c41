package obs

import (
	"math/rand"
	"reflect"
	"testing"
)

// sameHist compares two snapshots bit-exactly, treating empty bucket
// lists (nil vs zero-length, an Add artifact) as equal.
func sameHist(t *testing.T, label string, got, want HistSnapshot) {
	t.Helper()
	if got.Count != want.Count || got.Sum != want.Sum || got.Max != want.Max {
		t.Fatalf("%s: totals diverged:\ngot  %+v\nwant %+v", label, got, want)
	}
	if len(got.Buckets) == 0 && len(want.Buckets) == 0 {
		return
	}
	if !reflect.DeepEqual(got.Buckets, want.Buckets) {
		t.Fatalf("%s: buckets diverged:\ngot  %v\nwant %v", label, got.Buckets, want.Buckets)
	}
}

// randValue draws from a wide mixed distribution so every bucket regime
// (exact unit buckets, low octaves, high octaves) is exercised.
func randValue(rng *rand.Rand) int64 {
	switch rng.Intn(4) {
	case 0:
		return int64(rng.Intn(subCount)) // exact unit buckets
	case 1:
		return rng.Int63n(1 << 12)
	case 2:
		return rng.Int63n(1 << 40)
	default:
		return rng.Int63() // anywhere in int64
	}
}

// TestClusterMergeBitExact is the acceptance property of the cross-rank
// aggregate: Registry.Snapshot's Total (what /debug/vars and the
// repository benchmark read) of values scattered across ranks is
// bit-exact against a single histogram that recorded every value — same
// totals, same sparse bucket list, hence identical quantiles.
func TestClusterMergeBitExact(t *testing.T) {
	for seed := int64(1); seed <= 20; seed++ {
		rng := rand.New(rand.NewSource(seed))
		const ranks = 5
		reg := NewRegistry(ranks)
		fam := reg.Family("lat_ns", "test family", "ns")
		var single Hist
		for i := 0; i < 2000; i++ {
			v := randValue(rng)
			fam.Rank(rng.Intn(ranks)).Record(v)
			single.Record(v)
		}
		fams := reg.Snapshot()
		if len(fams) != 1 || len(fams[0].Ranks) != ranks {
			t.Fatalf("seed %d: snapshot shape: %+v", seed, fams)
		}
		sameHist(t, "total", fams[0].Total, single.Snapshot())
		if got, want := StatOf(fams[0].Total), StatOf(single.Snapshot()); got != want {
			t.Fatalf("seed %d: stat diverged:\ngot  %+v\nwant %+v", seed, got, want)
		}
	}
}
