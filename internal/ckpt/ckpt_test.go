package ckpt

import (
	"reflect"
	"testing"

	"windar/internal/proto"
	"windar/internal/stable"
	"windar/internal/vclock"
)

func sampleCheckpoint() *Checkpoint {
	return &Checkpoint{
		Rank:             2,
		Step:             17,
		AppImage:         []byte{1, 2, 3},
		ProtoState:       []byte{4, 5},
		LastSendIndex:    vclock.Vec{0, 3, 0, 1},
		LastDeliverIndex: vclock.Vec{2, 0, 0, 4},
		DeliveredCount:   6,
		Log: []proto.LogItem{
			{Dest: 1, SendIndex: 3, Tag: 7, Piggyback: []byte{9}, Payload: []byte("pay")},
		},
	}
}

func TestEncodeDecodeRoundTrip(t *testing.T) {
	c := sampleCheckpoint()
	data, err := Encode(c)
	if err != nil {
		t.Fatalf("Encode: %v", err)
	}
	got, err := Decode(data)
	if err != nil {
		t.Fatalf("Decode: %v", err)
	}
	if !reflect.DeepEqual(c, got) {
		t.Fatalf("round trip mismatch:\n got %+v\nwant %+v", got, c)
	}
}

func TestDecodeGarbage(t *testing.T) {
	if _, err := Decode([]byte("not a checkpoint")); err == nil {
		t.Fatal("Decode accepted garbage")
	}
}

func TestManagerSaveLoad(t *testing.T) {
	m := NewManager(stable.NewStore(stable.Options{}))
	c := sampleCheckpoint()
	if err := m.Save(c); err != nil {
		t.Fatalf("Save: %v", err)
	}
	got, ok, err := m.Load(2)
	if err != nil || !ok {
		t.Fatalf("Load = %v, %v", ok, err)
	}
	if !reflect.DeepEqual(c, got) {
		t.Fatalf("load mismatch: %+v", got)
	}
}

func TestManagerLoadMissing(t *testing.T) {
	m := NewManager(stable.NewStore(stable.Options{}))
	_, ok, err := m.Load(5)
	if err != nil {
		t.Fatalf("Load missing: err = %v", err)
	}
	if ok {
		t.Fatal("Load reported a checkpoint that was never saved")
	}
}

func TestManagerOverwriteKeepsLatest(t *testing.T) {
	m := NewManager(stable.NewStore(stable.Options{}))
	c := sampleCheckpoint()
	if err := m.Save(c); err != nil {
		t.Fatal(err)
	}
	c2 := sampleCheckpoint()
	c2.Step = 99
	c2.DeliveredCount = 42
	if err := m.Save(c2); err != nil {
		t.Fatal(err)
	}
	got, ok, _ := m.Load(2)
	if !ok || got.Step != 99 || got.DeliveredCount != 42 {
		t.Fatalf("latest checkpoint not returned: %+v", got)
	}
}

func TestManagerPerRankIsolation(t *testing.T) {
	m := NewManager(stable.NewStore(stable.Options{}))
	for rank := 0; rank < 4; rank++ {
		c := sampleCheckpoint()
		c.Rank = rank
		c.Step = rank * 10
		if err := m.Save(c); err != nil {
			t.Fatal(err)
		}
	}
	for rank := 0; rank < 4; rank++ {
		got, ok, err := m.Load(rank)
		if err != nil || !ok {
			t.Fatalf("Load(%d) = %v, %v", rank, ok, err)
		}
		if got.Rank != rank || got.Step != rank*10 {
			t.Fatalf("cross-rank contamination: %+v", got)
		}
	}
}

func TestSaveTornBlobAtEveryOffset(t *testing.T) {
	// Regression for the crash-atomicity bug: Save used to overwrite
	// key(rank) in place, so a torn Put on a real backend could leave a
	// prefix of the new blob — which gob will often decode into a
	// silently wrong checkpoint. Load must reject every truncation of a
	// framed blob instead of surfacing one.
	c := sampleCheckpoint()
	data, err := Encode(c)
	if err != nil {
		t.Fatal(err)
	}
	framed := Frame(data)
	store := stable.NewStore(stable.Options{})
	m := NewManager(store)
	for cut := 0; cut < len(framed); cut++ {
		store.Put(key(2), framed[:cut])
		got, ok, err := m.Load(2)
		if err == nil && ok {
			t.Fatalf("cut=%d: torn blob accepted as checkpoint %+v", cut, got)
		}
	}
	// The full frame still round-trips.
	store.Put(key(2), framed)
	got, ok, err := m.Load(2)
	if err != nil || !ok || !reflect.DeepEqual(c, got) {
		t.Fatalf("full frame rejected: %v %v %+v", ok, err, got)
	}
}

func TestSaveCrashBeforePublishKeepsOld(t *testing.T) {
	// A crash after the temp write but before the rename must leave the
	// previous checkpoint intact and loadable.
	m := NewManager(stable.NewStore(stable.Options{}))
	c1 := sampleCheckpoint()
	if err := m.Save(c1); err != nil {
		t.Fatal(err)
	}
	c2 := sampleCheckpoint()
	c2.Step = 99
	data, _ := Encode(c2)
	m.Store().Put(tmpKey(2), Frame(data)) // simulated crash: temp written, never renamed
	got, ok, err := m.LoadDurable(2)
	if err != nil || !ok || got.Step != c1.Step {
		t.Fatalf("old checkpoint lost: %v %v %+v", ok, err, got)
	}
	// And a later Save replaces both cleanly.
	if err := m.Save(c2); err != nil {
		t.Fatal(err)
	}
	got, ok, _ = m.LoadDurable(2)
	if !ok || got.Step != 99 {
		t.Fatalf("recovered Save did not publish: %+v", got)
	}
}

func TestStagedCheckpointWinsAndStaleSaveSkipped(t *testing.T) {
	m := NewManager(stable.NewStore(stable.Options{}))
	c1 := sampleCheckpoint()
	c2 := sampleCheckpoint()
	c2.Step = 99
	c2.DeliveredCount = 42

	// Stage the newer snapshot before any durable write: a same-process
	// recovery must see it.
	m.Stage(c2)
	got, ok, err := m.Load(2)
	if err != nil || !ok || got.Step != 99 {
		t.Fatalf("staged checkpoint not returned: %v %v %+v", ok, err, got)
	}

	// Durably save the newer one, then let a straggler writer save the
	// older: the staleness guard must skip it.
	if err := m.Save(c2); err != nil {
		t.Fatal(err)
	}
	if err := m.Save(c1); err != nil {
		t.Fatal(err)
	}
	got, ok, _ = m.LoadDurable(2)
	if !ok || got.Step != 99 || got.DeliveredCount != 42 {
		t.Fatalf("stale save regressed the slot: %+v", got)
	}
}

func TestEmptyCheckpointRoundTrip(t *testing.T) {
	c := &Checkpoint{Rank: 0}
	data, err := Encode(c)
	if err != nil {
		t.Fatal(err)
	}
	got, err := Decode(data)
	if err != nil {
		t.Fatal(err)
	}
	if got.Rank != 0 || got.Step != 0 || len(got.Log) != 0 {
		t.Fatalf("empty round trip: %+v", got)
	}
}
