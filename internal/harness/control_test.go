package harness

import (
	"bytes"
	"testing"

	"windar/internal/app"
	"windar/internal/transport"
	"windar/internal/vclock"
	"windar/internal/wire"
)

// FuzzControlDecode feeds hostile bytes to the ROLLBACK, RESPONSE and
// CHECKPOINT_ADVANCE decoders, which must return an error or a value but
// never panic, and checks that each encoding round-trips the values the
// fuzzer picks.
func FuzzControlDecode(f *testing.F) {
	f.Add([]byte{}, int64(0), int64(0), int64(0), int32(0), []byte(nil))
	f.Add(encodeRollback(3, vclock.Vec{1, 2, 3}, vclock.Vec{4, 5, 6}), int64(-1), int64(1<<40), int64(7), int32(2), []byte("det"))
	f.Add(encodeResponse(response{ackInc: 1, delivered: 5, ingested: 9, data: []byte{1, 2}}),
		int64(5), int64(9), int64(0), int32(-1), []byte{})
	f.Add(appendCkptAdvance(nil, 12, 40), int64(12), int64(40), int64(3), int32(0), []byte{0xFF})
	f.Fuzz(func(t *testing.T, hostile []byte, a, b, c int64, inc int32, data []byte) {
		decodeRollback(hostile)
		decodeResponse(hostile)
		decodeCkptAdvance(hostile)

		count, vec, sent, err := decodeRollback(encodeRollback(a, vclock.Vec{a, b, c}, vclock.Vec{c, b}))
		if err != nil || count != a || !vec.Equal(vclock.Vec{a, b, c}) || !sent.Equal(vclock.Vec{c, b}) {
			t.Fatalf("ROLLBACK round trip: %d %v %v %v", count, vec, sent, err)
		}
		want := response{ackInc: inc, delivered: a, ingested: b, data: data}
		got, err := decodeResponse(encodeResponse(want))
		if err != nil || got.ackInc != inc || got.delivered != a || got.ingested != b || !bytes.Equal(got.data, data) {
			t.Fatalf("RESPONSE round trip: %+v, %v; want %+v", got, err, want)
		}
		x, y, err := decodeCkptAdvance(appendCkptAdvance(nil, a, b))
		if err != nil || x != a || y != b {
			t.Fatalf("CHECKPOINT_ADVANCE round trip: %d %d %v", x, y, err)
		}
	})
}

// TestReceiverRecyclesControlEnvelopes runs the receiver loop over an
// inbox holding a pooled CHECKPOINT_ADVANCE and a pooled RESPONSE: once
// each handler has returned, its envelope must be back in the pool,
// which Recycle marks by zeroing it.
func TestReceiverRecyclesControlEnvelopes(t *testing.T) {
	c, err := NewCluster(Config{N: 2}, func(rank, n int) app.App { return probeApp{} })
	if err != nil {
		t.Fatal(err)
	}
	defer c.Close()
	r, err := c.newRuntime(0, 0)
	if err != nil {
		t.Fatal(err)
	}
	in := transport.NewQueue()
	envs := map[*wire.Envelope]wire.Kind{}
	for kind, payload := range map[wire.Kind][]byte{
		wire.KindCkptAdvance: appendCkptAdvance(nil, 0, 0),
		wire.KindResponse:    encodeResponse(response{ackInc: -1}),
	} {
		env := wire.GetEnvelope()
		env.Kind, env.From, env.To, env.Payload = kind, 1, 0, payload
		envs[env] = kind
		in.Push(env)
	}
	in.Close()
	r.senders.Add(1)
	r.receiverLoop(in) // returns once the closed inbox is drained
	for env, kind := range envs {
		if env.Payload != nil {
			t.Errorf("kind %v envelope not recycled after its handler returned", kind)
		}
	}
}
