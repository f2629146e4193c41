package layer

import (
	"reflect"
	"testing"
)

// record is a terminal handler that logs the verbs it sees.
type record struct {
	events *[]string
	name   string
}

func (r record) Send(*Msg)                  { *r.events = append(*r.events, r.name+".send") }
func (r record) Deliver(*Msg)               { *r.events = append(*r.events, r.name+".deliver") }
func (r record) Checkpoint(*CheckpointInfo) { *r.events = append(*r.events, r.name+".checkpoint") }
func (r record) Restore(*RestoreInfo)       { *r.events = append(*r.events, r.name+".restore") }

// tap wraps next, logging entry before forwarding.
func tap(events *[]string, name string) Interceptor {
	return InterceptorFunc(func(next Handler) Handler {
		return tapHandler{Forward{Next: next}, events, name}
	})
}

type tapHandler struct {
	Forward
	events *[]string
	name   string
}

func (t tapHandler) Send(m *Msg) {
	*t.events = append(*t.events, t.name+".send")
	t.Forward.Send(m)
}

func (t tapHandler) Deliver(m *Msg) {
	*t.events = append(*t.events, t.name+".deliver")
	t.Forward.Deliver(m)
}

func TestChainOrderFirstIsOutermost(t *testing.T) {
	var events []string
	h := Chain(record{&events, "base"}, tap(&events, "a"), tap(&events, "b"))
	h.Send(&Msg{})
	h.Deliver(&Msg{})
	want := []string{"a.send", "b.send", "base.send", "a.deliver", "b.deliver", "base.deliver"}
	if !reflect.DeepEqual(events, want) {
		t.Fatalf("event order = %v, want %v", events, want)
	}
}

func TestChainSkipsNilInterceptors(t *testing.T) {
	var events []string
	h := Chain(record{&events, "base"}, nil, tap(&events, "a"), nil)
	h.Send(&Msg{})
	want := []string{"a.send", "base.send"}
	if !reflect.DeepEqual(events, want) {
		t.Fatalf("event order = %v, want %v", events, want)
	}
}

func TestChainEmptyReturnsBase(t *testing.T) {
	base := Nop{}
	if h := Chain(base); h != Handler(base) {
		t.Fatalf("Chain(base) = %v, want base unchanged", h)
	}
}

func TestChainPanicsOnNilWrap(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("Chain accepted a Wrap returning nil")
		}
	}()
	Chain(Nop{}, InterceptorFunc(func(next Handler) Handler { return nil }))
}

func TestForwardForwardsEveryVerb(t *testing.T) {
	var events []string
	f := Forward{Next: record{&events, "base"}}
	f.Send(&Msg{})
	f.Deliver(&Msg{})
	f.Checkpoint(&CheckpointInfo{})
	f.Restore(&RestoreInfo{})
	want := []string{"base.send", "base.deliver", "base.checkpoint", "base.restore"}
	if !reflect.DeepEqual(events, want) {
		t.Fatalf("forwarded = %v, want %v", events, want)
	}
}

func TestEveryKSteps(t *testing.T) {
	cases := []struct {
		k    EveryKSteps
		step int
		want bool
	}{
		{0, 5, false}, {-3, 6, false}, // disabled
		{3, 3, true}, {3, 6, true}, {3, 4, false},
		{1, 1, true}, {1, 2, true},
		{5, 5, true}, {5, 7, false},
	}
	for _, c := range cases {
		if got := c.k.ShouldCheckpoint(0, c.step); got != c.want {
			t.Errorf("EveryKSteps(%d).ShouldCheckpoint(0, %d) = %v, want %v", c.k, c.step, got, c.want)
		}
	}
}

func TestNopIgnoresEverything(t *testing.T) {
	var n Nop
	n.Send(nil)
	n.Deliver(nil)
	n.Checkpoint(nil)
	n.Restore(nil)
}
