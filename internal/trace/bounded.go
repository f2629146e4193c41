// Bounded recording: long soak runs generate events without end, and
// retaining them all makes the Recorder the largest allocation in the
// process. NewBounded caps retained raw events with a ring; evicted
// events are fed, in order, into the recorder's digest — the replay
// machine Validate runs — so the verdict stays exactly what an
// unbounded recorder would produce. What is lost is only the ability to
// re-read the evicted events themselves (Events, Export, Summarize see
// the retained window).
package trace

// NewBounded returns a Recorder that retains at most capacity raw
// events. Validate remains exact across evictions; Events/Export expose
// the most recent window and Dropped reports how much was evicted.
// capacity must be positive.
func NewBounded(capacity int) *Recorder {
	if capacity <= 0 {
		panic("trace: NewBounded capacity must be positive")
	}
	return &Recorder{bound: capacity, digest: newChecker()}
}
