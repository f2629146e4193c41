// Package nilmetrics is the analyzer fixture: *metrics.Rank parameters
// are documented nilable and must be nil-checked before any use.
package nilmetrics

import "windar/internal/metrics"

func bad(m *metrics.Rank) {
	m.RepetitiveDiscarded() // want "m is a nilable .metrics.Rank parameter used without a nil check"
}

func badBeforeGuard(m *metrics.Rank) {
	m.ControlMsg() // want "m is a nilable .metrics.Rank parameter"
	if m == nil {
		m = &metrics.Rank{}
	}
	m.RepetitiveDiscarded()
}

func goodGuarded(m *metrics.Rank) {
	if m == nil {
		m = &metrics.Rank{}
	}
	m.RepetitiveDiscarded()
	m.ControlMsg()
}

func goodReversedGuard(m *metrics.Rank) {
	if nil != m {
		m.RepetitiveDiscarded()
	}
}

func goodLocal() {
	// Locals are the caller's responsibility; only parameters carry the
	// documented nilability contract.
	m := &metrics.Rank{}
	m.RepetitiveDiscarded()
}
