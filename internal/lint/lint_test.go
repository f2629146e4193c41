package lint

import "testing"

func TestDirectClockFixture(t *testing.T) { RunFixture(t, DirectClock, "directclock") }

func TestLockOrderFixture(t *testing.T) { RunFixture(t, Locks, "lockorder") }

func TestLockSendFixture(t *testing.T) { RunFixture(t, Locks, "locksend") }

// TestLocksFixture holds the path-aware cases: callee summaries and
// locks released only on some arms.
func TestLocksFixture(t *testing.T) { RunFixture(t, Locks, "locks") }

// TestPubAPIFixture checks the fixture as if it lived under examples/,
// where every package is held to the public surface.
func TestPubAPIFixture(t *testing.T) {
	runFixtureAs(t, PubAPI, "pubapi", "windar/examples/pubapi")
}

// TestPubAPICleanFixture is the negative case: outside a public-only
// import path, internal imports are not flagged.
func TestPubAPICleanFixture(t *testing.T) { RunFixture(t, PubAPI, "pubapiclean") }

// TestPubAPIEnrollsByPath pins the enrollment list: the packages
// modeling embedders are held to the rule.
func TestPubAPIEnrollsByPath(t *testing.T) {
	for path, want := range map[string]bool{
		"windar/examples/quickstart":  true,
		"windar/examples/interceptor": true,
		"windar/cmd/windar-gateway":   true,
		"windar/cmd/windar-run":       false,
		"windar/internal/harness":     false,
	} {
		if got := publicOnly(path); got != want {
			t.Errorf("publicOnly(%s) = %v, want %v", path, got, want)
		}
	}
}

// TestSuiteCleanOnTree is the enforcement test: the repository itself
// must stay free of suite diagnostics (modulo //windar:allow lines),
// so a regression in any package fails `go test` as well as CI's
// explicit windar-lint step.
func TestSuiteCleanOnTree(t *testing.T) {
	if testing.Short() {
		t.Skip("compiles the whole module via go list -export")
	}
	diags, err := Run([]string{"windar/..."})
	if err != nil {
		t.Fatalf("loading module packages: %v", err)
	}
	for _, d := range diags {
		t.Errorf("%s", d)
	}
}

// TestAnalyzersHaveDocs keeps the -list output usable and enforces the
// framework contract: exactly one of Run and RunModule per analyzer.
func TestAnalyzersHaveDocs(t *testing.T) {
	seen := map[string]bool{}
	for _, a := range Analyzers() {
		if a.Name == "" || a.Doc == "" || (a.Run == nil) == (a.RunModule == nil) {
			t.Errorf("analyzer %+v incomplete", a)
		}
		if seen[a.Name] {
			t.Errorf("duplicate analyzer name %q", a.Name)
		}
		seen[a.Name] = true
	}
}
