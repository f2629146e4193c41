// Package pubapi is the analyzer fixture: a package enrolled in the
// public-surface rule (examples/ and cmd/windar-gateway enroll by import
// path; the test checks this one as if it lived under examples/) must
// compile against the public windar API alone.
package pubapi

import (
	_ "windar"                  // the public facade: allowed
	_ "windar/internal/core"    // want "public-surface package imports windar/internal/core"
	_ "windar/internal/harness" // want "public-surface package imports windar/internal/harness"
	_ "windar/layer"            // the public chain package: allowed
)
