// Package pubapiclean is the pubapi analyzer's negative fixture: a
// package outside the public-only import paths may import internals
// freely — the rule binds only embedder-facing code.
package pubapiclean

import (
	_ "windar/internal/core"
	_ "windar/internal/harness"
)
