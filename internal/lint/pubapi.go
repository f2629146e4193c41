package lint

import (
	"strconv"
	"strings"
)

// publicOnlyPrefixes are the import-path prefixes of packages that model
// embedders: the runnable examples and the gateway demo. They are the
// reference for what an external program can do, so they must compile
// against the public surface alone — the moment one reaches into an
// internal package, the repository stops proving windar is embeddable.
var publicOnlyPrefixes = []string{
	"windar/examples/",
	"windar/cmd/windar-gateway",
}

// internalPrefix roots the import paths a public-surface package must
// not touch (internal/harness, internal/core, and every sibling).
const internalPrefix = "windar/internal/"

// PubAPI reports internal imports from packages that must stay on the
// public windar surface: examples/ and the gateway demo.
var PubAPI = &Analyzer{
	Name: "pubapi",
	Doc:  "examples and embedder demos must import only the public windar surface, never windar/internal/...",
	Run:  runPubAPI,
}

func runPubAPI(pass *Pass) {
	pkg := pass.Pkg
	if !publicOnly(pkg.Path) {
		return
	}
	for _, f := range pkg.Syntax {
		for _, imp := range f.Imports {
			path, err := strconv.Unquote(imp.Path.Value)
			if err != nil {
				continue
			}
			if strings.HasPrefix(path, internalPrefix) {
				pass.Reportf(imp.Pos(),
					"public-surface package imports %s; examples and embedder demos must use only the public windar API (windar, windar/layer)",
					path)
			}
		}
	}
}

// publicOnly reports whether the package at path is held to the
// public-surface rule: its import path sits under a public-only prefix.
func publicOnly(path string) bool {
	for _, p := range publicOnlyPrefixes {
		if strings.HasPrefix(path, p) {
			return true
		}
	}
	return false
}
