// Command windar-lint runs the repository's protocol-aware static
// analysis suite (internal/lint) over package patterns:
//
//	go run ./cmd/windar-lint ./...
//	go run ./cmd/windar-lint -list
//	go run ./cmd/windar-lint -only directclock ./internal/...
//
// -list names each analyzer and what it enforces; -only runs the named
// ones (comma-separated) instead of all. The locks analyzer builds its
// lock graph and function summaries over every package loaded, so a
// narrower pattern can hide a cycle or a lock a callee returns holding.
//
// Exit status 1 when any diagnostic is reported, 2 on loading errors.
// Suppress a single line with `//windar:allow <analyzer>` plus a
// reason; see the internal/lint package documentation.
package main

import (
	"flag"
	"fmt"
	"os"
	"strings"

	"windar/internal/lint"
)

func main() {
	var (
		list = flag.Bool("list", false, "list analyzers and exit")
		only = flag.String("only", "", "comma-separated analyzer names to run (default all)")
	)
	flag.Parse()

	if *list {
		for _, a := range lint.Analyzers() {
			fmt.Printf("%-12s %s\n", a.Name, a.Doc)
		}
		return
	}

	analyzers := lint.Analyzers()
	if *only != "" {
		byName := map[string]*lint.Analyzer{}
		for _, a := range analyzers {
			byName[a.Name] = a
		}
		analyzers = nil
		for _, name := range strings.Split(*only, ",") {
			a, ok := byName[name]
			if !ok {
				fmt.Fprintf(os.Stderr, "windar-lint: unknown analyzer %q\n", name)
				os.Exit(2)
			}
			analyzers = append(analyzers, a)
		}
	}

	patterns := flag.Args()
	if len(patterns) == 0 {
		patterns = []string{"./..."}
	}
	diags, err := lint.RunAnalyzers(patterns, analyzers)
	if err != nil {
		fmt.Fprintf(os.Stderr, "windar-lint: %v\n", err)
		os.Exit(2)
	}
	for _, d := range diags {
		fmt.Println(d)
	}
	if len(diags) > 0 {
		os.Exit(1)
	}
}
