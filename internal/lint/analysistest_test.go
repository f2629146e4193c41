package lint

import (
	"fmt"
	"go/ast"
	"go/parser"
	"go/token"
	"os"
	"path/filepath"
	"regexp"
	"sort"
	"strconv"
	"strings"
	"testing"
)

// wantRe extracts the quoted patterns of a `// want "p1" "p2"` comment.
var wantRe = regexp.MustCompile(`//\s*want\s+((?:"(?:[^"\\]|\\.)*"\s*)+)`)

// RunFixture type-checks testdata/src/<name> and asserts that analyzer a
// produces exactly the diagnostics its `// want "regexp"` comments
// declare — the analysistest contract, minus the x/tools dependency.
func RunFixture(t *testing.T, a *Analyzer, name string) {
	t.Helper()
	runFixtureAs(t, a, name, fixturePathPrefix+name)
}

// runFixtureAs is RunFixture with the fixture checked under import path
// path, for analyzers that key on where a package lives.
func runFixtureAs(t *testing.T, a *Analyzer, name, path string) {
	t.Helper()
	pkg, err := loadFixture(name, path)
	if err != nil {
		t.Fatalf("loading fixture %s: %v", name, err)
	}
	diags := RunPackages([]*Package{pkg}, []*Analyzer{a})

	type expectation struct {
		re    *regexp.Regexp
		met   bool
		file  string
		line  int
		value string
	}
	var wants []*expectation
	for _, f := range pkg.Syntax {
		for _, cg := range f.Comments {
			for _, c := range cg.List {
				m := wantRe.FindStringSubmatch(c.Text)
				if m == nil {
					continue
				}
				pos := pkg.Fset.Position(c.Pos())
				for _, q := range splitQuoted(m[1]) {
					pat, err := strconv.Unquote(q)
					if err != nil {
						t.Fatalf("%s:%d: bad want pattern %s: %v", pos.Filename, pos.Line, q, err)
					}
					re, err := regexp.Compile(pat)
					if err != nil {
						t.Fatalf("%s:%d: bad want regexp %q: %v", pos.Filename, pos.Line, pat, err)
					}
					wants = append(wants, &expectation{re: re, file: pos.Filename, line: pos.Line, value: pat})
				}
			}
		}
	}

	for _, d := range diags {
		matched := false
		for _, w := range wants {
			if !w.met && w.file == d.Pos.Filename && w.line == d.Pos.Line && w.re.MatchString(d.Message) {
				w.met = true
				matched = true
				break
			}
		}
		if !matched {
			t.Errorf("unexpected diagnostic: %s", d)
		}
	}
	for _, w := range wants {
		if !w.met {
			t.Errorf("%s:%d: expected diagnostic matching %q, got none", w.file, w.line, w.value)
		}
	}
}

// splitQuoted splits a run of quoted strings: `"a" "b"` -> ["a", "b"]
// (quotes retained).
func splitQuoted(s string) []string {
	var out []string
	for {
		i := strings.IndexByte(s, '"')
		if i < 0 {
			return out
		}
		j := i + 1
		for j < len(s) {
			if s[j] == '\\' {
				j += 2
				continue
			}
			if s[j] == '"' {
				break
			}
			j++
		}
		if j >= len(s) {
			return out
		}
		out = append(out, s[i:j+1])
		s = s[j+1:]
	}
}

// loadFixture type-checks one testdata package under import path path,
// against the repository's real dependencies (resolved through
// `go list -export`, exactly like ordinary packages).
func loadFixture(name, path string) (*Package, error) {
	dir := filepath.Join("testdata", "src", name)
	entries, err := os.ReadDir(dir)
	if err != nil {
		return nil, err
	}
	fset := token.NewFileSet()
	var syntax []*ast.File
	imports := map[string]bool{}
	for _, e := range entries {
		if e.IsDir() || !strings.HasSuffix(e.Name(), ".go") {
			continue
		}
		f, err := parser.ParseFile(fset, filepath.Join(dir, e.Name()), nil, parser.ParseComments)
		if err != nil {
			return nil, err
		}
		syntax = append(syntax, f)
		for _, imp := range f.Imports {
			p, err := strconv.Unquote(imp.Path.Value)
			if err != nil {
				return nil, err
			}
			imports[p] = true
		}
	}
	if len(syntax) == 0 {
		return nil, fmt.Errorf("no Go files in %s", dir)
	}
	var deps []string
	for p := range imports {
		deps = append(deps, p)
	}
	sort.Strings(deps)
	exports := map[string]string{}
	if len(deps) > 0 {
		listed, err := goList(deps...)
		if err != nil {
			return nil, err
		}
		for _, p := range listed {
			if p.Error != nil {
				return nil, fmt.Errorf("%s: %s", p.ImportPath, p.Error.Err)
			}
			exports[p.ImportPath] = p.Export
		}
	}
	return typeCheck(fset, exportImporter(fset, exports), path, dir, syntax)
}
