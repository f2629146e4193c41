// Package lint is a protocol-aware static analysis suite for this
// repository: a small analyzer framework in the shape of
// golang.org/x/tools/go/analysis (deliberately not imported: the suite
// is self-contained and stdlib-only) plus the analyzers that Analyzers
// returns. An analyzer belongs here only while a bug class it targets
// gets past every test and gate; DESIGN.md "Enforced invariants" lists
// which gate catches what.
//
// Run all analyzers over package patterns with Run, or chosen ones with
// RunAnalyzers.
//
// # Suppressions
//
// A line directive, written with no space after "//" (the Go pragma
// convention), suppresses the named analyzers' diagnostics on its own
// line; the trailing free-form reason is for the human reader and is
// expected on every use:
//
//	t := clk.Now() //windar:allow directclock — measuring real elapsed time
package lint

import (
	"fmt"
	"go/token"
	"regexp"
	"sort"
	"strings"
)

// Analyzer is one static check. It mirrors the x/tools analysis.Analyzer
// shape so the passes can be ported onto the real framework if the
// dependency ever becomes available. Exactly one of Run and RunModule is
// set: Run sees one package at a time, RunModule sees every loaded
// package at once (for cross-package properties like lock ordering).
type Analyzer struct {
	// Name identifies the analyzer in diagnostics and allow comments.
	Name string
	// Doc is a one-line description.
	Doc string
	// Run inspects pass.Pkg and reports findings via pass.Reportf.
	Run func(pass *Pass)
	// RunModule inspects every package of the load at once.
	RunModule func(mp *ModulePass)
}

// Pass carries one analyzer's execution over one package.
type Pass struct {
	Analyzer *Analyzer
	Pkg      *Package

	diags []Diagnostic
}

// Reportf records a diagnostic at pos.
func (p *Pass) Reportf(pos token.Pos, format string, args ...any) {
	p.diags = append(p.diags, Diagnostic{
		Analyzer: p.Analyzer.Name,
		Pos:      p.Pkg.Fset.Position(pos),
		Message:  fmt.Sprintf(format, args...),
	})
}

// ModulePass carries one module-level analyzer's execution over every
// loaded package.
type ModulePass struct {
	Analyzer *Analyzer
	Pkgs     []*Package

	diags []Diagnostic
}

// Reportf records a diagnostic at pos, resolved through pkg's file set.
func (mp *ModulePass) Reportf(pkg *Package, pos token.Pos, format string, args ...any) {
	mp.diags = append(mp.diags, Diagnostic{
		Analyzer: mp.Analyzer.Name,
		Pos:      pkg.Fset.Position(pos),
		Message:  fmt.Sprintf(format, args...),
	})
}

// Diagnostic is one finding.
type Diagnostic struct {
	Analyzer string
	Pos      token.Position
	Message  string
}

// String formats the diagnostic as path:line:col: analyzer: message.
func (d Diagnostic) String() string {
	return fmt.Sprintf("%s:%d:%d: %s: %s", d.Pos.Filename, d.Pos.Line, d.Pos.Column, d.Analyzer, d.Message)
}

// Analyzers returns the full suite in a stable order.
func Analyzers() []*Analyzer {
	return []*Analyzer{DirectClock, Locks, PubAPI}
}

// allowRe matches a //windar:allow directive and its analyzer list.
var allowRe = regexp.MustCompile(`^//windar:allow\b[ \t]*([a-z,]*)`)

// allowed maps file:line to the analyzer names an allow directive
// suppresses there, over every comment of pkgs.
func allowed(pkgs []*Package) map[string]map[string]bool {
	out := map[string]map[string]bool{}
	for _, pkg := range pkgs {
		for _, f := range pkg.Syntax {
			for _, cg := range f.Comments {
				for _, c := range cg.List {
					m := allowRe.FindStringSubmatch(c.Text)
					if m == nil {
						continue
					}
					pos := pkg.Fset.Position(c.Pos())
					key := fmt.Sprintf("%s:%d", pos.Filename, pos.Line)
					if out[key] == nil {
						out[key] = map[string]bool{}
					}
					for _, name := range strings.Split(m[1], ",") {
						if name != "" {
							out[key][name] = true
						}
					}
				}
			}
		}
	}
	return out
}

// RunPackages executes the analyzers over every loaded package: Run
// analyzers per package, RunModule analyzers once over the whole set.
// //windar:allow suppressions are applied and the surviving diagnostics
// returned sorted by position.
func RunPackages(pkgs []*Package, analyzers []*Analyzer) []Diagnostic {
	allow := allowed(pkgs)
	var diags []Diagnostic
	keep := func(ds []Diagnostic) {
		for _, d := range ds {
			if !allow[fmt.Sprintf("%s:%d", d.Pos.Filename, d.Pos.Line)][d.Analyzer] {
				diags = append(diags, d)
			}
		}
	}
	for _, a := range analyzers {
		if a.RunModule != nil {
			mp := &ModulePass{Analyzer: a, Pkgs: pkgs}
			a.RunModule(mp)
			keep(mp.diags)
			continue
		}
		for _, pkg := range pkgs {
			pass := &Pass{Analyzer: a, Pkg: pkg}
			a.Run(pass)
			keep(pass.diags)
		}
	}
	sort.Slice(diags, func(i, j int) bool {
		a, b := diags[i], diags[j]
		if a.Pos.Filename != b.Pos.Filename {
			return a.Pos.Filename < b.Pos.Filename
		}
		if a.Pos.Line != b.Pos.Line {
			return a.Pos.Line < b.Pos.Line
		}
		return a.Analyzer < b.Analyzer
	})
	return diags
}

// Run loads the packages matching patterns and executes the full suite.
func Run(patterns []string) ([]Diagnostic, error) {
	return RunAnalyzers(patterns, Analyzers())
}

// RunAnalyzers loads the packages matching patterns and executes the
// given analyzers.
func RunAnalyzers(patterns []string, analyzers []*Analyzer) ([]Diagnostic, error) {
	pkgs, err := Load(patterns...)
	if err != nil {
		return nil, err
	}
	return RunPackages(pkgs, analyzers), nil
}
