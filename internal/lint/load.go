package lint

import (
	"bytes"
	"encoding/json"
	"fmt"
	"go/ast"
	"go/importer"
	"go/parser"
	"go/token"
	"go/types"
	"io"
	"os"
	"os/exec"
	"path/filepath"
)

// Package is one type-checked package ready for analysis.
type Package struct {
	// Path is the import path.
	Path string
	// Dir is the package directory on disk.
	Dir string
	// Fset positions all syntax and diagnostics.
	Fset *token.FileSet
	// Syntax holds the parsed non-test Go files.
	Syntax []*ast.File
	// Types is the checked package object.
	Types *types.Package
	// TypesInfo records uses, selections and expression types.
	TypesInfo *types.Info
}

// listedPackage is the subset of `go list -json` output the loader needs.
type listedPackage struct {
	ImportPath string
	Dir        string
	Export     string
	GoFiles    []string
	Standard   bool
	Error      *struct{ Err string }
}

// goList runs `go list -export -json -deps` over patterns and returns
// every listed package. -export compiles each package to the build
// cache, giving the type checker export data without network access or
// a vendored x/tools.
func goList(patterns ...string) ([]listedPackage, error) {
	args := append([]string{"list", "-export", "-json", "-deps", "--"}, patterns...)
	cmd := exec.Command("go", args...)
	var stdout, stderr bytes.Buffer
	cmd.Stdout = &stdout
	cmd.Stderr = &stderr
	if err := cmd.Run(); err != nil {
		return nil, fmt.Errorf("lint: go list %v: %v\n%s", patterns, err, stderr.String())
	}
	var pkgs []listedPackage
	dec := json.NewDecoder(&stdout)
	for {
		var p listedPackage
		if err := dec.Decode(&p); err == io.EOF {
			break
		} else if err != nil {
			return nil, fmt.Errorf("lint: decoding go list output: %v", err)
		}
		pkgs = append(pkgs, p)
	}
	return pkgs, nil
}

// exportImporter resolves imports from the export files `go list -export`
// produced.
func exportImporter(fset *token.FileSet, exports map[string]string) types.Importer {
	lookup := func(path string) (io.ReadCloser, error) {
		file, ok := exports[path]
		if !ok || file == "" {
			return nil, fmt.Errorf("lint: no export data for %q", path)
		}
		return os.Open(file)
	}
	return importer.ForCompiler(fset, "gc", lookup)
}

// Load type-checks the non-test files of every non-stdlib package
// matching patterns (as understood by `go list`, e.g. "./...").
func Load(patterns ...string) ([]*Package, error) {
	listed, err := goList(patterns...)
	if err != nil {
		return nil, err
	}
	exports := make(map[string]string, len(listed))
	targets := make([]listedPackage, 0, len(listed))
	// -deps appends the named packages after their dependencies, but the
	// pattern match itself is simplest to recover structurally: analyze
	// every listed non-stdlib package that belongs to this module tree.
	for _, p := range listed {
		if p.Error != nil {
			return nil, fmt.Errorf("lint: %s: %s", p.ImportPath, p.Error.Err)
		}
		exports[p.ImportPath] = p.Export
		if !p.Standard {
			targets = append(targets, p)
		}
	}
	fset := token.NewFileSet()
	imp := exportImporter(fset, exports)
	var out []*Package
	for _, p := range targets {
		pkg, err := checkPackage(fset, imp, p.ImportPath, p.Dir, p.GoFiles)
		if err != nil {
			return nil, err
		}
		out = append(out, pkg)
	}
	return out, nil
}

// checkPackage parses and type-checks one package from source.
func checkPackage(fset *token.FileSet, imp types.Importer, path, dir string, files []string) (*Package, error) {
	var syntax []*ast.File
	for _, name := range files {
		f, err := parser.ParseFile(fset, filepath.Join(dir, name), nil, parser.ParseComments)
		if err != nil {
			return nil, fmt.Errorf("lint: %w", err)
		}
		syntax = append(syntax, f)
	}
	return typeCheck(fset, imp, path, dir, syntax)
}

// typeCheck runs the go/types checker over parsed syntax.
func typeCheck(fset *token.FileSet, imp types.Importer, path, dir string, syntax []*ast.File) (*Package, error) {
	info := &types.Info{
		Types:      map[ast.Expr]types.TypeAndValue{},
		Defs:       map[*ast.Ident]types.Object{},
		Uses:       map[*ast.Ident]types.Object{},
		Selections: map[*ast.SelectorExpr]*types.Selection{},
	}
	conf := types.Config{Importer: imp}
	tpkg, err := conf.Check(path, fset, syntax, info)
	if err != nil {
		return nil, fmt.Errorf("lint: type-checking %s: %w", path, err)
	}
	return &Package{
		Path:      path,
		Dir:       dir,
		Fset:      fset,
		Syntax:    syntax,
		Types:     tpkg,
		TypesInfo: info,
	}, nil
}
