package lint

import (
	"go/ast"
	"go/types"
)

// ErrDrop reports wire decode calls whose error result is dropped. The
// ingest path's hostile-input hardening (malformed envelopes, truncated
// piggybacks, bad deltas) only works if every decode error is looked at:
// a dropped error turns garbage bytes into a zero-value envelope or
// vector that delivery control then trusts. A call drops its error when
// it stands alone as a statement or assigns the error to the blank
// identifier. (A `:=`-bound error that is never read cannot occur in
// compiling code — the compiler's unused-variable check owns that case.)
var ErrDrop = &Analyzer{
	Name: "errdrop",
	Doc:  "require every wire.Read*/Decode* error to be consumed on the ingest path",
	Run:  runErrDrop,
}

func runErrDrop(pass *Pass) {
	for _, f := range pass.Pkg.Syntax {
		ast.Inspect(f, func(n ast.Node) bool {
			switch n := n.(type) {
			case *ast.ExprStmt:
				if name := wireDecodeCall(pass, n.X); name != "" {
					pass.Reportf(n.Pos(), "result of %s dropped; its error must be consumed", name)
				}
			case *ast.AssignStmt:
				if len(n.Rhs) != 1 {
					return true
				}
				name := wireDecodeCall(pass, n.Rhs[0])
				if name == "" {
					return true
				}
				// The error is the call's last result, so it lands in the
				// last left-hand operand.
				last, ok := n.Lhs[len(n.Lhs)-1].(*ast.Ident)
				if !ok {
					return true
				}
				if last.Name == "_" {
					pass.Reportf(last.Pos(), "error of %s assigned to _; it must be consumed", name)
				}
			}
			return true
		})
	}
}

// wireDecodeCall reports whether expr is a call to a wire decode
// primitive whose last result is an error, returning its display name
// ("" otherwise). Covered: every package-level wire.Read*/Decode*
// function and the FrameReader.Read method.
func wireDecodeCall(pass *Pass, expr ast.Expr) string {
	call, ok := expr.(*ast.CallExpr)
	if !ok {
		return ""
	}
	sel, ok := call.Fun.(*ast.SelectorExpr)
	if !ok {
		return ""
	}
	fn, ok := pass.Pkg.TypesInfo.Uses[sel.Sel].(*types.Func)
	if !ok || fn.Pkg() == nil || fn.Pkg().Path() != "windar/internal/wire" {
		return ""
	}
	name := fn.Name()
	isDecode := len(name) >= 4 && (name[:4] == "Read" || (len(name) >= 6 && name[:6] == "Decode"))
	recv := fn.Type().(*types.Signature).Recv()
	if recv != nil {
		// Methods: only the frame reader decodes.
		if typeName(recv.Type()) != "FrameReader" || name != "Read" {
			return ""
		}
		isDecode = true
	}
	if !isDecode {
		return ""
	}
	sig := fn.Type().(*types.Signature)
	res := sig.Results()
	if res.Len() == 0 {
		return ""
	}
	if named, ok := res.At(res.Len() - 1).Type().(*types.Named); !ok || named.Obj().Name() != "error" {
		return ""
	}
	if recv != nil {
		return "wire." + typeName(recv.Type()) + "." + name
	}
	return "wire." + name
}
