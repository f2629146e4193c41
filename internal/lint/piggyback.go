package lint

import (
	"go/ast"
	"go/token"
	"go/types"
)

const wirePackage = "windar/internal/wire"

// Piggyback reports construction of application (KindApp) wire envelopes
// that skips the protocol's piggyback hook, and direct indexing of a
// decoded piggyback vector without a preceding length check. Every
// application message must carry the depend_interval (or determinant)
// metadata returned by proto.Protocol.PiggybackForSend — an envelope
// built without a Piggyback field silently breaks delivery control on
// the receiver. And a vector decoded from the wire can be shorter than
// n: `pig[i]` with no `len(pig)` guard is exactly the crash a corrupt
// TCP frame triggers.
var Piggyback = &Analyzer{
	Name: "piggyback",
	Doc:  "require KindApp wire.Envelope literals to set Piggyback from the protocol hook, and length checks before indexing decoded vectors",
	Run:  runPiggyback,
}

func runPiggyback(pass *Pass) {
	info := pass.Pkg.TypesInfo
	for _, f := range pass.Pkg.Syntax {
		checkDecodedVecIndexing(pass, f)
		ast.Inspect(f, func(n ast.Node) bool {
			cl, ok := n.(*ast.CompositeLit)
			if !ok || !isWireEnvelope(info.Types[cl].Type) {
				return true
			}
			kindIsApp := false
			hasPiggyback := false
			keyed := true
			for _, elt := range cl.Elts {
				kv, ok := elt.(*ast.KeyValueExpr)
				if !ok {
					keyed = false
					break
				}
				key, ok := kv.Key.(*ast.Ident)
				if !ok {
					continue
				}
				switch key.Name {
				case "Kind":
					kindIsApp = isKindApp(info, kv.Value)
				case "Piggyback":
					hasPiggyback = true
				}
			}
			if !keyed {
				pass.Reportf(cl.Pos(), "unkeyed wire.Envelope literal; use keyed fields so the piggyback invariant stays checkable")
				return true
			}
			if kindIsApp && !hasPiggyback {
				pass.Reportf(cl.Pos(), "KindApp envelope built without Piggyback; attach the metadata from proto.Protocol.PiggybackForSend (or the logged item)")
			}
			return true
		})
	}
}

// vecReaders are the wire decoders whose vector result length is
// attacker-controlled: nothing about a successful decode bounds it.
// (wire.VecPairs, TDI's v4 piggyback reader, fills no vector: it checks
// every index it reads against n and the sender's index itself.)
var vecReaders = map[string]bool{"ReadVec": true, "ReadVecInto": true, "ReadVecDeltaInto": true}

// checkDecodedVecIndexing flags `v[i]` where v was assigned from a
// wire.ReadVec/ReadVecInto/ReadVecDeltaInto call and no `len(v)` expression
// (or `range v` loop, whose indexes are bounded by construction) appears
// earlier in the same function body.
func checkDecodedVecIndexing(pass *Pass, f *ast.File) {
	info := pass.Pkg.TypesInfo
	funcsOf(f, func(_ *ast.FuncType, body *ast.BlockStmt) {
		// decoded maps each tracked object to the position it was
		// assigned; checked holds the earliest len()/range guard.
		decoded := map[types.Object]token.Pos{}
		checked := map[types.Object]token.Pos{}
		note := func(m map[types.Object]token.Pos, obj types.Object, pos token.Pos) {
			if prev, ok := m[obj]; !ok || pos < prev {
				m[obj] = pos
			}
		}
		objOf := func(e ast.Expr) types.Object {
			id, ok := e.(*ast.Ident)
			if !ok {
				return nil
			}
			if obj := info.Defs[id]; obj != nil {
				return obj
			}
			return info.Uses[id]
		}
		ast.Inspect(body, func(n ast.Node) bool {
			switch e := n.(type) {
			case *ast.AssignStmt:
				if len(e.Rhs) != 1 {
					return true
				}
				call, ok := e.Rhs[0].(*ast.CallExpr)
				if !ok || !isVecReaderCall(info, call) {
					return true
				}
				if obj := objOf(e.Lhs[0]); obj != nil {
					note(decoded, obj, e.Pos())
				}
			case *ast.CallExpr:
				if id, ok := e.Fun.(*ast.Ident); ok && id.Name == "len" && len(e.Args) == 1 {
					if obj := objOf(e.Args[0]); obj != nil {
						note(checked, obj, e.Pos())
					}
				}
			case *ast.RangeStmt:
				if obj := objOf(e.X); obj != nil {
					note(checked, obj, e.Pos())
				}
			case *ast.IndexExpr:
				obj := objOf(e.X)
				if obj == nil {
					return true
				}
				if _, ok := decoded[obj]; !ok {
					return true
				}
				if guard, ok := checked[obj]; ok && guard < e.Pos() {
					return true
				}
				pass.Reportf(e.Pos(), "%s decoded from the wire is indexed without a length check; a corrupt piggyback can be shorter than n — check len(%s) first", obj.Name(), obj.Name())
			}
			return true
		})
	})
}

// isVecReaderCall reports whether call invokes one of the wire package's
// vector decoders.
func isVecReaderCall(info *types.Info, call *ast.CallExpr) bool {
	sel, ok := call.Fun.(*ast.SelectorExpr)
	if !ok {
		return false
	}
	fn, ok := info.Uses[sel.Sel].(*types.Func)
	return ok && vecReaders[fn.Name()] && fn.Pkg() != nil && fn.Pkg().Path() == wirePackage
}

// isWireEnvelope reports whether t is windar/internal/wire.Envelope
// (possibly behind a pointer, as in &wire.Envelope{...}).
func isWireEnvelope(t types.Type) bool {
	if t == nil {
		return false
	}
	if p, ok := t.(*types.Pointer); ok {
		t = p.Elem()
	}
	n, ok := t.(*types.Named)
	if !ok {
		return false
	}
	obj := n.Obj()
	return obj.Name() == "Envelope" && obj.Pkg() != nil && obj.Pkg().Path() == wirePackage
}

// isKindApp reports whether expr resolves to the wire.KindApp constant.
func isKindApp(info *types.Info, expr ast.Expr) bool {
	var id *ast.Ident
	switch e := expr.(type) {
	case *ast.Ident:
		id = e
	case *ast.SelectorExpr:
		id = e.Sel
	default:
		return false
	}
	c, ok := info.Uses[id].(*types.Const)
	return ok && c.Name() == "KindApp" && c.Pkg() != nil && c.Pkg().Path() == wirePackage
}
