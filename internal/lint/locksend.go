package lint

import (
	"go/ast"
	"go/token"
	"go/types"
)

// LockSend reports blocking operations performed while a sync.Mutex or
// sync.RWMutex is held: channel sends, sync.WaitGroup.Wait, blocking
// fabric and transport calls (Fabric.Send, Transport.Send, Inbox.Recv)
// and clock sleeps. Holding a rank or link mutex across any of these is
// the classic harness/fabric deadlock shape: the peer needs the same
// mutex to drain the channel.
var LockSend = &Analyzer{
	Name: "locksend",
	Doc:  "forbid channel sends and blocking fabric/transport/waitgroup calls while a sync.Mutex is held",
	Run:  runLockSend,
}

func runLockSend(pass *Pass) {
	for _, f := range pass.Pkg.Syntax {
		ast.Inspect(f, func(n ast.Node) bool {
			switch d := n.(type) {
			case *ast.FuncDecl:
				if d.Body != nil {
					scanLockSend(pass, d.Body)
				}
			case *ast.FuncLit:
				scanLockSend(pass, d.Body)
			}
			return true
		})
	}
}

// mutexMethod resolves sel to a method on sync.Mutex/sync.RWMutex and
// returns its name ("" otherwise). Embedded mutexes resolve to the same
// method objects, so they are covered.
func mutexMethod(pass *Pass, sel *ast.SelectorExpr) string {
	fn, ok := pass.Pkg.TypesInfo.Uses[sel.Sel].(*types.Func)
	if !ok || fn.Pkg() == nil || fn.Pkg().Path() != "sync" {
		return ""
	}
	recv := fn.Type().(*types.Signature).Recv()
	if recv == nil {
		return ""
	}
	name := typeName(recv.Type())
	if name != "Mutex" && name != "RWMutex" {
		return ""
	}
	return fn.Name()
}

// typeName returns the bare name of a (possibly pointer-wrapped) named
// type, or "".
func typeName(t types.Type) string {
	if p, ok := t.(*types.Pointer); ok {
		t = p.Elem()
	}
	if n, ok := t.(*types.Named); ok {
		return n.Obj().Name()
	}
	return ""
}

// blockingCall describes why a call may block indefinitely, or "".
func blockingCall(pass *Pass, call *ast.CallExpr) string {
	sel, ok := call.Fun.(*ast.SelectorExpr)
	if !ok {
		return ""
	}
	fn, ok := pass.Pkg.TypesInfo.Uses[sel.Sel].(*types.Func)
	if !ok || fn.Pkg() == nil {
		return ""
	}
	recv := fn.Type().(*types.Signature).Recv()
	if recv == nil {
		return ""
	}
	switch fn.Pkg().Path() {
	case "sync":
		if typeName(recv.Type()) == "WaitGroup" && fn.Name() == "Wait" {
			return "sync.WaitGroup.Wait"
		}
	case "windar/internal/fabric":
		if fn.Name() == "Send" || fn.Name() == "Recv" {
			return "fabric." + typeName(recv.Type()) + "." + fn.Name()
		}
	case "windar/internal/transport":
		// The transport interface has the same blocking shape as the
		// fabric: Send may rendezvous or backpressure, Recv parks until
		// a message or a kill.
		if fn.Name() == "Send" || fn.Name() == "Recv" {
			return "transport." + typeName(recv.Type()) + "." + fn.Name()
		}
	case "windar/internal/clock":
		if fn.Name() == "Sleep" {
			return "clock sleep"
		}
	}
	return ""
}

// scanLockSend walks one function body in source order, tracking which
// mutex expressions are held. This is a linear approximation (no CFG):
// a Lock in a branch is treated as held for the rest of the function
// until the matching Unlock is seen, which matches how this codebase
// writes its critical sections.
func scanLockSend(pass *Pass, body *ast.BlockStmt) {
	held := map[string]token.Pos{}
	// Sends inside a select that has a default clause are non-blocking.
	nonBlockingSends := map[*ast.SendStmt]bool{}
	ast.Inspect(body, func(n ast.Node) bool {
		sel, ok := n.(*ast.SelectStmt)
		if !ok {
			return true
		}
		hasDefault := false
		for _, c := range sel.Body.List {
			if cc, ok := c.(*ast.CommClause); ok && cc.Comm == nil {
				hasDefault = true
			}
		}
		if !hasDefault {
			return true
		}
		for _, c := range sel.Body.List {
			cc := c.(*ast.CommClause)
			if send, ok := cc.Comm.(*ast.SendStmt); ok {
				nonBlockingSends[send] = true
			}
		}
		return true
	})

	var visit func(n ast.Node) bool
	visit = func(n ast.Node) bool {
		switch n := n.(type) {
		case *ast.FuncLit:
			// A closure body runs later (goroutine, defer, callback):
			// analyze it independently with no locks held.
			scanLockSend(pass, n.Body)
			return false
		case *ast.DeferStmt:
			// defer mu.Unlock() releases at return; the mutex stays held
			// for the remainder of the body, which is exactly when sends
			// are dangerous, so keep it in the held set.
			if fl, ok := n.Call.Fun.(*ast.FuncLit); ok {
				scanLockSend(pass, fl.Body)
			}
			return false
		case *ast.CallExpr:
			if sel, ok := n.Fun.(*ast.SelectorExpr); ok {
				switch mutexMethod(pass, sel) {
				case "Lock", "RLock":
					held[types.ExprString(sel.X)] = n.Pos()
					return true
				case "Unlock", "RUnlock":
					delete(held, types.ExprString(sel.X))
					return true
				}
			}
			if len(held) > 0 {
				if what := blockingCall(pass, n); what != "" {
					pass.Reportf(n.Pos(), "%s while %s is held can deadlock; release the mutex first", what, anyHeld(held))
				}
			}
		case *ast.SendStmt:
			if len(held) > 0 && !nonBlockingSends[n] {
				pass.Reportf(n.Pos(), "channel send while %s is held can deadlock; release the mutex first", anyHeld(held))
			}
		}
		return true
	}
	ast.Inspect(body, visit)
}

// anyHeld names one held mutex for the diagnostic (the first in map
// order is fine: usually exactly one is held).
func anyHeld(held map[string]token.Pos) string {
	best := ""
	var bestPos token.Pos
	for name, pos := range held {
		if best == "" || pos < bestPos {
			best, bestPos = name, pos
		}
	}
	return best
}
