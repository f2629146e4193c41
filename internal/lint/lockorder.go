package lint

import (
	"fmt"
	"go/ast"
	"go/token"
	"go/types"
	"sort"
	"strings"
)

// LockOrder builds the cross-package mutex-acquisition graph of the
// harness, fabric, transport and obs layers and reports cycles — the
// deadlock shape locksend cannot see: no single blocking call, just two
// code paths taking the same two locks in opposite orders. Locks are
// identified structurally (defining type plus field, or package-level
// variable), covering sync.Mutex, sync.RWMutex and module-local locks
// with Lock/Unlock method pairs (a channel-backed lock, say). Acquisitions
// under a held lock are collected both directly and through statically
// resolvable calls (a bounded transitive closure over the analyzed
// packages), so `Recv -> takeDeliverableLocked -> takeShard -> lockShard`
// contributes the rankRuntime.mu -> deliveryShard.mu edge even though no
// one function takes both locks.
//
// Limitations, by construction: locks reached through interfaces or
// function values are invisible; two instances of the same (type, field)
// share one identity, so instance-ordered acquisition of sibling locks
// cannot be expressed and same-identity nesting is not reported.
var LockOrder = &Analyzer{
	Name:      "lockorder",
	Doc:       "report mutex acquisition-order cycles across the harness/fabric/transport/obs lock graph",
	RunModule: runLockOrder,
}

// fixturePathPrefix is the synthetic import path fixtures under
// testdata/src are checked under. It lies outside every analyzer's
// scope, so lockOrderScope names its fixture explicitly.
const fixturePathPrefix = "windar/internal/lint/testdata/src/"

// lockOrderScope lists the import path prefixes whose lock graph the
// analyzer builds.
var lockOrderScope = []string{
	"windar/internal/harness",
	"windar/internal/fabric",
	"windar/internal/transport",
	"windar/internal/obs",
	fixturePathPrefix + "lockorder",
}

// lockEdge is one observed ordering: to was acquired while from was
// held, at pos (in pkg's file set).
type lockEdge struct {
	from, to string
	pkg      *Package
	pos      token.Pos
	via      string // callee name for transitive acquisitions, "" for direct
}

func runLockOrder(mp *ModulePass) {
	var pkgs []*Package
	for _, pkg := range mp.Pkgs {
		for _, prefix := range lockOrderScope {
			if strings.HasPrefix(pkg.Path, prefix) {
				pkgs = append(pkgs, pkg)
				break
			}
		}
	}
	if len(pkgs) == 0 {
		return
	}

	// Pass 1: per-function direct acquisitions and static call edges.
	funcs := map[types.Object]*lockFunc{}
	for _, pkg := range pkgs {
		for _, f := range pkg.Syntax {
			for _, decl := range f.Decls {
				fd, ok := decl.(*ast.FuncDecl)
				if !ok || fd.Body == nil {
					continue
				}
				obj := pkg.TypesInfo.Defs[fd.Name]
				if obj == nil {
					continue
				}
				fi := &lockFunc{pkg: pkg, body: fd.Body, acquires: map[string]bool{}}
				ast.Inspect(fd.Body, func(n ast.Node) bool {
					if _, ok := n.(*ast.GoStmt); ok {
						// A spawned goroutine's locks are not taken under the
						// caller's held set; its body is analyzed on its own.
						// Function literals outside go statements stay in: a
						// sync.Once.Do or deferred closure runs on this
						// goroutine and its acquisitions count.
						return false
					}
					call, ok := n.(*ast.CallExpr)
					if !ok {
						return true
					}
					if id, op := lockIdentity(pkg, call); id != "" && (op == "Lock" || op == "RLock") {
						fi.acquires[id] = true
					}
					if obj := staticCallee(pkg, call); obj != nil {
						fi.calls = append(fi.calls, obj)
					}
					return true
				})
				funcs[obj] = fi
			}
		}
	}

	// Pass 2: transitive closure — everything a function may acquire
	// through calls into the analyzed set.
	closure := map[types.Object]map[string]bool{}
	for obj, fi := range funcs {
		acq := map[string]bool{}
		for id := range fi.acquires {
			acq[id] = true
		}
		closure[obj] = acq
	}
	for changed := true; changed; {
		changed = false
		for obj, fi := range funcs {
			acq := closure[obj]
			for _, callee := range fi.calls {
				for id := range closure[callee] {
					if !acq[id] {
						acq[id] = true
						changed = true
					}
				}
			}
		}
	}

	// Pass 3: ordered edges via a linear held-set walk per function.
	var edges []lockEdge
	for _, fi := range funcs {
		edges = append(edges, scanLockOrder(fi.pkg, fi.body, funcs, closure)...)
	}

	reportLockCycles(mp, edges)
}

// scanLockOrder walks one body in source order tracking the held lock
// identities (the same linear approximation locksend uses) and records
// an edge for every acquisition — direct or through a resolvable call —
// made while another lock is held.
func scanLockOrder(pkg *Package, body *ast.BlockStmt, funcs map[types.Object]*lockFunc, closure map[types.Object]map[string]bool) []lockEdge {
	var edges []lockEdge
	held := map[string]token.Pos{}
	var heldOrder []string
	release := func(id string) {
		delete(held, id)
		for i, h := range heldOrder {
			if h == id {
				heldOrder = append(heldOrder[:i], heldOrder[i+1:]...)
				break
			}
		}
	}
	var visit func(n ast.Node) bool
	visit = func(n ast.Node) bool {
		switch n := n.(type) {
		case *ast.FuncLit:
			// Closure bodies run later; analyze with an empty held set.
			edges = append(edges, scanLockOrder(pkg, n.Body, funcs, closure)...)
			return false
		case *ast.GoStmt:
			if fl, ok := n.Call.Fun.(*ast.FuncLit); ok {
				edges = append(edges, scanLockOrder(pkg, fl.Body, funcs, closure)...)
			}
			return false
		case *ast.DeferStmt:
			// defer mu.Unlock() keeps the lock held for the rest of the
			// body, exactly like locksend's model; other deferred calls
			// are skipped (they run at return, outside this walk's order).
			if fl, ok := n.Call.Fun.(*ast.FuncLit); ok {
				edges = append(edges, scanLockOrder(pkg, fl.Body, funcs, closure)...)
			}
			return false
		case *ast.CallExpr:
			if id, op := lockIdentity(pkg, n); id != "" {
				switch op {
				case "Lock", "RLock":
					for _, h := range heldOrder {
						if h != id {
							edges = append(edges, lockEdge{from: h, to: id, pkg: pkg, pos: n.Pos()})
						}
					}
					if _, ok := held[id]; !ok {
						held[id] = n.Pos()
						heldOrder = append(heldOrder, id)
					}
				case "Unlock", "RUnlock":
					release(id)
				}
				return true
			}
			if len(heldOrder) > 0 {
				if obj := staticCallee(pkg, n); obj != nil {
					for id := range closure[obj] {
						for _, h := range heldOrder {
							if h != id {
								edges = append(edges, lockEdge{from: h, to: id, pkg: pkg, pos: n.Pos(), via: obj.Name()})
							}
						}
					}
				}
			}
		}
		return true
	}
	ast.Inspect(body, visit)
	return edges
}

// lockFunc is one analyzed function: its direct lock acquisitions and
// statically resolvable callees.
type lockFunc struct {
	pkg      *Package
	body     *ast.BlockStmt
	acquires map[string]bool
	calls    []types.Object
}

// lockIdentity resolves call to a lock operation and returns the lock's
// structural identity ("pkg.Type.field" or "pkg.var") and the method
// name. Covered receivers: sync.Mutex/RWMutex and named types with both
// Lock and Unlock in their method set. Locks that are local variables or
// reached through unresolvable expressions return "".
func lockIdentity(pkg *Package, call *ast.CallExpr) (string, string) {
	sel, ok := call.Fun.(*ast.SelectorExpr)
	if !ok {
		return "", ""
	}
	fn, ok := pkg.TypesInfo.Uses[sel.Sel].(*types.Func)
	if !ok {
		return "", ""
	}
	op := fn.Name()
	if op != "Lock" && op != "Unlock" && op != "RLock" && op != "RUnlock" {
		return "", ""
	}
	recv := fn.Type().(*types.Signature).Recv()
	if recv == nil || !isLockType(recv.Type()) {
		return "", ""
	}
	// Identify the lock by where it lives, not what expression reached it.
	switch x := sel.X.(type) {
	case *ast.SelectorExpr:
		// r.mu.Lock(): field mu of r's type.
		if s, ok := pkg.TypesInfo.Selections[x]; ok {
			owner := typeName(s.Recv())
			ownerPkg := ""
			if obj := namedObj(s.Recv()); obj != nil && obj.Pkg() != nil {
				ownerPkg = obj.Pkg().Name()
			}
			if owner != "" {
				return fmt.Sprintf("%s.%s.%s", ownerPkg, owner, x.Sel.Name), op
			}
		}
	case *ast.Ident:
		// mu.Lock(): package-level var (or a local, which has no stable
		// cross-function identity and is skipped).
		if obj := pkg.TypesInfo.Uses[x]; obj != nil && obj.Pkg() != nil {
			if obj.Parent() == obj.Pkg().Scope() {
				return obj.Pkg().Name() + "." + obj.Name(), op
			}
		}
	}
	return "", ""
}

// isLockType reports whether t (possibly a pointer) is sync.Mutex,
// sync.RWMutex, or a named type carrying both Lock and Unlock methods.
func isLockType(t types.Type) bool {
	obj := namedObj(t)
	if obj == nil {
		return false
	}
	if obj.Pkg() != nil && obj.Pkg().Path() == "sync" {
		return obj.Name() == "Mutex" || obj.Name() == "RWMutex"
	}
	if p, ok := t.(*types.Pointer); ok {
		t = p.Elem()
	}
	has := func(name string) bool {
		obj, _, _ := types.LookupFieldOrMethod(t, true, obj.Pkg(), name)
		_, ok := obj.(*types.Func)
		return ok
	}
	return has("Lock") && has("Unlock")
}

// namedObj returns the type name object of a (possibly pointer-wrapped)
// named type, or nil.
func namedObj(t types.Type) *types.TypeName {
	if p, ok := t.(*types.Pointer); ok {
		t = p.Elem()
	}
	if n, ok := t.(*types.Named); ok {
		return n.Obj()
	}
	return nil
}

// staticCallee resolves call to a function object declared somewhere
// (not an interface method), or nil.
func staticCallee(pkg *Package, call *ast.CallExpr) types.Object {
	var obj types.Object
	switch fun := call.Fun.(type) {
	case *ast.Ident:
		obj = pkg.TypesInfo.Uses[fun]
	case *ast.SelectorExpr:
		// Interface method calls resolve to the interface's *types.Func,
		// which has no body in the index and simply contributes nothing.
		obj = pkg.TypesInfo.Uses[fun.Sel]
	}
	if _, ok := obj.(*types.Func); !ok {
		return nil
	}
	return obj
}

// reportLockCycles finds strongly connected components of the ordering
// graph and reports every edge inside one — each such edge is part of at
// least one acquisition-order cycle.
func reportLockCycles(mp *ModulePass, edges []lockEdge) {
	adj := map[string]map[string]bool{}
	nodes := map[string]bool{}
	for _, e := range edges {
		if adj[e.from] == nil {
			adj[e.from] = map[string]bool{}
		}
		adj[e.from][e.to] = true
		nodes[e.from], nodes[e.to] = true, true
	}
	// Kosaraju: order by finish time, then assign components on the
	// transposed graph.
	var order []string
	visited := map[string]bool{}
	var dfs1 func(string)
	dfs1 = func(n string) {
		visited[n] = true
		for m := range adj[n] {
			if !visited[m] {
				dfs1(m)
			}
		}
		order = append(order, n)
	}
	var sortedNodes []string
	for n := range nodes {
		sortedNodes = append(sortedNodes, n)
	}
	sort.Strings(sortedNodes)
	for _, n := range sortedNodes {
		if !visited[n] {
			dfs1(n)
		}
	}
	radj := map[string]map[string]bool{}
	for from, tos := range adj {
		for to := range tos {
			if radj[to] == nil {
				radj[to] = map[string]bool{}
			}
			radj[to][from] = true
		}
	}
	comp := map[string]int{}
	var dfs2 func(string, int)
	dfs2 = func(n string, c int) {
		comp[n] = c
		for m := range radj[n] {
			if _, done := comp[m]; !done {
				dfs2(m, c)
			}
		}
	}
	nc := 0
	for i := len(order) - 1; i >= 0; i-- {
		if _, done := comp[order[i]]; !done {
			dfs2(order[i], nc)
			nc++
		}
	}
	// Component sizes: a cycle needs at least two distinct locks (same-
	// identity self edges are filtered at collection time).
	size := map[int]int{}
	for _, c := range comp {
		size[c]++
	}
	members := map[int][]string{}
	for n, c := range comp {
		members[c] = append(members[c], n)
	}
	reported := map[string]bool{}
	for _, e := range edges {
		c, ok := comp[e.from]
		if !ok || comp[e.to] != c || size[c] < 2 {
			continue
		}
		key := fmt.Sprintf("%s->%s@%v", e.from, e.to, e.pkg.Fset.Position(e.pos))
		if reported[key] {
			continue
		}
		reported[key] = true
		ms := members[c]
		sort.Strings(ms)
		via := ""
		if e.via != "" {
			via = fmt.Sprintf(" (via call to %s)", e.via)
		}
		mp.Reportf(e.pkg, e.pos,
			"lock order cycle: %s acquired while %s is held%s, but elsewhere the order is reversed; cycle members: %s",
			e.to, e.from, via, strings.Join(ms, ", "))
	}
}
