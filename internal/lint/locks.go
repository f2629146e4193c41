package lint

import (
	"fmt"
	"go/ast"
	"go/token"
	"go/types"
	"maps"
	"slices"
	"sort"
	"strings"
)

// Locks checks the module's lock discipline from one held-lock walk per
// function body, and reports two deadlock shapes from it: an
// acquisition-order cycle in the harness/fabric/transport/obs lock graph
// (two code paths taking the same two locks in opposite orders; every
// edge inside a strongly connected component is reported with its
// members), and, in every package, a blocking operation under a held
// lock — a channel send outside a select with a default clause,
// sync.WaitGroup.Wait, a fabric or transport Send/Recv, or a clock
// sleep, which the peer that would unblock it may need the lock for.
//
// The walk follows structured control flow: an arm that ends in return,
// panic, break, continue or goto hands nothing to the code after it,
// and where arms meet a lock is held if any arm that falls through
// holds it. A deferred Unlock keeps its lock held to the end of the
// body. Each function's summary — the locks it or a static callee may
// acquire, and those it may still hold at return (TryLock acquires) —
// is computed to a fixed point over the analyzed packages, so
// `Recv -> takeShard -> lockShard` contributes the rankRuntime.mu ->
// deliveryShard.mu edge and a caller of lockShard holds the shard lock
// after the call. Goroutine and closure bodies start with nothing held.
//
// A lock is identified by where it lives, "pkg.Type.field" or
// "pkg.var", covering sync.Mutex, sync.RWMutex and module types with a
// Lock/Unlock method pair (a channel-backed lock, say); a lock in a
// local variable or parameter is identified per function,
// "pkg.Func:expr", and never enters a summary. By construction, locks
// reached through interfaces or function values are invisible, two
// instances of one (type, field) share an identity (so same-identity
// nesting is not reported), and a loop body is walked once.
var Locks = &Analyzer{
	Name:      "locks",
	Doc:       "report lock-order cycles, and channel sends or blocking fabric/transport/waitgroup/sleep calls while a lock is held",
	RunModule: runLocks,
}

// fixturePathPrefix is the synthetic import path fixtures under
// testdata/src are checked under. It lies outside every analyzer's
// scope, so lockOrderScope names its order fixtures explicitly.
const fixturePathPrefix = "windar/internal/lint/testdata/src/"

// lockOrderScope lists the import path prefixes whose lock graph the
// analyzer builds.
var lockOrderScope = []string{
	"windar/internal/harness",
	"windar/internal/fabric",
	"windar/internal/transport",
	"windar/internal/obs",
	fixturePathPrefix + "lockorder",
	fixturePathPrefix + "locks",
}

// lockFunc is one analyzed function declaration and its summary.
type lockFunc struct {
	pkg      *Package
	decl     *ast.FuncDecl
	name     string          // "pkg.Func" or "pkg.Type.Method", for local lock identities
	inScope  bool            // its acquisitions feed the order graph
	acquires map[string]bool // structural locks it or a static callee may take
	returns  map[string]bool // structural locks it may still hold at return
}

// lockEdge is one observed ordering: to was acquired while from was
// held, at pos (in pkg's file set).
type lockEdge struct {
	from, to string
	pkg      *Package
	pos      token.Pos
	via      string // callee name for transitive acquisitions, "" for direct
}

// lockBlock is one blocking operation while lock is held.
type lockBlock struct {
	pkg        *Package
	pos        token.Pos
	what, lock string
}

// lockCheck is one module pass: the function summaries, and what the
// current round of walks observed.
type lockCheck struct {
	funcs   map[types.Object]*lockFunc
	changed bool // a summary grew this round
	edges   []lockEdge
	blocks  []lockBlock
}

func runLocks(mp *ModulePass) {
	lc := &lockCheck{funcs: map[types.Object]*lockFunc{}}
	var funcs []*lockFunc
	for _, pkg := range mp.Pkgs {
		inScope := slices.ContainsFunc(lockOrderScope, func(prefix string) bool { return strings.HasPrefix(pkg.Path, prefix) })
		for _, f := range pkg.Syntax {
			for _, decl := range f.Decls {
				if fd, ok := decl.(*ast.FuncDecl); ok && fd.Body != nil {
					fi := &lockFunc{pkg: pkg, decl: fd, name: funcName(pkg, fd), inScope: inScope,
						acquires: map[string]bool{}, returns: map[string]bool{}}
					lc.funcs[pkg.TypesInfo.Defs[fd.Name]] = fi
					funcs = append(funcs, fi)
				}
			}
		}
	}
	// Walk every body until no summary grows: the walks of the last round
	// saw the final summaries, so their edges and blocking operations are
	// the result.
	for lc.changed = true; lc.changed; {
		lc.changed, lc.edges, lc.blocks = false, nil, nil
		for _, fi := range funcs {
			lc.walk(fi, fi.decl.Body, false, false)
		}
	}
	for _, b := range lc.blocks {
		mp.Reportf(b.pkg, b.pos, "%s while %s is held can deadlock; release the lock first", b.what, b.lock)
	}
	reportLockCycles(mp, lc.edges)
}

// funcName labels a function declaration "pkg.Func" or "pkg.Type.Method".
func funcName(pkg *Package, fd *ast.FuncDecl) string {
	name := fd.Name.Name
	if fd.Recv != nil {
		if obj := namedObj(pkg.TypesInfo.TypeOf(fd.Recv.List[0].Type)); obj != nil {
			name = obj.Name() + "." + name
		}
	}
	return pkg.Types.Name() + "." + name
}

// held maps each lock held at a program point to where it was acquired.
// A nil held is an unreachable point: the code before it returned,
// panicked or branched away.
type held map[string]token.Pos

// join is the held set where two paths meet: a lock held on either is
// held. It may reuse a or b.
func join(a, b held) held {
	if a == nil {
		return b
	}
	for id, pos := range b {
		if old, ok := a[id]; !ok || pos < old {
			a[id] = pos
		}
	}
	return a
}

// first names the earliest-acquired held lock, for diagnostics.
func (h held) first() string {
	best := ""
	for id, pos := range h {
		if best == "" || pos < h[best] || pos == h[best] && id < best {
			best = id
		}
	}
	return best
}

// lockWalk is the walk of one body: a function declaration's, or a
// function literal's inside it.
type lockWalk struct {
	*lockCheck
	fi       *lockFunc
	lit      bool            // a function literal: its returns are not fi's
	spawned  bool            // runs on another goroutine: its acquisitions are not fi's
	exempt   bool            // walking a send case of a select with a default clause
	deferred map[string]bool // locks a deferred Unlock releases at return
	local    map[string]bool // per-function identities acquired here
	breaks   []held          // per enclosing loop, switch or select: held at its breaks
}

// walk runs the held-lock walk over body from an empty held set, growing
// fi's summary.
func (lc *lockCheck) walk(fi *lockFunc, body *ast.BlockStmt, lit, spawned bool) {
	w := &lockWalk{lockCheck: lc, fi: fi, lit: lit, spawned: spawned,
		deferred: map[string]bool{}, local: map[string]bool{}}
	if end := w.stmts(body.List, held{}); end != nil {
		w.ret(end)
	}
}

func (w *lockWalk) ret(h held) {
	for id := range h {
		if !w.lit && !w.deferred[id] && !w.local[id] && !w.fi.returns[id] {
			w.fi.returns[id], w.changed = true, true
		}
	}
}

func (w *lockWalk) stmts(list []ast.Stmt, h held) held {
	for _, s := range list {
		if h == nil {
			return nil
		}
		h = w.stmt(s, h)
	}
	return h
}

// stmt walks s from held set h, which it may modify, and returns the
// held set where s falls through (nil if it never does).
func (w *lockWalk) stmt(s ast.Stmt, h held) held {
	switch s := s.(type) {
	case nil:
		return h
	case *ast.BlockStmt:
		return w.stmts(s.List, h)
	case *ast.LabeledStmt:
		return w.stmt(s.Stmt, h)
	case *ast.IfStmt:
		h = w.stmt(s.Init, h)
		w.expr(s.Cond, h)
		then := w.stmts(s.Body.List, maps.Clone(h))
		return join(then, w.stmt(s.Else, h))
	case *ast.ForStmt:
		h = w.stmt(s.Init, h)
		w.expr(s.Cond, h)
		w.breaks = append(w.breaks, nil)
		end := w.stmt(s.Post, w.stmts(s.Body.List, maps.Clone(h)))
		if s.Cond == nil {
			h, end = nil, nil // only a break leaves `for {}`
		}
		return w.popBreak(join(h, end))
	case *ast.RangeStmt:
		w.expr(s.X, h)
		w.breaks = append(w.breaks, nil)
		return w.popBreak(join(h, w.stmts(s.Body.List, maps.Clone(h))))
	case *ast.SwitchStmt:
		h = w.stmt(s.Init, h)
		w.expr(s.Tag, h)
		return w.clauses(s.Body, h, false)
	case *ast.TypeSwitchStmt:
		h = w.stmt(s.Init, h)
		w.stmt(s.Assign, h)
		return w.clauses(s.Body, h, false)
	case *ast.SelectStmt:
		exempt := false // a send in a select with a default clause cannot block
		for _, c := range s.Body.List {
			exempt = exempt || c.(*ast.CommClause).Comm == nil
		}
		return w.clauses(s.Body, h, exempt)
	case *ast.ReturnStmt:
		for _, r := range s.Results {
			w.expr(r, h)
		}
		w.ret(h)
		return nil
	case *ast.BranchStmt:
		if s.Tok == token.FALLTHROUGH {
			return h
		}
		if s.Tok == token.BREAK && s.Label == nil && len(w.breaks) > 0 {
			w.breaks[len(w.breaks)-1] = join(w.breaks[len(w.breaks)-1], h)
		}
		return nil
	case *ast.SendStmt:
		w.expr(s.Chan, h)
		w.expr(s.Value, h)
		if !w.exempt {
			w.block(s.Pos(), "channel send", h)
		}
		return h
	case *ast.GoStmt:
		// The arguments are evaluated here; the body runs on a new
		// goroutine, with nothing held.
		if lit, ok := s.Call.Fun.(*ast.FuncLit); ok {
			w.walk(w.fi, lit.Body, true, true)
		}
		for _, a := range s.Call.Args {
			w.expr(a, h)
		}
		return h
	case *ast.DeferStmt:
		if id, acquire, _ := lockOp(w.fi.pkg, w.fi.name, s.Call); id != "" && !acquire {
			w.deferred[id] = true
			return h
		}
		// Any other deferred call runs at return, outside this walk's
		// order: only what it may acquire counts.
		w.expr(s.Call, held{})
		return h
	case *ast.ExprStmt:
		w.expr(s.X, h)
		if call, ok := s.X.(*ast.CallExpr); ok && types.ExprString(call.Fun) == "panic" && w.fi.pkg.TypesInfo.Types[call.Fun].IsBuiltin() {
			return nil
		}
		return h
	}
	w.expr(s, h) // assignments, declarations, ++/--
	return h
}

// clauses walks the case or comm clauses of a switch or select from h
// and joins the arms that fall through. exempt says whether a select's
// send cases are exempt from the blocking check.
func (w *lockWalk) clauses(body *ast.BlockStmt, h held, exempt bool) held {
	w.breaks = append(w.breaks, nil)
	var out held
	hasDefault := false
	for _, c := range body.List {
		arm := maps.Clone(h)
		var list []ast.Stmt
		switch c := c.(type) {
		case *ast.CaseClause:
			hasDefault = hasDefault || c.List == nil
			for _, e := range c.List {
				w.expr(e, arm)
			}
			list = c.Body
		case *ast.CommClause:
			hasDefault = true // a select always takes one of its arms
			w.exempt = exempt
			arm = w.stmt(c.Comm, arm)
			w.exempt = false
			list = c.Body
		}
		out = join(out, w.stmts(list, arm))
	}
	if !hasDefault {
		out = join(out, h)
	}
	return w.popBreak(out)
}

func (w *lockWalk) popBreak(h held) held {
	b := w.breaks[len(w.breaks)-1]
	w.breaks = w.breaks[:len(w.breaks)-1]
	return join(h, b)
}

// expr walks the calls in n in evaluation order, updating h.
func (w *lockWalk) expr(n ast.Node, h held) {
	if n == nil || h == nil {
		return
	}
	ast.Inspect(n, func(n ast.Node) bool {
		switch n := n.(type) {
		case *ast.FuncLit:
			w.walk(w.fi, n.Body, true, w.spawned)
			return false
		case *ast.CallExpr:
			w.expr(n.Fun, h)
			for _, a := range n.Args {
				w.expr(a, h)
			}
			w.call(n, h)
			return false
		}
		return true
	})
}

// call applies one call's effect on the held set: a lock operation, a
// blocking operation, or a static callee's summary.
func (w *lockWalk) call(call *ast.CallExpr, h held) {
	pkg := w.fi.pkg
	if id, acquire, local := lockOp(pkg, w.fi.name, call); id != "" {
		if !acquire {
			delete(h, id)
			return
		}
		w.local[id] = local
		w.acquire(h, id, call.Pos(), "")
		if _, ok := h[id]; !ok {
			h[id] = call.Pos()
		}
		return
	}
	if what := blockingCall(pkg, call); what != "" {
		w.block(call.Pos(), what, h)
	}
	callee := w.callee(pkg, call)
	if callee == nil {
		return
	}
	for _, id := range sortedKeys(callee.acquires) {
		w.acquire(h, id, call.Pos(), callee.decl.Name.Name)
	}
	for id := range callee.returns {
		if _, ok := h[id]; !ok {
			h[id] = call.Pos()
		}
	}
}

// acquire notes that id is acquired at pos (through a call to via, if
// set): in the summary, unless the lock is local or this body runs on
// another goroutine, and as an order edge from every other held lock.
func (w *lockWalk) acquire(h held, id string, pos token.Pos, via string) {
	if !w.spawned && !w.local[id] && !w.fi.acquires[id] {
		w.fi.acquires[id], w.changed = true, true
	}
	if !w.fi.inScope {
		return
	}
	for _, from := range sortedKeys(h) {
		if from != id {
			w.edges = append(w.edges, lockEdge{from: from, to: id, pkg: w.fi.pkg, pos: pos, via: via})
		}
	}
}

func (w *lockWalk) block(pos token.Pos, what string, h held) {
	if len(h) > 0 {
		w.blocks = append(w.blocks, lockBlock{pkg: w.fi.pkg, pos: pos, what: what, lock: h.first()})
	}
}

func sortedKeys[V any](m map[string]V) []string {
	keys := make([]string, 0, len(m))
	for k := range m {
		keys = append(keys, k)
	}
	sort.Strings(keys)
	return keys
}

// lockOp resolves call to an operation on a lock — a method of
// sync.Mutex, sync.RWMutex or a named type carrying both Lock and
// Unlock — and returns the lock's identity ("" if call is no lock
// operation), whether the call acquires it (Lock, RLock, TryLock,
// TryRLock) and whether id is the per-function fallback, built from fn.
func lockOp(pkg *Package, fn string, call *ast.CallExpr) (id string, acquire, local bool) {
	sel, m, recv := method(pkg, call)
	if m == nil || !isLockType(recv) {
		return "", false, false
	}
	switch m.Name() {
	case "Lock", "RLock", "TryLock", "TryRLock":
		acquire = true
	case "Unlock", "RUnlock":
	default:
		return "", false, false
	}
	// Identify the lock by where it lives, not what expression reached it.
	switch x := sel.X.(type) {
	case *ast.SelectorExpr:
		// r.mu.Lock(): field mu of r's type.
		if s, ok := pkg.TypesInfo.Selections[x]; ok {
			if obj := namedObj(s.Recv()); obj != nil && obj.Pkg() != nil {
				return obj.Pkg().Name() + "." + obj.Name() + "." + x.Sel.Name, acquire, false
			}
		}
	case *ast.Ident:
		// mu.Lock() on a package-level var.
		if obj := pkg.TypesInfo.Uses[x]; obj != nil && obj.Pkg() != nil && obj.Parent() == obj.Pkg().Scope() {
			return obj.Pkg().Name() + "." + obj.Name(), acquire, false
		}
	}
	return fn + ":" + types.ExprString(sel.X), acquire, true
}

// isLockType reports whether obj is sync.Mutex, sync.RWMutex, or a
// named type carrying both Lock and Unlock methods.
func isLockType(obj *types.TypeName) bool {
	if obj == nil {
		return false
	}
	if obj.Pkg() != nil && obj.Pkg().Path() == "sync" {
		return obj.Name() == "Mutex" || obj.Name() == "RWMutex"
	}
	has := func(name string) bool {
		m, _, _ := types.LookupFieldOrMethod(obj.Type(), true, obj.Pkg(), name)
		_, ok := m.(*types.Func)
		return ok
	}
	return has("Lock") && has("Unlock")
}

// method resolves call to a method call: the selector, the method and
// its receiver's named type (nil for an interface-embedded or unnamed
// receiver).
func method(pkg *Package, call *ast.CallExpr) (*ast.SelectorExpr, *types.Func, *types.TypeName) {
	sel, ok := call.Fun.(*ast.SelectorExpr)
	if !ok {
		return nil, nil, nil
	}
	fn, ok := pkg.TypesInfo.Uses[sel.Sel].(*types.Func)
	if !ok || fn.Type().(*types.Signature).Recv() == nil {
		return nil, nil, nil
	}
	return sel, fn, namedObj(fn.Type().(*types.Signature).Recv().Type())
}

// blockingCall describes why a call may block indefinitely, or "".
func blockingCall(pkg *Package, call *ast.CallExpr) string {
	_, fn, recv := method(pkg, call)
	if fn == nil || recv == nil || fn.Pkg() == nil {
		return ""
	}
	switch fn.Pkg().Path() {
	case "sync":
		if recv.Name() == "WaitGroup" && fn.Name() == "Wait" {
			return "sync.WaitGroup.Wait"
		}
	case "windar/internal/fabric", "windar/internal/transport":
		// Send may rendezvous or backpressure; Recv parks until a message or a kill.
		if fn.Name() == "Send" || fn.Name() == "Recv" {
			return fn.Pkg().Name() + "." + recv.Name() + "." + fn.Name()
		}
	case "windar/internal/clock":
		if fn.Name() == "Sleep" {
			return "clock sleep"
		}
	}
	return ""
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

// callee returns the analyzed function call statically names, or nil
// (interface methods and function values have no declaration here).
func (lc *lockCheck) callee(pkg *Package, call *ast.CallExpr) *lockFunc {
	switch fun := call.Fun.(type) {
	case *ast.Ident:
		return lc.funcs[pkg.TypesInfo.Uses[fun]]
	case *ast.SelectorExpr:
		return lc.funcs[pkg.TypesInfo.Uses[fun.Sel]]
	}
	return nil
}

// reportLockCycles finds strongly connected components of the ordering
// graph and reports every edge inside one — each such edge is part of at
// least one acquisition-order cycle.
func reportLockCycles(mp *ModulePass, edges []lockEdge) {
	adj, radj := map[string][]string{}, map[string][]string{}
	for _, e := range edges {
		adj[e.from] = append(adj[e.from], e.to)
		radj[e.to] = append(radj[e.to], e.from)
	}
	// Kosaraju: order by finish time, then assign components on the
	// transposed graph.
	var order []string
	visited := map[string]bool{}
	var dfs1 func(string)
	dfs1 = func(n string) {
		visited[n] = true
		for _, m := range adj[n] {
			if !visited[m] {
				dfs1(m)
			}
		}
		order = append(order, n)
	}
	for _, n := range sortedKeys(adj) { // a node with no out-edge is a component of its own
		if !visited[n] {
			dfs1(n)
		}
	}
	comp, members := map[string]int{}, map[int][]string{}
	var dfs2 func(string, int)
	dfs2 = func(n string, c int) {
		comp[n] = c
		members[c] = append(members[c], n)
		for _, m := range radj[n] {
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
	// A cycle needs at least two distinct locks (same-identity self edges
	// are filtered at collection time).
	reported := map[lockEdge]bool{}
	for _, e := range edges {
		c, ok := comp[e.from]
		if !ok || comp[e.to] != c || len(members[c]) < 2 || reported[e] {
			continue
		}
		reported[e] = true
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
