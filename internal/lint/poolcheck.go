package lint

import (
	"go/ast"
	"go/token"
	"go/types"
)

// Poolcheck enforces the sync.Pool ownership discipline the
// zero-allocation hot paths depend on, for every registered pool API
// (the dnswire message pool and the masque frame pool):
//
//   - every Acquire result is released on all control-flow paths — by
//     the pool's Release directly or via a (possibly same-package)
//     callee that releases its parameter — or explicitly handed to the
//     caller by returning it;
//   - a pooled value is never used after Release, and never released
//     twice;
//   - a pooled value is never stored into a struct field, global or
//     container, which would let the pool recycle it behind a retained
//     reference;
//   - a `go` closure capturing an acquired value takes over ownership
//     and must itself release on every path, and a deferred release
//     inside the loop that acquired does not run per iteration.
//
// The analysis is per-function with same-package interprocedural
// release tracking, over the path-sensitive walk at the end of this
// file.
// Acquired values captured by closures other than direct `go` bodies
// are skipped (conservatively unchecked) rather than misreported.
var Poolcheck = &Analyzer{
	Name: "poolcheck",
	Doc: "pool Acquire functions (dnswire.AcquireMessage, masque.AcquireFrame) " +
		"must be paired with their Release on every path, with no use after " +
		"release and no stores of pooled values",
	Run: runPoolcheck,
}

// poolAPI describes one acquire/release pair under the discipline.
type poolAPI struct {
	pkgSuffix string // import-path suffix identifying the pool package
	pkgName   string // short name used in diagnostics
	acquire   string
	release   string
	noun      string // what the pool recycles, for diagnostics
}

// poolAPIs is the registry poolcheck guards. New pools following the
// dnswire provenance-flag pattern are added here.
var poolAPIs = []poolAPI{
	{pkgSuffix: "internal/dnswire", pkgName: "dnswire", acquire: "AcquireMessage", release: "ReleaseMessage", noun: "message"},
	{pkgSuffix: "internal/masque", pkgName: "masque", acquire: "AcquireFrame", release: "ReleaseFrame", noun: "frame"},
}

// poolAPIForAcquire returns the pool API fn acquires from, if any.
func poolAPIForAcquire(fn *types.Func) *poolAPI {
	if fn == nil || fn.Pkg() == nil {
		return nil
	}
	for i := range poolAPIs {
		api := &poolAPIs[i]
		if fn.Name() == api.acquire && hasPathSuffix(fn.Pkg().Path(), api.pkgSuffix) {
			return api
		}
	}
	return nil
}

// poolAPIForRelease returns the pool API fn releases into, if any.
func poolAPIForRelease(fn *types.Func) *poolAPI {
	if fn == nil || fn.Pkg() == nil {
		return nil
	}
	for i := range poolAPIs {
		api := &poolAPIs[i]
		if fn.Name() == api.release && hasPathSuffix(fn.Pkg().Path(), api.pkgSuffix) {
			return api
		}
	}
	return nil
}

func runPoolcheck(pass *Pass) error {
	rel := findReleasers(pass)
	for _, file := range pass.Files {
		for _, decl := range file.Decls {
			fd, ok := decl.(*ast.FuncDecl)
			if !ok || fd.Body == nil {
				continue
			}
			checkPoolFunc(pass, fd, rel)
		}
	}
	return nil
}

// releaserSet maps a function to the parameter indices it releases
// (directly or through another releaser) on some path.
type releaserSet map[*types.Func]map[int]bool

// findReleasers computes, to a fixpoint, which functions in this
// package hand a parameter back to the message pool. This is what makes
// the acquire-here/release-in-callee pattern check out.
func findReleasers(pass *Pass) releaserSet {
	rel := releaserSet{}
	decls := map[*types.Func]*ast.FuncDecl{}
	for _, file := range pass.Files {
		for _, decl := range file.Decls {
			fd, ok := decl.(*ast.FuncDecl)
			if !ok || fd.Body == nil {
				continue
			}
			if fn, ok := pass.Info.Defs[fd.Name].(*types.Func); ok {
				decls[fn] = fd
			}
		}
	}
	for changed := true; changed; {
		changed = false
		for fn, fd := range decls {
			params := paramObjs(pass, fd)
			for idx, p := range params {
				if rel[fn][idx] || p == nil {
					continue
				}
				released := false
				ast.Inspect(fd.Body, func(n ast.Node) bool {
					call, ok := n.(*ast.CallExpr)
					if !ok || released {
						return !released
					}
					if i := releasingArgIndex(pass, rel, call); i >= 0 && i < len(call.Args) {
						if id, ok := ast.Unparen(call.Args[i]).(*ast.Ident); ok && pass.Info.Uses[id] == p {
							released = true
						}
					}
					return true
				})
				if released {
					if rel[fn] == nil {
						rel[fn] = map[int]bool{}
					}
					rel[fn][idx] = true
					changed = true
				}
			}
		}
	}
	return rel
}

// paramObjs returns the declared parameter objects of fd in order.
func paramObjs(pass *Pass, fd *ast.FuncDecl) []types.Object {
	var out []types.Object
	if fd.Type.Params == nil {
		return nil
	}
	for _, field := range fd.Type.Params.List {
		for _, name := range field.Names {
			out = append(out, pass.Info.Defs[name])
		}
		if len(field.Names) == 0 {
			out = append(out, nil) // unnamed parameter can never be released
		}
	}
	return out
}

// releasingArgIndex reports which argument position of call is released
// by the callee: 0 for a pool Release function itself, the releasing
// parameter index for a same-package releaser, -1 otherwise.
func releasingArgIndex(pass *Pass, rel releaserSet, call *ast.CallExpr) int {
	fn := calleeFunc(pass.Info, call)
	if fn == nil {
		return -1
	}
	if poolAPIForRelease(fn) != nil {
		return 0
	}
	for idx := range rel[fn] {
		return idx // one releasing parameter is the practical case
	}
	return -1
}

// acquireAPI returns the pool API behind call when it is an Acquire.
func acquireAPI(pass *Pass, call *ast.CallExpr) *poolAPI {
	return poolAPIForAcquire(calleeFunc(pass.Info, call))
}

func checkPoolFunc(pass *Pass, fd *ast.FuncDecl, rel releaserSet) {
	// Rule: an acquire whose result is discarded leaks immediately.
	ast.Inspect(fd.Body, func(n ast.Node) bool {
		es, ok := n.(*ast.ExprStmt)
		if !ok {
			return true
		}
		if call, ok := ast.Unparen(es.X).(*ast.CallExpr); ok {
			if api := acquireAPI(pass, call); api != nil {
				pass.Reportf(call.Pos(), "result of %s.%s discarded: the %s leaks from the pool",
					api.pkgName, api.acquire, api.noun)
			}
		}
		return true
	})

	// Track each `v := Acquire...()` through the function. Captures by a
	// closure that is the direct body of a `go` statement transfer
	// ownership and are analyzed in the walker; any other closure
	// capture is conservatively unchecked rather than misreported.
	for _, site := range acquireSites(pass, fd) {
		if capturedByOtherClosure(pass, fd, site.obj) {
			continue
		}
		w := &poolWalker{pass: pass, rel: rel, v: site.obj, acquire: site.stmt, api: site.api, seen: map[token.Pos]bool{}}
		st, _ := w.walkStmts(fd.Body.List, pstate{untracked: true})
		if st.live && !st.deferRel {
			w.leak = true
		}
		if w.leak {
			api := site.api
			pass.Reportf(site.stmt.Pos(),
				"%s %s from %s.%s is not released on every path (pair it with %s.%s, hand it to a releasing callee, or return it)",
				api.noun, site.obj.Name(), api.pkgName, api.acquire, api.pkgName, api.release)
		}
	}

	// Straight-line use-after-release and double-release, for every
	// released variable — including ones this function never acquired.
	ast.Inspect(fd.Body, func(n ast.Node) bool {
		block, ok := n.(*ast.BlockStmt)
		if !ok {
			return true
		}
		scanBlockAfterRelease(pass, block)
		return true
	})
}

type acquireSite struct {
	stmt *ast.AssignStmt
	obj  types.Object
	api  *poolAPI
}

func acquireSites(pass *Pass, fd *ast.FuncDecl) []acquireSite {
	var out []acquireSite
	ast.Inspect(fd.Body, func(n ast.Node) bool {
		as, ok := n.(*ast.AssignStmt)
		if !ok || len(as.Rhs) != 1 || len(as.Lhs) != 1 {
			return true
		}
		call, ok := ast.Unparen(as.Rhs[0]).(*ast.CallExpr)
		if !ok {
			return true
		}
		api := acquireAPI(pass, call)
		if api == nil {
			return true
		}
		id, ok := ast.Unparen(as.Lhs[0]).(*ast.Ident)
		if !ok || id.Name == "_" {
			return true
		}
		obj := pass.Info.Defs[id]
		if obj == nil {
			obj = pass.Info.Uses[id]
		}
		if obj != nil {
			out = append(out, acquireSite{stmt: as, obj: obj, api: api})
		}
		return true
	})
	return out
}

// capturedByOtherClosure reports whether v is captured by any closure
// that is not the direct function of a `go` statement. Those captures
// are beyond the per-function analysis (the closure may run any number
// of times, later); go-statement bodies are handled precisely by the
// walker's ownership transfer.
func capturedByOtherClosure(pass *Pass, fd *ast.FuncDecl, v types.Object) bool {
	goBodies := map[*ast.FuncLit]bool{}
	ast.Inspect(fd.Body, func(n ast.Node) bool {
		if g, ok := n.(*ast.GoStmt); ok {
			if fl, ok := g.Call.Fun.(*ast.FuncLit); ok {
				goBodies[fl] = true
			}
		}
		return true
	})
	captured := false
	ast.Inspect(fd.Body, func(n ast.Node) bool {
		fl, ok := n.(*ast.FuncLit)
		if !ok || captured {
			return !captured
		}
		if goBodies[fl] {
			return true // descend: an inner, non-go closure still disqualifies
		}
		ast.Inspect(fl.Body, func(m ast.Node) bool {
			if id, ok := m.(*ast.Ident); ok && pass.Info.Uses[id] == v {
				captured = true
			}
			return !captured
		})
		return false
	})
	return captured
}

// pstate is the set of states the tracked message may be in on the
// paths reaching a program point.
type pstate struct {
	untracked bool // before the acquire ran (or after reassignment)
	live      bool // acquired, not yet released
	released  bool // handed back to the pool
	escaped   bool // ownership transferred (returned / releasing callee / given up)
	deferRel  bool // a deferred release covers every later exit
}

func mergeState(a, b pstate) pstate {
	return pstate{
		untracked: a.untracked || b.untracked,
		live:      a.live || b.live,
		released:  a.released || b.released,
		escaped:   a.escaped || b.escaped,
		deferRel:  a.deferRel && b.deferRel,
	}
}

// poolWalker follows one pooled variable through one function (or
// goroutine) body. It is deliberately approximate: merges are unions,
// a loop body is walked once with its back edge and every break/
// continue edge folded by foldLoop, and goto gives up — tuned so that
// every report is a genuine "some path leaks/misuses" and quiet code
// stays quiet.
type poolWalker struct {
	pass    *Pass
	rel     releaserSet
	v       types.Object
	acquire *ast.AssignStmt
	api     *poolAPI
	leak    bool
	seen    map[token.Pos]bool
	// loopExits holds, per enclosing loop (innermost last), the states
	// at the break/continue edges out of its body.
	loopExits [][]pstate
}

// transfer folds one simple statement (assign, expression, defer, go,
// decl, send, incdec, …) into the state.
func (w *poolWalker) transfer(stmt ast.Stmt, st pstate) pstate {
	switch s := stmt.(type) {
	case *ast.AssignStmt:
		if s == w.acquire {
			return pstate{live: true, deferRel: st.deferRel}
		}
		w.checkStore(s, st)
		for _, lhs := range s.Lhs {
			if id, ok := ast.Unparen(lhs).(*ast.Ident); ok && w.isV(id) {
				// v rebound: the old value's fate was decided above.
				return pstate{untracked: true, deferRel: st.deferRel}
			}
		}
		return st

	case *ast.ExprStmt:
		call, ok := ast.Unparen(s.X).(*ast.CallExpr)
		if !ok {
			return st
		}
		return w.applyCall(call, st)

	case *ast.DeferStmt:
		if i := releasingArgIndex(w.pass, w.rel, s.Call); i >= 0 && i < len(s.Call.Args) {
			if id, ok := ast.Unparen(s.Call.Args[i]).(*ast.Ident); ok && w.isV(id) {
				if len(w.loopExits) > 0 && !w.seen[s.Pos()] {
					// A defer never runs per iteration: with the acquire in
					// the same loop the value stays live until return; with
					// the acquire outside, each iteration stacks another
					// release of the same value.
					w.seen[s.Pos()] = true
					w.pass.Reportf(s.Pos(),
						"deferred release of %s %s inside a loop runs at function exit, not per iteration; release it at the end of the iteration instead",
						w.api.noun, w.v.Name())
				}
				st.deferRel = true
			}
		}
		return st

	case *ast.GoStmt:
		return w.applyGo(s, st)

	default:
		return st
	}
}

func (w *poolWalker) onReturn(s *ast.ReturnStmt, st pstate) pstate {
	for _, res := range s.Results {
		if w.exprMentionsV(res) {
			st.escaped, st.live, st.untracked = true, false, false
			return st
		}
	}
	if st.live && !st.deferRel {
		w.leak = true
	}
	return st
}

// foldLoop merges break/continue exits and the back edge. A message
// acquired inside the body must be dead by the end of each iteration;
// infinite loops (for{}) have no zero-iteration path.
func (w *poolWalker) foldLoop(body *ast.BlockStmt, st pstate, exits []pstate, endSt pstate, term, infinite bool) pstate {
	acquiredInside := w.acquire != nil && body.Pos() <= w.acquire.Pos() && w.acquire.Pos() < body.End()
	out := st
	if infinite {
		out = pstate{deferRel: st.deferRel} // only breaks leave a for{}
		if len(exits) == 0 && !term {
			out = endSt // degenerate: falls out via panics only; keep something sane
		}
	}
	states := exits
	if !term {
		states = append(states, endSt)
	}
	for _, s := range states {
		if acquiredInside && s.live && !s.deferRel {
			// Back edge or loop exit with a live per-iteration message.
			w.leak = true
		}
		if !infinite || !acquiredInside {
			out = mergeState(out, s)
		}
	}
	if acquiredInside {
		// Whatever happened inside, the per-iteration variable is out of
		// scope after the loop.
		out.live = false
		out.untracked = true
	}
	return out
}

// applyCall folds one call statement into the state: release, transfer
// to a releasing callee, or no effect.
func (w *poolWalker) applyCall(call *ast.CallExpr, st pstate) pstate {
	if i := releasingArgIndex(w.pass, w.rel, call); i >= 0 && i < len(call.Args) {
		if id, ok := ast.Unparen(call.Args[i]).(*ast.Ident); ok && w.isV(id) {
			if poolAPIForRelease(calleeFunc(w.pass.Info, call)) != nil {
				return pstate{released: true, deferRel: st.deferRel}
			}
			return pstate{escaped: true, deferRel: st.deferRel}
		}
	}
	return st
}

// applyGo folds a go statement: `go Release(v)` (or a releasing callee)
// hands the value to the goroutine, and a `go func(){...}` body that
// captures v — or receives it as an argument — takes over ownership and
// is itself walked for release-on-every-path.
func (w *poolWalker) applyGo(s *ast.GoStmt, st pstate) pstate {
	call := s.Call
	if i := releasingArgIndex(w.pass, w.rel, call); i >= 0 && i < len(call.Args) {
		if id, ok := ast.Unparen(call.Args[i]).(*ast.Ident); ok && w.isV(id) {
			return pstate{escaped: true, deferRel: st.deferRel}
		}
	}
	fl, ok := call.Fun.(*ast.FuncLit)
	if !ok || !st.live {
		return st
	}
	// Identify what the goroutine sees: v captured free, or v passed as
	// an argument bound to a parameter.
	tracked := types.Object(nil)
	if w.exprMentionsV(fl) {
		tracked = w.v
	}
	params := funcLitParams(w.pass, fl)
	for i, arg := range call.Args {
		if id, ok := ast.Unparen(arg).(*ast.Ident); ok && w.isV(id) && i < len(params) && params[i] != nil {
			tracked = params[i]
		}
	}
	if tracked == nil {
		return st
	}
	// Ownership moves to the goroutine: walk its body as a function with
	// the value live on entry.
	sub := &poolWalker{pass: w.pass, rel: w.rel, v: tracked, api: w.api, seen: w.seen}
	end, term := sub.walkStmts(fl.Body.List, pstate{live: true})
	if !term && end.live && !end.deferRel {
		sub.leak = true
	}
	if sub.leak {
		w.pass.Reportf(s.Pos(),
			"%s %s is captured by this goroutine, which does not release it on every path (pair it with %s.%s or return-free the goroutine)",
			w.api.noun, w.v.Name(), w.api.pkgName, w.api.release)
	}
	return pstate{escaped: true, deferRel: st.deferRel}
}

// funcLitParams returns the declared parameter objects of fl in order.
func funcLitParams(pass *Pass, fl *ast.FuncLit) []types.Object {
	var out []types.Object
	if fl.Type.Params == nil {
		return nil
	}
	for _, field := range fl.Type.Params.List {
		for _, name := range field.Names {
			out = append(out, pass.Info.Defs[name])
		}
		if len(field.Names) == 0 {
			out = append(out, nil)
		}
	}
	return out
}

// checkStore reports rule 3: a live pooled message stored into a struct
// field, global or container outlives its pool lifetime.
func (w *poolWalker) checkStore(as *ast.AssignStmt, st pstate) {
	if !st.live {
		return
	}
	for i, rhs := range as.Rhs {
		if !w.exprMentionsV(rhs) || i >= len(as.Lhs) {
			continue
		}
		var what string
		switch lhs := ast.Unparen(as.Lhs[i]).(type) {
		case *ast.SelectorExpr:
			if f := fieldOf(w.pass.Info, lhs); f != nil {
				what = "struct field " + f.Name()
			}
		case *ast.IndexExpr:
			what = "a map or slice element"
		case *ast.Ident:
			if obj := w.pass.Info.Uses[lhs]; obj != nil && obj.Parent() == w.pass.Pkg.Scope() {
				what = "package-level variable " + lhs.Name
			}
		}
		if what != "" && !w.seen[as.Pos()] {
			w.seen[as.Pos()] = true
			w.pass.Reportf(as.Pos(),
				"pooled %s %s stored in %s: the pool will recycle it behind this reference",
				w.api.noun, w.v.Name(), what)
		}
	}
}

func (w *poolWalker) isV(id *ast.Ident) bool {
	return w.pass.Info.Uses[id] == w.v || w.pass.Info.Defs[id] == w.v
}

func (w *poolWalker) exprMentionsV(e ast.Expr) bool {
	found := false
	ast.Inspect(e, func(n ast.Node) bool {
		if id, ok := n.(*ast.Ident); ok && w.isV(id) {
			found = true
		}
		return !found
	})
	return found
}

// scanBlockAfterRelease reports straight-line uses of a variable after
// a pool Release(v) in the same block, including double releases.
// Tracking stops at a rebinding of v.
func scanBlockAfterRelease(pass *Pass, block *ast.BlockStmt) {
	for i, stmt := range block.List {
		es, ok := stmt.(*ast.ExprStmt)
		if !ok {
			continue
		}
		call, ok := ast.Unparen(es.X).(*ast.CallExpr)
		if !ok {
			continue
		}
		api := poolAPIForRelease(calleeFunc(pass.Info, call))
		if api == nil || len(call.Args) != 1 {
			continue
		}
		id, ok := ast.Unparen(call.Args[0]).(*ast.Ident)
		if !ok {
			continue
		}
		v := pass.Info.Uses[id]
		if v == nil {
			continue
		}
		scanUsesAfter(pass, block.List[i+1:], v, api)
	}
}

func scanUsesAfter(pass *Pass, stmts []ast.Stmt, v types.Object, api *poolAPI) {
	for _, stmt := range stmts {
		if as, ok := stmt.(*ast.AssignStmt); ok {
			rebound := false
			for _, lhs := range as.Lhs {
				if id, ok := ast.Unparen(lhs).(*ast.Ident); ok &&
					(pass.Info.Uses[id] == v || pass.Info.Defs[id] == v) {
					rebound = true
				}
			}
			// The RHS still runs with the released value.
			for _, rhs := range as.Rhs {
				if reportUse(pass, rhs, v, api) {
					return
				}
			}
			if rebound {
				return
			}
			continue
		}
		if es, ok := stmt.(*ast.ExprStmt); ok {
			if call, ok := ast.Unparen(es.X).(*ast.CallExpr); ok {
				if poolAPIForRelease(calleeFunc(pass.Info, call)) != nil && len(call.Args) == 1 {
					if id, ok := ast.Unparen(call.Args[0]).(*ast.Ident); ok && pass.Info.Uses[id] == v {
						pass.Reportf(call.Pos(), "%s %s released twice", api.noun, v.Name())
						return
					}
				}
			}
		}
		if reportUse(pass, stmt, v, api) {
			return
		}
	}
}

func reportUse(pass *Pass, n ast.Node, v types.Object, api *poolAPI) bool {
	reported := false
	ast.Inspect(n, func(m ast.Node) bool {
		if reported {
			return false
		}
		if id, ok := m.(*ast.Ident); ok && pass.Info.Uses[id] == v {
			pass.Reportf(id.Pos(), "use of %s %s after %s.%s", api.noun, v.Name(), api.pkgName, api.release)
			reported = true
		}
		return !reported
	})
	return reported
}

// walkStmts walks a statement list; the bool result reports whether the
// flow terminated (every path returned or branched away).
func (w *poolWalker) walkStmts(list []ast.Stmt, st pstate) (pstate, bool) {
	for _, stmt := range list {
		var term bool
		st, term = w.walkStmt(stmt, st)
		if term {
			return st, true
		}
	}
	return st, false
}

func (w *poolWalker) walkStmt(stmt ast.Stmt, st pstate) (pstate, bool) {
	switch s := stmt.(type) {
	case *ast.ReturnStmt:
		return w.onReturn(s, st), true

	case *ast.IfStmt:
		if s.Init != nil {
			st, _ = w.walkStmt(s.Init, st)
		}
		thenSt, thenTerm := w.walkStmts(s.Body.List, st)
		elseSt, elseTerm := st, false
		if s.Else != nil {
			elseSt, elseTerm = w.walkStmt(s.Else, st)
		}
		switch {
		case thenTerm && elseTerm:
			return mergeState(thenSt, elseSt), true
		case thenTerm:
			return elseSt, false
		case elseTerm:
			return thenSt, false
		default:
			return mergeState(thenSt, elseSt), false
		}

	case *ast.BlockStmt:
		return w.walkStmts(s.List, st)

	case *ast.ForStmt:
		if s.Init != nil {
			st, _ = w.walkStmt(s.Init, st)
		}
		return w.walkLoopBody(s.Body, st, s.Cond == nil), false

	case *ast.RangeStmt:
		return w.walkLoopBody(s.Body, st, false), false

	case *ast.SwitchStmt, *ast.TypeSwitchStmt, *ast.SelectStmt:
		return w.walkClauses(stmt, st)

	case *ast.LabeledStmt:
		return w.walkStmt(s.Stmt, st)

	case *ast.BranchStmt:
		if s.Tok == token.GOTO {
			// goto abandons path tracking: the value is given up.
			st.escaped, st.live, st.untracked, st.released = true, false, false, false
			return st, true
		}
		if n := len(w.loopExits); n > 0 {
			w.loopExits[n-1] = append(w.loopExits[n-1], st)
		}
		return st, true

	default:
		return w.transfer(stmt, st), false
	}
}

// walkLoopBody walks a loop body once, collecting its break/continue
// edges, and folds them with foldLoop.
func (w *poolWalker) walkLoopBody(body *ast.BlockStmt, st pstate, infinite bool) pstate {
	w.loopExits = append(w.loopExits, nil)
	endSt, term := w.walkStmts(body.List, st)
	exits := w.loopExits[len(w.loopExits)-1]
	w.loopExits = w.loopExits[:len(w.loopExits)-1]
	return w.foldLoop(body, st, exits, endSt, term, infinite)
}

// walkClauses walks each clause of a switch, type switch or select from
// the same entry state and merges the clauses that fall out; without a
// default clause the entry state itself can fall through.
func (w *poolWalker) walkClauses(stmt ast.Stmt, st pstate) (pstate, bool) {
	var clauses [][]ast.Stmt
	hasDefault := false
	switch s := stmt.(type) {
	case *ast.SwitchStmt:
		for _, c := range s.Body.List {
			cc := c.(*ast.CaseClause)
			clauses = append(clauses, cc.Body)
			hasDefault = hasDefault || cc.List == nil
		}
	case *ast.TypeSwitchStmt:
		for _, c := range s.Body.List {
			cc := c.(*ast.CaseClause)
			clauses = append(clauses, cc.Body)
			hasDefault = hasDefault || cc.List == nil
		}
	case *ast.SelectStmt:
		for _, c := range s.Body.List {
			cc := c.(*ast.CommClause)
			clauses = append(clauses, cc.Body)
			hasDefault = hasDefault || cc.Comm == nil
		}
	}
	if len(clauses) == 0 {
		return st, false
	}
	var merged pstate
	first := true
	allTerm := true
	for _, body := range clauses {
		cst, cterm := w.walkStmts(body, st)
		if cterm {
			continue
		}
		allTerm = false
		if first {
			merged, first = cst, false
		} else {
			merged = mergeState(merged, cst)
		}
	}
	if !hasDefault {
		allTerm = false
		if first {
			merged, first = st, false
		} else {
			merged = mergeState(merged, st)
		}
	}
	if allTerm || first {
		return st, true
	}
	return merged, false
}
