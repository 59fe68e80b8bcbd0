package lint

import (
	"go/ast"
	"go/types"
	"strings"
)

// Goroleak guards the goroutine trees of the serving plane and the
// daemon (masque, relayd): every `go` statement must carry
// provable termination evidence —
//
//   - a WaitGroup join: the goroutine calls wg.Done and a matching
//     wg.Add is pending on every path reaching the go statement
//     (unbalanced counts are their own finding);
//   - or a shutdown signal: each infinite loop in the body selects on
//     ctx.Done() or a quit/stop/done channel;
//   - or no infinite loop at all (a straight-line body terminates).
//
// Spawned function literals and same-package named functions are
// analyzed; dynamic targets are conservatively skipped. A goroutine
// closure that captures a pooled object (dnswire message, masque frame)
// it did not acquire must release it — captures of values acquired in
// the spawning function are poolcheck's domain.
var Goroleak = &Analyzer{
	Name: "goroleak",
	Doc: "every go statement in masque and relayd needs a provable " +
		"termination path: a matched wg.Add/Done pair, a ctx.Done()/quit-channel " +
		"select in its loops, or a loop-free body",
	Run: runGoroleak,
}

// goroleakPkgs are the guarded packages (module-relative suffixes).
var goroleakPkgs = []string{
	"internal/masque",
	"internal/relayd",
}

// quitChannelWords mark a channel as a shutdown signal by name.
var quitChannelWords = []string{"quit", "stop", "done", "closing", "shutdown", "cancel"}

func runGoroleak(pass *Pass) error {
	guarded := false
	for _, suffix := range goroleakPkgs {
		if hasPathSuffix(pass.Pkg.Path(), suffix) {
			guarded = true
		}
	}
	if !guarded {
		return nil
	}
	gr := &goroleakRun{
		pass:  pass,
		rel:   findReleasers(pass),
		decls: map[*types.Func]*ast.FuncDecl{},
	}
	for _, file := range pass.Files {
		for _, decl := range file.Decls {
			fd, ok := decl.(*ast.FuncDecl)
			if !ok || fd.Body == nil {
				continue
			}
			if fn, ok := pass.Info.Defs[fd.Name].(*types.Func); ok {
				gr.decls[fnOrigin(fn)] = fd
			}
		}
	}
	for _, file := range pass.Files {
		for _, decl := range file.Decls {
			fd, ok := decl.(*ast.FuncDecl)
			if !ok || fd.Body == nil {
				continue
			}
			gr.checkFunc(fd)
		}
	}
	return nil
}

// wgState maps each WaitGroup object to the Add count guaranteed to be
// pending on every path reaching the current point. wgUnknown marks a
// non-constant Add.
type wgState map[*types.Var]int

const wgUnknown = 1 << 30

func mergeWgState(a, b wgState) wgState {
	out := wgState{}
	for k, av := range a {
		if bv, ok := b[k]; ok {
			if bv < av {
				out[k] = bv
			} else {
				out[k] = av
			}
		}
	}
	return out
}

type goroleakRun struct {
	pass  *Pass
	rel   releaserSet
	decls map[*types.Func]*ast.FuncDecl
}

// checkFunc walks fd, tracking pending wg.Add counts path-sensitively
// and judging each go statement at its spawn point. Function literals
// other than direct go bodies are walked as independent functions (they
// may themselves spawn).
func (gr *goroleakRun) checkFunc(fd *ast.FuncDecl) {
	gr.walkBody(fd, fd.Body)
	ast.Inspect(fd.Body, func(n ast.Node) bool {
		if g, ok := n.(*ast.GoStmt); ok {
			if fl, ok := g.Call.Fun.(*ast.FuncLit); ok {
				gr.walkBody(fd, fl.Body) // a goroutine body may spawn again
				return false
			}
		}
		if fl, ok := n.(*ast.FuncLit); ok {
			gr.walkBody(fd, fl.Body)
			return false
		}
		return true
	})
}

func (gr *goroleakRun) walkBody(fd *ast.FuncDecl, body *ast.BlockStmt) {
	eng := newFlowEngine(flowHooks[wgState]{
		merge: mergeWgState,
		transfer: func(stmt ast.Stmt, st wgState, _ *flowCtx) wgState {
			switch s := stmt.(type) {
			case *ast.ExprStmt:
				if call, ok := ast.Unparen(s.X).(*ast.CallExpr); ok {
					if wg, n := gr.wgAdd(call); wg != nil {
						out := cloneWg(st)
						if n == wgUnknown || out[wg] >= wgUnknown {
							out[wg] = wgUnknown
						} else {
							out[wg] += n
						}
						return out
					}
				}
			case *ast.GoStmt:
				return gr.applyGo(fd, s, st)
			}
			return st
		},
		onReturn: func(_ *ast.ReturnStmt, st wgState) wgState { return st },
	})
	eng.walkBody(body, wgState{})
}

func cloneWg(st wgState) wgState {
	out := wgState{}
	for k, v := range st {
		out[k] = v
	}
	return out
}

// wgAdd recognizes wg.Add(n) and returns the WaitGroup object and the
// literal count (wgUnknown for non-constant arguments).
func (gr *goroleakRun) wgAdd(call *ast.CallExpr) (*types.Var, int) {
	fn := calleeFunc(gr.pass.Info, call)
	if !isWaitGroupMethod(fn, "Add") || len(call.Args) != 1 {
		return nil, 0
	}
	sel, ok := ast.Unparen(call.Fun).(*ast.SelectorExpr)
	if !ok {
		return nil, 0
	}
	wg := gr.wgObject(sel.X)
	if wg == nil {
		return nil, 0
	}
	if lit, ok := ast.Unparen(call.Args[0]).(*ast.BasicLit); ok {
		n := 0
		for _, ch := range lit.Value {
			if ch < '0' || ch > '9' {
				return wg, wgUnknown
			}
			n = n*10 + int(ch-'0')
		}
		return wg, n
	}
	return wg, wgUnknown
}

// wgObject resolves the variable (field, local or parameter) holding
// the WaitGroup behind expr.
func (gr *goroleakRun) wgObject(expr ast.Expr) *types.Var {
	switch x := ast.Unparen(expr).(type) {
	case *ast.SelectorExpr:
		return fieldOf(gr.pass.Info, x)
	case *ast.Ident:
		obj := gr.pass.Info.Uses[x]
		if obj == nil {
			obj = gr.pass.Info.Defs[x]
		}
		v, _ := obj.(*types.Var)
		return v
	}
	return nil
}

func isWaitGroupMethod(fn *types.Func, name string) bool {
	if fn == nil || fn.Pkg() == nil || fn.Pkg().Path() != "sync" || fn.Name() != name {
		return false
	}
	sig, ok := fn.Type().(*types.Signature)
	if !ok || sig.Recv() == nil {
		return false
	}
	t := sig.Recv().Type()
	if ptr, ok := t.(*types.Pointer); ok {
		t = ptr.Elem()
	}
	named, ok := t.(*types.Named)
	return ok && named.Obj().Name() == "WaitGroup"
}

// applyGo judges one go statement with the pending-Add state at its
// spawn point and consumes one Add per joined goroutine.
func (gr *goroleakRun) applyGo(fd *ast.FuncDecl, g *ast.GoStmt, st wgState) wgState {
	body := gr.spawnedBody(g.Call)
	if fl, ok := g.Call.Fun.(*ast.FuncLit); ok {
		gr.checkPooledCaptures(fd, g, fl)
	}
	if body == nil {
		return st // dynamic or cross-package target: conservatively skipped
	}
	dones := gr.doneTargets(body)
	if len(dones) > 0 {
		out := cloneWg(st)
		for _, wg := range dones {
			if out[wg] >= 1 {
				if out[wg] < wgUnknown {
					out[wg]--
				}
			} else {
				gr.pass.Reportf(g.Pos(),
					"goroutine calls Done on a WaitGroup with no Add pending at this go statement (unbalanced wg.Add count)")
			}
		}
		return out
	}
	for _, loop := range infiniteLoops(body) {
		if !gr.loopHasExitSignal(loop) {
			gr.pass.Reportf(g.Pos(),
				"goroutine has no provable termination path: its loop selects no ctx.Done()/quit channel and no wg.Add/Done pair joins it")
			return st
		}
	}
	return st
}

// spawnedBody resolves the body the go statement runs: a function
// literal's own body, or the declaration of a same-package function or
// method.
func (gr *goroleakRun) spawnedBody(call *ast.CallExpr) *ast.BlockStmt {
	if fl, ok := call.Fun.(*ast.FuncLit); ok {
		return fl.Body
	}
	fn := calleeFunc(gr.pass.Info, call)
	if fn == nil || fn.Pkg() != gr.pass.Pkg {
		return nil
	}
	if fd := gr.decls[fnOrigin(fn)]; fd != nil {
		return fd.Body
	}
	return nil
}

// doneTargets collects the WaitGroup objects the body calls Done on
// (directly or deferred), excluding nested function literals.
func (gr *goroleakRun) doneTargets(body *ast.BlockStmt) []*types.Var {
	var out []*types.Var
	inspectSkippingFuncLits(body, func(n ast.Node) {
		call, ok := n.(*ast.CallExpr)
		if !ok {
			return
		}
		fn := calleeFunc(gr.pass.Info, call)
		if !isWaitGroupMethod(fn, "Done") {
			return
		}
		if sel, ok := ast.Unparen(call.Fun).(*ast.SelectorExpr); ok {
			if wg := gr.wgObject(sel.X); wg != nil {
				out = append(out, wg)
			}
		}
	})
	return out
}

// infiniteLoops returns the `for {}`-style loops (no condition) in
// body, excluding nested function literals. Range loops terminate when
// their operand does (range over a channel ends on close), and
// condition loops carry their own exit.
func infiniteLoops(body *ast.BlockStmt) []*ast.ForStmt {
	var out []*ast.ForStmt
	inspectSkippingFuncLits(body, func(n ast.Node) {
		if fs, ok := n.(*ast.ForStmt); ok && fs.Cond == nil {
			out = append(out, fs)
		}
	})
	return out
}

// loopHasExitSignal reports whether loop's body receives from
// ctx.Done() or a quit-named channel (in a select case or a direct
// receive), giving the goroutine a shutdown path.
func (gr *goroleakRun) loopHasExitSignal(loop *ast.ForStmt) bool {
	found := false
	inspectSkippingFuncLits(loop.Body, func(n ast.Node) {
		ue, ok := n.(*ast.UnaryExpr)
		if !ok || ue.Op.String() != "<-" {
			return
		}
		if gr.isExitChannel(ue.X) {
			found = true
		}
	})
	return found
}

// isExitChannel recognizes ctx.Done() and channels whose name suggests
// a shutdown signal.
func (gr *goroleakRun) isExitChannel(e ast.Expr) bool {
	switch x := ast.Unparen(e).(type) {
	case *ast.CallExpr:
		fn := calleeFunc(gr.pass.Info, x)
		return fn != nil && fn.Name() == "Done" && fn.Pkg() != nil && fn.Pkg().Path() == "context"
	case *ast.SelectorExpr:
		return isQuitName(x.Sel.Name)
	case *ast.Ident:
		return isQuitName(x.Name)
	}
	return false
}

func isQuitName(name string) bool {
	lower := strings.ToLower(name)
	for _, w := range quitChannelWords {
		if strings.Contains(lower, w) {
			return true
		}
	}
	return false
}

// checkPooledCaptures flags a goroutine closure holding a pooled object
// it neither acquired (poolcheck's domain) nor releases: the pool will
// recycle the value under the goroutine.
func (gr *goroleakRun) checkPooledCaptures(fd *ast.FuncDecl, g *ast.GoStmt, fl *ast.FuncLit) {
	acquired := map[types.Object]bool{}
	for _, site := range acquireSites(gr.pass, fd) {
		acquired[site.obj] = true
	}
	seen := map[types.Object]bool{}
	ast.Inspect(fl.Body, func(n ast.Node) bool {
		id, ok := n.(*ast.Ident)
		if !ok {
			return true
		}
		obj := gr.pass.Info.Uses[id]
		if obj == nil || seen[obj] || acquired[obj] {
			return true
		}
		// Captured, not declared inside the literal.
		if obj.Pos() >= fl.Pos() && obj.Pos() < fl.End() {
			return true
		}
		api := poolAPIForType(obj.Type())
		if api == nil {
			return true
		}
		seen[obj] = true
		if !gr.closureReleases(fl, obj) {
			gr.pass.Reportf(g.Pos(),
				"goroutine captures pooled %s %s without releasing it (pair with %s.%s inside the goroutine or transfer ownership explicitly)",
				api.noun, obj.Name(), api.pkgName, api.release)
		}
		return true
	})
}

// closureReleases reports whether fl's body hands obj back to its pool,
// directly or through a same-package releasing callee.
func (gr *goroleakRun) closureReleases(fl *ast.FuncLit, obj types.Object) bool {
	released := false
	ast.Inspect(fl.Body, func(n ast.Node) bool {
		call, ok := n.(*ast.CallExpr)
		if !ok || released {
			return !released
		}
		if i := releasingArgIndex(gr.pass, gr.rel, call); i >= 0 && i < len(call.Args) {
			if id, ok := ast.Unparen(call.Args[i]).(*ast.Ident); ok && gr.pass.Info.Uses[id] == obj {
				released = true
			}
		}
		return true
	})
	return released
}
