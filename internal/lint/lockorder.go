package lint

import (
	"go/ast"
	"go/token"
	"go/types"
	"strings"
)

// Lockorder guards the locking discipline of the serving plane and the
// daemon (masque, relayd), where PRs 7–9 introduced sharded
// mutexes whose critical sections must stay tiny:
//
//   - a mutex field annotated `//lint:shardlock` is a leaf lock: while
//     it is held no other lock may be acquired and no blocking
//     operation (I/O method, channel send/recv, blocking select,
//     Sleep/Wait, `Exchange`) may run — directly or via a same-package
//     callee;
//   - `//lint:lockorder A.mu < B.mu` declares acquisition order:
//     acquiring A.mu while B.mu is held is a finding;
//   - acquiring a lock already held is a self-deadlock finding;
//   - every lock acquired in a function must be released (or deferred)
//     on every control-flow path out of it.
//
// A function whose doc carries `//lint:callback-holds <class>` declares
// that function-literal arguments passed to it run with that lock held
// (Sharded.Range is the canonical case); the literals are then checked
// under the seeded lock set. Calls through function values or
// interfaces are not followed — a documented blind spot shared with the
// rest of the suite.
var Lockorder = &Analyzer{
	Name: "lockorder",
	Doc: "enforce shard-lock leaf discipline, declared lock acquisition order, " +
		"and release-on-every-path in masque and relayd",
	Run: runLockorder,
}

// lockorderPkgs are the guarded packages (module-relative suffixes).
var lockorderPkgs = []string{
	"internal/masque",
	"internal/relayd",
}

// blockingMethodNames are method names that, on a receiver from another
// package, are assumed to perform I/O or otherwise block.
var blockingMethodNames = map[string]bool{
	"Read": true, "Write": true, "ReadFrom": true, "WriteTo": true,
	"ReadFromUDP": true, "WriteToUDP": true, "ReadMsgUDP": true,
	"Accept": true, "Close": true, "CloseRead": true, "CloseWrite": true,
	"Exchange": true, "Serve": true, "Dial": true, "DialContext": true,
	"Flush": true, "Shutdown": true, "Wait": true, "Sleep": true,
	"Recv": true, "Send": true,
}

// blockingIOFuncs are package-level io functions that block on their
// reader/writer arguments.
var blockingIOFuncs = map[string]bool{
	"Copy": true, "CopyN": true, "CopyBuffer": true, "ReadFull": true,
	"ReadAll": true, "WriteString": true,
}

func runLockorder(pass *Pass) error {
	guarded := false
	for _, suffix := range lockorderPkgs {
		if hasPathSuffix(pass.Pkg.Path(), suffix) {
			guarded = true
		}
	}
	if !guarded {
		return nil
	}
	lo := &lockorderRun{
		pass:      pass,
		shard:     map[string]bool{},
		order:     map[[2]string]bool{},
		callbacks: map[*types.Func][]string{},
		seen:      map[string]bool{},
	}
	lo.collectDecls()
	lo.buildSummaries()
	for _, file := range pass.Files {
		for _, decl := range file.Decls {
			fd, ok := decl.(*ast.FuncDecl)
			if !ok || fd.Body == nil {
				continue
			}
			lo.checkFunc(fd)
		}
	}
	return nil
}

// heldLock is one entry of the abstract held-lock set.
type heldLock struct {
	key      string
	shard    bool
	deferred bool // a deferred unlock covers function exit
	seeded   bool // held by the caller (callback-holds), not acquired here
	pos      token.Pos
}

type lockState struct {
	held []heldLock
}

func mergeLockState(a, b lockState) lockState {
	out := lockState{held: append([]heldLock(nil), a.held...)}
	for _, h := range b.held {
		found := false
		for _, g := range out.held {
			if g.key == h.key {
				found = true
				break
			}
		}
		if !found {
			out.held = append(out.held, h)
		}
	}
	return out
}

// fnSummary is the flow-insensitive effect summary of a same-package
// function: the lock classes it may acquire and whether it may block.
type fnSummary struct {
	locks  map[string]bool
	blocks bool
}

type lockorderRun struct {
	pass      *Pass
	shard     map[string]bool          // lock class → declared shard leaf
	order     map[[2]string]bool       // {before, after} declared pairs
	callbacks map[*types.Func][]string // fn origin → classes its FuncLit args run under
	summaries map[*types.Func]*fnSummary
	seen      map[string]bool // report dedup
}

// collectDecls gathers the three directive forms: shardlock field
// annotations, lockorder chains, and callback-holds function docs.
func (lo *lockorderRun) collectDecls() {
	for _, file := range lo.pass.Files {
		// //lint:shardlock on a struct's mutex field.
		ast.Inspect(file, func(n ast.Node) bool {
			ts, ok := n.(*ast.TypeSpec)
			if !ok {
				return true
			}
			st, ok := ts.Type.(*ast.StructType)
			if !ok {
				return true
			}
			for _, f := range st.Fields.List {
				if !commentHasMarker(f.Doc, "lint:shardlock") && !commentHasMarker(f.Comment, "lint:shardlock") {
					continue
				}
				for _, name := range f.Names {
					lo.shard[ts.Name.Name+"."+name.Name] = true
				}
			}
			return true
		})
		// //lint:lockorder A.mu < B.mu [< C.mu ...] anywhere in the file.
		for _, cg := range file.Comments {
			for _, c := range cg.List {
				text := strings.TrimSpace(strings.TrimPrefix(c.Text, "//"))
				if !strings.HasPrefix(text, "lint:lockorder") {
					continue
				}
				chain := strings.Split(strings.TrimSpace(strings.TrimPrefix(text, "lint:lockorder")), "<")
				for i := 0; i+1 < len(chain); i++ {
					before := strings.TrimSpace(chain[i])
					after := strings.TrimSpace(chain[i+1])
					if before != "" && after != "" {
						lo.order[[2]string{before, after}] = true
					}
				}
			}
		}
		// //lint:callback-holds <class> in a function doc.
		for _, decl := range file.Decls {
			fd, ok := decl.(*ast.FuncDecl)
			if !ok || fd.Doc == nil {
				continue
			}
			for _, c := range fd.Doc.List {
				text := strings.TrimSpace(strings.TrimPrefix(c.Text, "//"))
				if !strings.HasPrefix(text, "lint:callback-holds") {
					continue
				}
				class := strings.TrimSpace(strings.TrimPrefix(text, "lint:callback-holds"))
				if class == "" {
					continue
				}
				if fn, ok := lo.pass.Info.Defs[fd.Name].(*types.Func); ok {
					lo.callbacks[fnOrigin(fn)] = append(lo.callbacks[fnOrigin(fn)], class)
				}
			}
		}
	}
}

func commentHasMarker(cg *ast.CommentGroup, marker string) bool {
	if cg == nil {
		return false
	}
	for _, c := range cg.List {
		if strings.HasPrefix(strings.TrimSpace(strings.TrimPrefix(c.Text, "//")), marker) {
			return true
		}
	}
	return false
}

// buildSummaries computes, to a fixpoint, the may-lock/may-block effect
// of every same-package function. Function literals are excluded: they
// run when invoked, not when their enclosing function does.
func (lo *lockorderRun) buildSummaries() {
	lo.summaries = map[*types.Func]*fnSummary{}
	decls := map[*types.Func]*ast.FuncDecl{}
	for _, file := range lo.pass.Files {
		for _, decl := range file.Decls {
			fd, ok := decl.(*ast.FuncDecl)
			if !ok || fd.Body == nil {
				continue
			}
			if fn, ok := lo.pass.Info.Defs[fd.Name].(*types.Func); ok {
				decls[fnOrigin(fn)] = fd
				lo.summaries[fnOrigin(fn)] = &fnSummary{locks: map[string]bool{}}
			}
		}
	}
	for changed := true; changed; {
		changed = false
		for fn, fd := range decls {
			sum := lo.summaries[fn]
			inspectSkippingFuncLits(fd.Body, func(n ast.Node) {
				switch n := n.(type) {
				case *ast.CallExpr:
					if key, op := lo.mutexOp(n); op == lockAcquire && key != "" && !sum.locks[key] {
						sum.locks[key] = true
						changed = true
					}
					if !sum.blocks && lo.blockingDesc(n) != "" {
						sum.blocks = true
						changed = true
					}
					if callee := lo.samePkgCallee(n); callee != nil {
						if csum, ok := lo.summaries[callee]; ok && csum != sum {
							for k := range csum.locks {
								if !sum.locks[k] {
									sum.locks[k] = true
									changed = true
								}
							}
							if csum.blocks && !sum.blocks {
								sum.blocks = true
								changed = true
							}
						}
					}
				case *ast.SendStmt:
					if !sum.blocks {
						sum.blocks = true
						changed = true
					}
				case *ast.UnaryExpr:
					if n.Op == token.ARROW && !sum.blocks {
						sum.blocks = true
						changed = true
					}
				}
			})
		}
	}
}

// inspectSkippingFuncLits visits every node in body except those inside
// nested function literals.
func inspectSkippingFuncLits(body ast.Node, visit func(ast.Node)) {
	ast.Inspect(body, func(n ast.Node) bool {
		if _, ok := n.(*ast.FuncLit); ok {
			return false
		}
		if n != nil {
			visit(n)
		}
		return true
	})
}

type mutexOpKind int

const (
	lockNone mutexOpKind = iota
	lockAcquire
	lockRelease
)

// mutexOp classifies call as a sync.Mutex/RWMutex acquire or release
// and returns the lock class key ("Type.field" or a bare identifier).
func (lo *lockorderRun) mutexOp(call *ast.CallExpr) (string, mutexOpKind) {
	fn := calleeFunc(lo.pass.Info, call)
	if fn == nil || fn.Pkg() == nil || fn.Pkg().Path() != "sync" {
		return "", lockNone
	}
	sig, ok := fn.Type().(*types.Signature)
	if !ok || sig.Recv() == nil {
		return "", lockNone
	}
	recvType := sig.Recv().Type()
	if ptr, ok := recvType.(*types.Pointer); ok {
		recvType = ptr.Elem()
	}
	named, ok := recvType.(*types.Named)
	if !ok || (named.Obj().Name() != "Mutex" && named.Obj().Name() != "RWMutex") {
		return "", lockNone
	}
	var kind mutexOpKind
	switch fn.Name() {
	case "Lock", "RLock":
		kind = lockAcquire
	case "Unlock", "RUnlock":
		kind = lockRelease
	default:
		return "", lockNone // TryLock and friends: not tracked
	}
	sel, ok := ast.Unparen(call.Fun).(*ast.SelectorExpr)
	if !ok {
		return "", lockNone
	}
	return lo.lockClass(sel.X), kind
}

// lockClass names the mutex behind expr: "OwnerType.field" for a field
// selection, the identifier name otherwise, "" when unresolvable.
func (lo *lockorderRun) lockClass(expr ast.Expr) string {
	switch x := ast.Unparen(expr).(type) {
	case *ast.SelectorExpr:
		f := fieldOf(lo.pass.Info, x)
		if f == nil {
			return ""
		}
		t := lo.pass.Info.TypeOf(x.X)
		for {
			if ptr, ok := t.(*types.Pointer); ok {
				t = ptr.Elem()
				continue
			}
			break
		}
		if named, ok := t.(*types.Named); ok {
			return named.Obj().Name() + "." + f.Name()
		}
		return f.Name()
	case *ast.Ident:
		return x.Name
	}
	return ""
}

// samePkgCallee resolves call to a function declared in this package.
func (lo *lockorderRun) samePkgCallee(call *ast.CallExpr) *types.Func {
	fn := calleeFunc(lo.pass.Info, call)
	if fn == nil || fn.Pkg() != lo.pass.Pkg {
		return nil
	}
	return fnOrigin(fn)
}

// blockingDesc describes why call blocks, or "" when it does not. Only
// statically-resolved callees participate.
func (lo *lockorderRun) blockingDesc(call *ast.CallExpr) string {
	fn := calleeFunc(lo.pass.Info, call)
	if fn == nil || fn.Pkg() == nil {
		return ""
	}
	pkg := fn.Pkg()
	sig, _ := fn.Type().(*types.Signature)
	switch {
	case pkg.Path() == "time" && fn.Name() == "Sleep":
		return "time.Sleep"
	case pkg.Path() == "io" && blockingIOFuncs[fn.Name()]:
		return "io." + fn.Name()
	case sig != nil && sig.Recv() != nil && pkg != lo.pass.Pkg && blockingMethodNames[fn.Name()]:
		if pkg.Path() == "sync" && fn.Name() != "Wait" {
			return ""
		}
		return pkg.Name() + " " + fn.Name() + " method"
	}
	return ""
}

// checkFunc walks fd's body with an empty held set, then every function
// literal in it: callback-holds literals under the declared seeded
// locks, all others (goroutine bodies, plain closures) as independent
// functions.
func (lo *lockorderRun) checkFunc(fd *ast.FuncDecl) {
	lo.walkBody(fd.Body, lockState{})
	ast.Inspect(fd.Body, func(n ast.Node) bool {
		call, ok := n.(*ast.CallExpr)
		if !ok {
			return true
		}
		callee := calleeFunc(lo.pass.Info, call)
		var classes []string
		if callee != nil {
			classes = lo.callbacks[fnOrigin(callee)]
		}
		for _, arg := range call.Args {
			fl, ok := arg.(*ast.FuncLit)
			if !ok {
				continue
			}
			entry := lockState{}
			for _, class := range classes {
				entry.held = append(entry.held, heldLock{
					key: class, shard: lo.shard[class], seeded: true, pos: fl.Pos(),
				})
			}
			lo.walkBody(fl.Body, entry)
		}
		return true
	})
	// Remaining literals: go bodies, defers, assigned closures.
	ast.Inspect(fd.Body, func(n ast.Node) bool {
		switch n := n.(type) {
		case *ast.GoStmt:
			if fl, ok := n.Call.Fun.(*ast.FuncLit); ok {
				lo.walkBody(fl.Body, lockState{})
				return false
			}
		case *ast.DeferStmt:
			if fl, ok := n.Call.Fun.(*ast.FuncLit); ok {
				lo.walkBody(fl.Body, lockState{})
				return false
			}
		}
		return true
	})
}

func (lo *lockorderRun) walkBody(body *ast.BlockStmt, entry lockState) {
	eng := newFlowEngine(flowHooks[lockState]{
		merge:    mergeLockState,
		transfer: lo.transfer,
		onReturn: func(ret *ast.ReturnStmt, st lockState) lockState {
			lo.checkLeaks(st)
			return st
		},
		observeExpr: func(e ast.Expr, st lockState) {
			lo.checkExpr(e, &st)
		},
		observeSelect: func(sel *ast.SelectStmt, st lockState) {
			hasDefault := false
			for _, c := range sel.Body.List {
				if cc, ok := c.(*ast.CommClause); ok && cc.Comm == nil {
					hasDefault = true
				}
			}
			if !hasDefault {
				if h := shardHeld(st); h != nil {
					lo.reportOnce(sel.Pos(), "select",
						"select with no default case blocks while shard lock %s is held", h.key)
				}
			}
		},
	})
	end, term := eng.walkBody(body, entry)
	if !term {
		lo.checkLeaks(end)
	}
}

func shardHeld(st lockState) *heldLock {
	for i := range st.held {
		if st.held[i].shard {
			return &st.held[i]
		}
	}
	return nil
}

// checkLeaks reports locks acquired in this walk that may still be held
// at a function exit without a deferred unlock.
func (lo *lockorderRun) checkLeaks(st lockState) {
	for _, h := range st.held {
		if h.seeded || h.deferred {
			continue
		}
		lo.reportOnce(h.pos, "leak",
			"lock %s acquired here is not released on every path (unlock or defer the unlock)", h.key)
	}
}

// transfer folds one simple statement into the held set, checking each
// call and channel operation against the discipline in source order.
func (lo *lockorderRun) transfer(stmt ast.Stmt, st lockState, _ *flowCtx) lockState {
	if ds, ok := stmt.(*ast.DeferStmt); ok {
		if key, op := lo.mutexOp(ds.Call); op == lockRelease {
			for i := range st.held {
				if st.held[i].key == key {
					st.held[i].deferred = true
				}
			}
		}
		// The deferred call itself runs at exit; don't treat its callee
		// as executing here.
		return st
	}
	inspectSkippingFuncLits(stmt, func(n ast.Node) {
		switch n := n.(type) {
		case *ast.CallExpr:
			st = lo.applyLockCall(n, st)
		case *ast.SendStmt:
			if h := shardHeld(st); h != nil {
				lo.reportOnce(n.Pos(), "send", "channel send blocks while shard lock %s is held", h.key)
			}
		case *ast.UnaryExpr:
			if n.Op == token.ARROW {
				if h := shardHeld(st); h != nil {
					lo.reportOnce(n.Pos(), "recv", "channel receive blocks while shard lock %s is held", h.key)
				}
			}
		}
	})
	return st
}

// checkExpr applies the call/channel checks to a condition expression
// the engine otherwise consumes.
func (lo *lockorderRun) checkExpr(e ast.Expr, st *lockState) {
	inspectSkippingFuncLits(e, func(n ast.Node) {
		switch n := n.(type) {
		case *ast.CallExpr:
			*st = lo.applyLockCall(n, *st)
		case *ast.UnaryExpr:
			if n.Op == token.ARROW {
				if h := shardHeld(*st); h != nil {
					lo.reportOnce(n.Pos(), "recv", "channel receive blocks while shard lock %s is held", h.key)
				}
			}
		}
	})
}

func (lo *lockorderRun) applyLockCall(call *ast.CallExpr, st lockState) lockState {
	key, op := lo.mutexOp(call)
	if op != lockNone && key == "" {
		return st // unresolvable mutex expression: not tracked
	}
	if op == lockAcquire {
		lo.checkAcquire(call.Pos(), key, st)
		st.held = append(append([]heldLock(nil), st.held...),
			heldLock{key: key, shard: lo.shard[key], pos: call.Pos()})
		return st
	}
	if op == lockRelease {
		out := lockState{}
		removed := false
		for i := len(st.held) - 1; i >= 0; i-- {
			if !removed && st.held[i].key == key {
				removed = true
				continue
			}
			out.held = append([]heldLock{st.held[i]}, out.held...)
		}
		return out
	}
	// Not a mutex op: check blocking and same-package lock effects.
	if desc := lo.blockingDesc(call); desc != "" {
		if h := shardHeld(st); h != nil {
			lo.reportOnce(call.Pos(), "block",
				"blocking call (%s) while shard lock %s is held", desc, h.key)
		}
	}
	if callee := lo.samePkgCallee(call); callee != nil {
		if sum, ok := lo.summaries[callee]; ok {
			if h := shardHeld(st); h != nil {
				if len(sum.locks) > 0 {
					lo.reportOnce(call.Pos(), "nest",
						"call to %s acquires a lock (%s) while shard lock %s is held (shard locks are leaves)",
						callee.Name(), firstKey(sum.locks), h.key)
				} else if sum.blocks {
					lo.reportOnce(call.Pos(), "block",
						"call to %s may block while shard lock %s is held", callee.Name(), h.key)
				}
			}
			for k := range sum.locks {
				lo.checkAcquiredAgainstHeld(call.Pos(), k, st, callee.Name())
			}
		}
	}
	return st
}

// checkAcquire validates a direct Lock() against the current held set.
func (lo *lockorderRun) checkAcquire(pos token.Pos, key string, st lockState) {
	for _, h := range st.held {
		if h.key == key {
			lo.reportOnce(pos, "self",
				"lock %s acquired while already held (self-deadlock)", key)
			return
		}
		if h.shard {
			lo.reportOnce(pos, "shardnest",
				"lock %s acquired while shard lock %s is held (shard locks are leaves)", key, h.key)
			return
		}
		if lo.order[[2]string{key, h.key}] {
			lo.reportOnce(pos, "order",
				"lock %s acquired while %s is held, violating declared order %s < %s",
				key, h.key, key, h.key)
			return
		}
	}
}

// checkAcquiredAgainstHeld applies the self/order rules to locks a
// same-package callee acquires (the shard-leaf rule is reported by the
// caller with a better message).
func (lo *lockorderRun) checkAcquiredAgainstHeld(pos token.Pos, key string, st lockState, callee string) {
	for _, h := range st.held {
		if h.shard {
			continue
		}
		if h.key == key {
			lo.reportOnce(pos, "self",
				"call to %s re-acquires lock %s already held (self-deadlock)", callee, key)
			return
		}
		if lo.order[[2]string{key, h.key}] {
			lo.reportOnce(pos, "order",
				"call to %s acquires %s while %s is held, violating declared order %s < %s",
				callee, key, h.key, key, h.key)
			return
		}
	}
}

func firstKey(m map[string]bool) string {
	best := ""
	for k := range m {
		if best == "" || k < best {
			best = k
		}
	}
	return best
}

func (lo *lockorderRun) reportOnce(pos token.Pos, kind, format string, args ...any) {
	k := kind + "@" + lo.pass.Fset.Position(pos).String()
	if lo.seen[k] {
		return
	}
	lo.seen[k] = true
	lo.pass.Reportf(pos, format, args...)
}

// fnOrigin maps an instantiated generic function/method to its generic
// origin, so directive and summary lookups work across instantiations.
func fnOrigin(fn *types.Func) *types.Func {
	if fn == nil {
		return nil
	}
	return fn.Origin()
}
