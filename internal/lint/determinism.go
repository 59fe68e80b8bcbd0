package lint

import (
	"go/ast"
	"go/types"
	"strings"
)

// Determinism guards the bit-identical-dataset contract: inside the
// deterministic packages every timestamp must come from the injected
// clock (faults.Clock / vclock.Clock), randomness must come from a
// seeded source, and map iteration order must never reach a returned
// slice or a writer unsorted.
var Determinism = &Analyzer{
	Name: "determinism",
	Doc: "forbid wall-clock reads, global randomness and order-leaking map ranges " +
		"in the packages whose outputs must be bit-identical across runs",
	Run: runDeterminism,
}

// deterministicPkgs are the packages (by module-relative suffix) whose
// outputs feed datasets and must therefore be pure functions of their
// inputs. vclock is deliberately absent: it is the one sanctioned
// boundary to the wall clock.
var deterministicPkgs = []string{
	"internal/netsim",
	"internal/core",
	"internal/colstore",
	"internal/analysis",
	"internal/egress",
	"internal/atlas",
	"internal/faults",
	"internal/masque",
	"internal/relayd",
	"internal/experiments",
}

// wallClockFuncs are the time package functions that read the wall
// clock directly.
var wallClockFuncs = map[string]bool{"Now": true, "Since": true, "Until": true}

// timerFuncs are the time package functions that schedule against the
// wall clock; deterministic packages must route timers through the
// injected vclock.Clock instead.
var timerFuncs = map[string]bool{
	"After": true, "Tick": true, "NewTimer": true, "NewTicker": true,
	"AfterFunc": true, "Sleep": true,
}

// seededRandConstructors build a caller-seeded source and are allowed;
// every other package-level math/rand call draws from the global
// (non-reproducible) source.
var seededRandConstructors = map[string]bool{
	"New": true, "NewSource": true, "NewPCG": true, "NewChaCha8": true, "NewZipf": true,
}

func runDeterminism(pass *Pass) error {
	if !inDeterministicPkg(pass.Pkg.Path()) {
		return nil
	}
	for _, file := range pass.Files {
		ast.Inspect(file, func(n ast.Node) bool {
			call, ok := n.(*ast.CallExpr)
			if !ok {
				return true
			}
			fn := calleeFunc(pass.Info, call)
			if fn == nil || fn.Pkg() == nil {
				return true
			}
			if fn.Type().(*types.Signature).Recv() != nil {
				return true // methods (e.g. on a seeded *rand.Rand) are fine
			}
			switch fn.Pkg().Path() {
			case "time":
				if wallClockFuncs[fn.Name()] {
					pass.Reportf(call.Pos(),
						"time.%s in deterministic package %s: route through the injected faults.Clock",
						fn.Name(), pass.Pkg.Name())
				}
				if timerFuncs[fn.Name()] {
					pass.Reportf(call.Pos(),
						"time.%s in deterministic package %s: route timers through the injected vclock.Clock",
						fn.Name(), pass.Pkg.Name())
				}
			case "math/rand", "math/rand/v2":
				if !seededRandConstructors[fn.Name()] {
					pass.Reportf(call.Pos(),
						"global %s.%s in deterministic package %s: draw from a seeded source instead",
						fn.Pkg().Name(), fn.Name(), pass.Pkg.Name())
				}
			}
			return true
		})
		checkMapRangeOrder(pass, file)
	}
	return nil
}

func inDeterministicPkg(path string) bool {
	for _, suffix := range deterministicPkgs {
		if hasPathSuffix(path, suffix) {
			return true
		}
	}
	return false
}

// checkMapRangeOrder flags `range` over a map when the iteration order
// can leak into an output: a write/print call inside the loop body, or
// a slice appended to in the body that is later returned without any
// sort call taking it in between. Accumulating into maps, sets or
// counters is order-independent and never flagged.
func checkMapRangeOrder(pass *Pass, file *ast.File) {
	for _, decl := range file.Decls {
		fd, ok := decl.(*ast.FuncDecl)
		if !ok || fd.Body == nil {
			continue
		}
		var ranges []*ast.RangeStmt
		ast.Inspect(fd.Body, func(n ast.Node) bool {
			if rs, ok := n.(*ast.RangeStmt); ok && isMapType(pass.Info.TypeOf(rs.X)) {
				ranges = append(ranges, rs)
			}
			return true
		})
		if len(ranges) == 0 {
			continue
		}
		sorted := sortedVars(pass, fd)
		returned := returnedVars(pass, fd)
		for _, rs := range ranges {
			checkOneMapRange(pass, fd, rs, sorted, returned)
		}
	}
}

func checkOneMapRange(pass *Pass, fd *ast.FuncDecl, rs *ast.RangeStmt, sorted, returned map[types.Object]bool) {
	ast.Inspect(rs.Body, func(n ast.Node) bool {
		switch n := n.(type) {
		case *ast.RangeStmt:
			if n != rs && isMapType(pass.Info.TypeOf(n.X)) {
				return false // the nested range gets its own report
			}
		case *ast.CallExpr:
			if isOrderedSink(pass.Info, n) {
				pass.Reportf(n.Pos(),
					"write inside range over map: iteration order reaches the output unsorted")
				return false
			}
		case *ast.AssignStmt:
			// s = append(s, ...) inside the loop: order lands in s.
			for i, rhs := range n.Rhs {
				call, ok := ast.Unparen(rhs).(*ast.CallExpr)
				if !ok || !isBuiltinAppend(pass.Info, call) || i >= len(n.Lhs) {
					continue
				}
				id, ok := ast.Unparen(n.Lhs[i]).(*ast.Ident)
				if !ok {
					continue
				}
				obj := pass.Info.Uses[id]
				if obj == nil {
					obj = pass.Info.Defs[id]
				}
				if obj == nil || !returned[obj] || sorted[obj] {
					continue
				}
				pass.Reportf(rs.Pos(),
					"range over map appends to returned slice %s without a sort: iteration order leaks into the result",
					id.Name)
				return false
			}
		}
		return true
	})
}

// sortedVars collects variables that appear as an argument to any call
// whose name mentions sort (sort.Slice, slices.SortFunc, sortAddrs, …):
// evidence the author re-established a deterministic order.
func sortedVars(pass *Pass, fd *ast.FuncDecl) map[types.Object]bool {
	out := map[types.Object]bool{}
	ast.Inspect(fd.Body, func(n ast.Node) bool {
		call, ok := n.(*ast.CallExpr)
		if !ok {
			return true
		}
		if !isSortingCall(pass.Info, call) {
			return true
		}
		for _, arg := range call.Args {
			if id, ok := ast.Unparen(arg).(*ast.Ident); ok {
				if obj := pass.Info.Uses[id]; obj != nil {
					out[obj] = true
				}
			}
		}
		return true
	})
	return out
}

// returnedVars collects variables that escape the function via a return
// statement (directly or as named results).
func returnedVars(pass *Pass, fd *ast.FuncDecl) map[types.Object]bool {
	out := map[types.Object]bool{}
	if fd.Type.Results != nil {
		for _, field := range fd.Type.Results.List {
			for _, name := range field.Names {
				if obj := pass.Info.Defs[name]; obj != nil {
					out[obj] = true
				}
			}
		}
	}
	ast.Inspect(fd.Body, func(n ast.Node) bool {
		ret, ok := n.(*ast.ReturnStmt)
		if !ok {
			return true
		}
		for _, res := range ret.Results {
			if id, ok := ast.Unparen(res).(*ast.Ident); ok {
				if obj := pass.Info.Uses[id]; obj != nil {
					out[obj] = true
				}
			}
		}
		return true
	})
	return out
}

// isSortingCall recognizes anything from sort/slices plus local helpers
// whose name mentions sort (sortAddrs and friends).
func isSortingCall(info *types.Info, call *ast.CallExpr) bool {
	fn := calleeFunc(info, call)
	if fn == nil {
		return false
	}
	if pkg := fn.Pkg(); pkg != nil && (pkg.Path() == "sort" || pkg.Path() == "slices") {
		return true
	}
	return strings.Contains(strings.ToLower(fn.Name()), "sort")
}

// isOrderedSink recognizes calls that emit output in call order:
// fmt.Fprint*/Print* and Write*-style methods on any receiver.
func isOrderedSink(info *types.Info, call *ast.CallExpr) bool {
	fn := calleeFunc(info, call)
	if fn == nil {
		return false
	}
	name := fn.Name()
	if fn.Pkg() != nil && fn.Pkg().Path() == "fmt" && (strings.HasPrefix(name, "Fprint") || strings.HasPrefix(name, "Print")) {
		return true
	}
	if fn.Pkg() != nil && fn.Pkg().Path() == "io" && name == "WriteString" {
		return true
	}
	if fn.Type().(*types.Signature).Recv() != nil && strings.HasPrefix(name, "Write") {
		return true
	}
	return false
}

func isMapType(t types.Type) bool {
	if t == nil {
		return false
	}
	_, ok := t.Underlying().(*types.Map)
	return ok
}

func isBuiltinAppend(info *types.Info, call *ast.CallExpr) bool {
	id, ok := ast.Unparen(call.Fun).(*ast.Ident)
	if !ok {
		return false
	}
	b, ok := info.Uses[id].(*types.Builtin)
	return ok && b.Name() == "append"
}
