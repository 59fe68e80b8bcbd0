package lint

import (
	"go/ast"
	"go/constant"
	"go/types"
	"os"
	"strings"
)

// Durability guards the crash-safety discipline PR 8 established: every
// durable artifact — datasets, checkpoints, diffs, sidecars,
// exported reports — must reach disk through internal/atomicio's
// temp-file + fsync + rename + directory-fsync sequence, so a crash can
// never leave a torn file behind a canonical name.
//
// In the guarded packages, direct calls to os.WriteFile, os.Create,
// os.Rename and any os.OpenFile not provably read-only are findings
// (an append-only journal goes through atomicio.OpenAppend). The one
// built-in exemption is the quarantine idiom: os.Rename(p,
// p+".corrupt") moves a damaged artifact *away* from its canonical
// name, which is exactly as crash-safe as it needs to be. Anything else
// needs a //lint:allow durability justification.
var Durability = &Analyzer{
	Name: "durability",
	Doc: "direct os.WriteFile/os.Create/os.Rename/write-mode os.OpenFile in the durable-artifact " +
		"packages must route through internal/atomicio",
	Run: runDurability,
}

// durabilityPkgs are the guarded packages (module-relative suffixes):
// the dataset/checkpoint writers plus every command that emits durable
// artifacts.
var durabilityPkgs = []string{
	"internal/core",
	"internal/relayd",
	"internal/colstore",
	"internal/experiments",
	"cmd/ecsscan",
	"cmd/report",
	"cmd/egressreport",
}

// durabilityFuncs are the os entry points that place bytes behind a
// canonical name without the atomic discipline.
var durabilityFuncs = map[string]bool{"WriteFile": true, "Create": true, "Rename": true, "OpenFile": true}

func runDurability(pass *Pass) error {
	guarded := false
	for _, suffix := range durabilityPkgs {
		if hasPathSuffix(pass.Pkg.Path(), suffix) {
			guarded = true
		}
	}
	if !guarded {
		return nil
	}
	for _, file := range pass.Files {
		ast.Inspect(file, func(n ast.Node) bool {
			call, ok := n.(*ast.CallExpr)
			if !ok {
				return true
			}
			fn := calleeFunc(pass.Info, call)
			if fn == nil || fn.Pkg() == nil || fn.Pkg().Path() != "os" || !durabilityFuncs[fn.Name()] {
				return true
			}
			if fn.Type().(*types.Signature).Recv() != nil {
				return true
			}
			if fn.Name() == "Rename" && isQuarantineRename(call) {
				return true
			}
			if fn.Name() == "OpenFile" && isReadOnlyOpen(pass.Info, call) {
				return true
			}
			pass.Reportf(call.Pos(),
				"direct os.%s bypasses the atomic-write discipline: route the artifact through internal/atomicio (temp+fsync+rename)",
				fn.Name())
			return true
		})
	}
	return nil
}

// isQuarantineRename recognizes os.Rename(p, <expr>+".corrupt"): the
// sanctioned move-aside of a damaged artifact.
func isQuarantineRename(call *ast.CallExpr) bool {
	if len(call.Args) != 2 {
		return false
	}
	be, ok := ast.Unparen(call.Args[1]).(*ast.BinaryExpr)
	if !ok {
		return false
	}
	lit, ok := ast.Unparen(be.Y).(*ast.BasicLit)
	return ok && strings.HasSuffix(strings.Trim(lit.Value, `"`), ".corrupt")
}

// isReadOnlyOpen recognizes os.OpenFile whose flag argument is a
// constant with no write, append, create or truncate bit. A flag the
// type checker cannot fold is not provably read-only.
func isReadOnlyOpen(info *types.Info, call *ast.CallExpr) bool {
	if len(call.Args) != 3 {
		return false
	}
	tv, ok := info.Types[call.Args[1]]
	if !ok || tv.Value == nil {
		return false
	}
	flag, exact := constant.Int64Val(tv.Value)
	const writeBits = os.O_WRONLY | os.O_RDWR | os.O_APPEND | os.O_CREATE | os.O_TRUNC
	return exact && int(flag)&writeBits == 0
}
