// Package lint is relaylint: a project-specific static-analysis suite
// enforcing the invariants the test suite can only spot-check — pooled
// message lifecycles (poolcheck), dataset determinism (determinism),
// atomic-field access discipline (atomicfield), enum switch coverage
// (exhaustive) and atomic durable writes (durability). A sixth check,
// hotalloc, is not a per-package pass: it gates the compiler's escape
// analysis against a committed manifest of zero-alloc hot functions
// (see hotalloc.go and cmd/relaylint -hotalloc).
//
// Invariants that a type, a package boundary or a runtime check can
// hold are left to those instead: shard locks are leaves because
// internal/sharded never runs caller code under them, and goroutines
// terminate because internal/masque's TestMain fails on any that
// outlive its tests.
//
// The suite is deliberately dependency-free: it mirrors the
// golang.org/x/tools/go/analysis Analyzer/Pass shape on the standard
// library alone, loading type information through `go list -export`
// and the gc export-data importer, so `go run ./cmd/relaylint ./...`
// needs nothing beyond the toolchain that builds the repo.
//
// Suppression: a finding is silenced by a `//lint:allow <analyzer>`
// comment on the flagged line or the line directly above it. Multiple
// analyzers may be listed comma-separated; anything after the analyzer
// list is a free-form justification, which the convention requires.
package lint

import (
	"encoding/json"
	"fmt"
	"go/ast"
	"go/token"
	"go/types"
	"strings"
	"time"
)

// modulePath scopes project-specific rules (enum sets, deterministic
// packages) to this repository's types.
const modulePath = "github.com/relay-networks/privaterelay"

// An Analyzer is one lint pass. The shape mirrors
// golang.org/x/tools/go/analysis so the passes could migrate to a
// multichecker unchanged if the dependency ever lands.
type Analyzer struct {
	Name string
	Doc  string
	Run  func(*Pass) error
}

// A Pass presents one package to one analyzer.
type Pass struct {
	Analyzer *Analyzer
	Fset     *token.FileSet
	Files    []*ast.File
	Pkg      *types.Package
	Info     *types.Info

	report func(Diagnostic)
}

// Reportf records a diagnostic at pos.
func (p *Pass) Reportf(pos token.Pos, format string, args ...any) {
	p.report(Diagnostic{Pos: pos, Message: fmt.Sprintf(format, args...)})
}

// A Diagnostic is one finding, positioned in the pass's FileSet.
type Diagnostic struct {
	Pos     token.Pos
	Message string
}

// A Finding is a resolved diagnostic as printed by cmd/relaylint.
type Finding struct {
	Analyzer string
	Pos      token.Position
	Message  string
}

func (f Finding) String() string {
	return fmt.Sprintf("%s: %s: %s", f.Pos, f.Analyzer, f.Message)
}

// MarshalJSON flattens the position into the stable schema the CI
// artifact consumes: analyzer, file, line, column, message.
func (f Finding) MarshalJSON() ([]byte, error) {
	return json.Marshal(struct {
		Analyzer string `json:"analyzer"`
		File     string `json:"file"`
		Line     int    `json:"line"`
		Column   int    `json:"column"`
		Message  string `json:"message"`
	}{f.Analyzer, f.Pos.Filename, f.Pos.Line, f.Pos.Column, f.Message})
}

// All returns the full relaylint suite in reporting order.
func All() []*Analyzer {
	return []*Analyzer{Poolcheck, Determinism, Atomicfield, Exhaustive, Durability}
}

// HotallocName is the name the escape gate reports under; it is valid
// in -list output and directive validation even though the gate is not
// a per-package Analyzer.
const HotallocName = "hotalloc"

// knownAnalyzerNames returns every name a //lint:allow directive may
// legitimately cite.
func knownAnalyzerNames() map[string]bool {
	known := map[string]bool{"*": true, HotallocName: true}
	for _, a := range All() {
		known[a.Name] = true
	}
	return known
}

// AnalyzerStat is the per-analyzer slice of a Report: stable names for
// the -json schema consumed by the CI artifact.
type AnalyzerStat struct {
	Name         string  `json:"name"`
	WallMS       float64 `json:"wall_ms"`
	Findings     int     `json:"findings"`
	Suppressions int     `json:"suppressions"`
}

// Report is the stable machine-readable result of one suite run.
// Version bumps whenever a field changes meaning.
type Report struct {
	Version   int            `json:"version"`
	Analyzers []AnalyzerStat `json:"analyzers"`
	Findings  []Finding      `json:"findings"`
}

// RunAnalyzers applies each analyzer to each package and returns the
// unsuppressed findings, sorted by position. It is the thin wrapper
// over RunSuite kept for callers that only want findings.
func RunAnalyzers(pkgs []*Package, analyzers []*Analyzer) ([]Finding, error) {
	report, err := RunSuite(pkgs, analyzers)
	if err != nil {
		return nil, err
	}
	return report.Findings, nil
}

// RunSuite applies each analyzer to each package, accumulating per-
// analyzer wall time, finding and suppression counts. A //lint:allow
// directive naming an unknown analyzer is itself a finding (reported
// under the pseudo-analyzer "lint") — a typo there would otherwise
// silently disable nothing while looking like it suppressed something.
func RunSuite(pkgs []*Package, analyzers []*Analyzer) (*Report, error) {
	report := &Report{Version: 1}
	stats := map[string]*AnalyzerStat{}
	for _, a := range analyzers {
		st := &AnalyzerStat{Name: a.Name}
		stats[a.Name] = st
		report.Analyzers = append(report.Analyzers, AnalyzerStat{})
	}
	known := knownAnalyzerNames()
	for _, pkg := range pkgs {
		allow, directives := buildAllowIndex(pkg.Fset, pkg.Files)
		for _, d := range directives {
			for _, n := range d.names {
				if !known[n] {
					report.Findings = append(report.Findings, Finding{
						Analyzer: "lint",
						Pos:      pkg.Fset.Position(d.pos),
						Message:  fmt.Sprintf("//lint:allow names unknown analyzer %q: the directive suppresses nothing", n),
					})
				}
			}
		}
		for _, a := range analyzers {
			stat := stats[a.Name]
			pass := &Pass{
				Analyzer: a,
				Fset:     pkg.Fset,
				Files:    pkg.Files,
				Pkg:      pkg.Types,
				Info:     pkg.Info,
			}
			pass.report = func(d Diagnostic) {
				pos := pkg.Fset.Position(d.Pos)
				if allow.allows(a.Name, pos) {
					stat.Suppressions++
					return
				}
				stat.Findings++
				report.Findings = append(report.Findings, Finding{Analyzer: a.Name, Pos: pos, Message: d.Message})
			}
			start := time.Now()
			err := a.Run(pass)
			stat.WallMS += float64(time.Since(start)) / float64(time.Millisecond)
			if err != nil {
				return nil, fmt.Errorf("%s on %s: %w", a.Name, pkg.Path, err)
			}
		}
	}
	for i, a := range analyzers {
		report.Analyzers[i] = *stats[a.Name]
	}
	sortFindings(report.Findings)
	return report, nil
}

func sortFindings(fs []Finding) {
	// Position order makes output stable across runs and analyzers.
	for i := 1; i < len(fs); i++ {
		for j := i; j > 0 && lessFinding(fs[j], fs[j-1]); j-- {
			fs[j], fs[j-1] = fs[j-1], fs[j]
		}
	}
}

func lessFinding(a, b Finding) bool {
	if a.Pos.Filename != b.Pos.Filename {
		return a.Pos.Filename < b.Pos.Filename
	}
	if a.Pos.Line != b.Pos.Line {
		return a.Pos.Line < b.Pos.Line
	}
	if a.Pos.Column != b.Pos.Column {
		return a.Pos.Column < b.Pos.Column
	}
	return a.Analyzer < b.Analyzer
}

// calleeFunc resolves the static callee of a call, or nil for dynamic
// calls (function values, interface methods resolve to their declared
// *types.Func, which is what the analyzers want).
func calleeFunc(info *types.Info, call *ast.CallExpr) *types.Func {
	var obj types.Object
	switch fun := ast.Unparen(call.Fun).(type) {
	case *ast.Ident:
		obj = info.Uses[fun]
	case *ast.SelectorExpr:
		obj = info.Uses[fun.Sel]
	}
	fn, _ := obj.(*types.Func)
	return fn
}

// hasPathSuffix reports whether pkg path matches suffix on a path
// boundary, so testdata packages with fabricated prefixes participate.
func hasPathSuffix(path, suffix string) bool {
	return path == suffix || strings.HasSuffix(path, "/"+suffix)
}
