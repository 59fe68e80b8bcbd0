package lint

import (
	"fmt"
	"go/token"
	"path/filepath"
	"regexp"
	"strings"
	"testing"
)

// runGolden is the analysistest-style harness: it loads one testdata
// package under a fabricated import path, runs a single analyzer
// through the production pipeline (including //lint:allow suppression)
// and matches findings against `// want "regex"` comments line by line.
func runGolden(t *testing.T, a *Analyzer, dirname, asPath string) {
	t.Helper()
	runGoldenMulti(t, []*Analyzer{a}, dirname, asPath)
}

// runGoldenMulti is runGolden over several analyzers at once, for
// testdata whose want set mixes analyzers (the suppress package).
// Findings from the "lint" pseudo-analyzer (dead //lint:allow
// directives) participate in want matching like any other.
func runGoldenMulti(t *testing.T, as []*Analyzer, dirname, asPath string) {
	t.Helper()
	dir := filepath.Join("testdata", "src", dirname)
	pkg, err := LoadDir("../..", dir, asPath)
	if err != nil {
		t.Fatalf("loading %s: %v", dir, err)
	}
	findings, err := RunAnalyzers([]*Package{pkg}, as)
	if err != nil {
		t.Fatal(err)
	}
	matchWants(t, pkg, findings)
}

// matchWants checks findings against the package's `// want "regex"`
// comments line by line: every finding needs a want, every want a
// finding.
func matchWants(t *testing.T, pkg *Package, findings []Finding) {
	t.Helper()
	type expectation struct {
		re  *regexp.Regexp
		hit bool
	}
	wants := map[string][]*expectation{} // "file:line" → pending expectations
	wantRe := regexp.MustCompile("^// want [\"`]([^\"`]+)[\"`]")
	for _, f := range pkg.Files {
		for _, cg := range f.Comments {
			for _, c := range cg.List {
				m := wantRe.FindStringSubmatch(c.Text)
				if m == nil {
					continue
				}
				pos := pkg.Fset.Position(c.Slash)
				key := fmt.Sprintf("%s:%d", pos.Filename, pos.Line)
				wants[key] = append(wants[key], &expectation{re: regexp.MustCompile(m[1])})
			}
		}
	}

	for _, f := range findings {
		key := fmt.Sprintf("%s:%d", f.Pos.Filename, f.Pos.Line)
		matched := false
		for _, exp := range wants[key] {
			if !exp.hit && exp.re.MatchString(f.Message) {
				exp.hit = true
				matched = true
				break
			}
		}
		if !matched {
			t.Errorf("unexpected finding at %s: %s", key, f.Message)
		}
	}
	for key, exps := range wants {
		for _, exp := range exps {
			if !exp.hit {
				t.Errorf("missing finding at %s matching %q", key, exp.re)
			}
		}
	}
}

func TestPoolcheckGolden(t *testing.T) {
	runGolden(t, Poolcheck, "poolcheck", modulePath+"/lintdata/poolcheck")
}

func TestDeterminismGolden(t *testing.T) {
	// The fabricated path ends in internal/core, putting the testdata
	// inside the deterministic package set.
	runGolden(t, Determinism, "determinism", modulePath+"/lintdata/internal/core")
}

func TestAtomicfieldGolden(t *testing.T) {
	runGolden(t, Atomicfield, "atomicfield", modulePath+"/lintdata/atomicfield")
}

func TestExhaustiveGolden(t *testing.T) {
	runGolden(t, Exhaustive, "exhaustive", modulePath+"/lintdata/exhaustive")
}

func TestDurabilityGolden(t *testing.T) {
	// The fabricated path ends in internal/relayd, inside the durable-
	// artifact set.
	runGolden(t, Durability, "durability", modulePath+"/lintdata/internal/relayd")
}

// TestSuppressGolden runs the suppress testdata through the full suite
// pipeline with two analyzers: the multi-analyzer directive must
// silence both, the own-line form must cover a block statement, a
// directive naming the wrong analyzer must silence nothing, and a
// typo'd analyzer name must surface as a finding of its own.
func TestSuppressGolden(t *testing.T) {
	pkg, err := LoadDir("../..", filepath.Join("testdata", "src", "suppress"), modulePath+"/lintdata/internal/core")
	if err != nil {
		t.Fatal(err)
	}
	report, err := RunSuite([]*Package{pkg}, []*Analyzer{Poolcheck, Determinism})
	if err != nil {
		t.Fatal(err)
	}
	var lintFs, rest []Finding
	for _, f := range report.Findings {
		if f.Analyzer == "lint" {
			lintFs = append(lintFs, f)
		} else {
			rest = append(rest, f)
		}
	}
	matchWants(t, pkg, rest)
	if len(lintFs) != 1 || !strings.Contains(lintFs[0].Message, `unknown analyzer "determinsm"`) {
		t.Errorf("want exactly one dead-directive finding for the typo'd name, got %v", lintFs)
	}
	stats := map[string]AnalyzerStat{}
	for _, st := range report.Analyzers {
		stats[st.Name] = st
	}
	if got := stats["poolcheck"].Suppressions; got != 1 {
		t.Errorf("poolcheck suppressions = %d, want 1 (the multi-analyzer line)", got)
	}
	if got := stats["determinism"].Suppressions; got != 2 {
		t.Errorf("determinism suppressions = %d, want 2 (multi-analyzer line + own-line block)", got)
	}
}

// TestSuppressionForms pins the two sanctioned //lint:allow placements
// (trailing and own-line) and that an allow for one analyzer does not
// silence another.
func TestSuppressionForms(t *testing.T) {
	idx := allowIndex{"f.go": {10: {"poolcheck"}, 11: {"poolcheck"}}}
	pos := func(line int) token.Position { return token.Position{Filename: "f.go", Line: line} }
	if !idx.allows("poolcheck", pos(10)) {
		t.Error("trailing-form line not allowed")
	}
	if !idx.allows("poolcheck", pos(11)) {
		t.Error("line after own-line comment not allowed")
	}
	if idx.allows("determinism", pos(10)) {
		t.Error("allow for poolcheck must not silence determinism")
	}
	if idx.allows("poolcheck", pos(12)) {
		t.Error("allow must not reach two lines down")
	}
}

func TestParseAllow(t *testing.T) {
	cases := []struct {
		comment string
		want    []string
	}{
		{"//lint:allow poolcheck — justification", []string{"poolcheck"}},
		{"//lint:allow determinism,exhaustive partial switch", []string{"determinism", "exhaustive"}},
		{"// lint:allow atomicfield", []string{"atomicfield"}},
		{"// plain comment", nil},
		{"//lint:allowother", nil},
	}
	for _, c := range cases {
		got := parseAllow(c.comment)
		if strings.Join(got, ",") != strings.Join(c.want, ",") {
			t.Errorf("parseAllow(%q) = %v, want %v", c.comment, got, c.want)
		}
	}
}

// TestLoadRepoPackage exercises the production loader path cmd/relaylint
// uses, against a real repo package.
func TestLoadRepoPackage(t *testing.T) {
	pkgs, err := Load("../..", "./internal/dnswire")
	if err != nil {
		t.Fatal(err)
	}
	if len(pkgs) != 1 || pkgs[0].Path != modulePath+"/internal/dnswire" {
		t.Fatalf("loaded %v", pkgs)
	}
	findings, err := RunAnalyzers(pkgs, All())
	if err != nil {
		t.Fatal(err)
	}
	for _, f := range findings {
		t.Errorf("unexpected finding in dnswire: %s", f)
	}
}
