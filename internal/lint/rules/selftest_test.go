package rules_test

import (
	"sync"
	"testing"

	"github.com/quicknn/quicknn/internal/lint"
	"github.com/quicknn/quicknn/internal/lint/rules"
)

// loadRepo parses the enclosing module once for the whole test binary:
// the typed and syntactic cleanliness tests analyze the same lint.Loaded
// (same parse, memoized type-check) instead of loading the module twice.
var loadRepo = sync.OnceValues(func() (*lint.Loaded, error) {
	return lint.Load(".", lint.Tags{})
})

// TestRepoIsLintClean bakes quicknnlint cleanliness into the ordinary test
// suite: the whole module must produce zero diagnostics under the typed
// driver — including zero "typecheck" diagnostics, so the module
// type-checks end to end with the stdlib-only loader — and a rule
// violation fails `go test ./...` even where CI cannot run the binary.
func TestRepoIsLintClean(t *testing.T) {
	l, err := loadRepo()
	if err != nil {
		t.Fatalf("load module: %v", err)
	}
	res, err := l.Analyze(lint.Options{Analyzers: rules.All})
	if err != nil {
		t.Fatalf("analyze module: %v", err)
	}
	if res.Packages == 0 {
		t.Fatal("no packages loaded from module root")
	}
	for _, d := range res.Diags {
		t.Errorf("%s", d)
	}
	if len(res.Diags) > 0 {
		t.Logf("%d diagnostic(s); see docs/invariants.md for each rule and its suppression syntax", len(res.Diags))
	}
}

// TestRepoIsLintCleanSyntactic keeps the degraded (parse-only) driver
// honest too: the syntactic fallbacks of the ported analyzers must also
// be clean on the repo, over the same parse the typed test used.
func TestRepoIsLintCleanSyntactic(t *testing.T) {
	l, err := loadRepo()
	if err != nil {
		t.Fatalf("load module: %v", err)
	}
	res, err := l.Analyze(lint.Options{Syntactic: true, Analyzers: rules.All})
	if err != nil {
		t.Fatalf("analyze module: %v", err)
	}
	for _, d := range res.Diags {
		t.Errorf("%s", d)
	}
}

// TestSuiteIsComplete pins the analyzer roster so a rule cannot silently
// drop out of the suite.
func TestSuiteIsComplete(t *testing.T) {
	want := map[string]bool{
		"atomicfield": true,
		"ctxfirst":    true,
		"cycleint":    true,
		"nakedrand":   true,
		"panicmsg":    true,
		"recordpath":  true,
		"scratchleak": true,
		"walltime":    true,
	}
	if len(rules.All) != len(want) {
		t.Fatalf("suite has %d analyzers, want %d", len(rules.All), len(want))
	}
	typedOnly := map[string]bool{
		"atomicfield": true,
		"scratchleak": true,
	}
	for _, a := range rules.All {
		if !want[a.Name] {
			t.Errorf("unexpected analyzer %q in suite", a.Name)
		}
		if a.Doc == "" {
			t.Errorf("analyzer %q has no Doc", a.Name)
		}
		if a.Run == nil {
			t.Errorf("analyzer %q has no Run", a.Name)
		}
		if a.NeedsTypes != typedOnly[a.Name] {
			t.Errorf("analyzer %q: NeedsTypes = %v, want %v", a.Name, a.NeedsTypes, typedOnly[a.Name])
		}
	}
}
