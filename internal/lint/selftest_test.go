package lint

import (
	"reflect"
	"testing"
)

// maxPragmas caps the module-wide //hive:lint-ignore budget. Exceptions
// must stay rare enough to review by hand; raising this number is a
// design decision, not a convenience. The current inventory (8): one
// carefulref (the fault injector plays the hardware), five errdrop sites
// that are deliberate best-effort casts to possibly-dead peers
// (membership alert, join announce, page release, firewall revocation,
// frame return) — the paper's own protocols make those sends advisory —
// and two deadcode test hooks that another package's tests call
// (sim.Engine.LiveTasks from cow, machine.Machine.ClockWordValue from
// core).
const maxPragmas = 8

// firstLint holds the first whole-module lint of this test binary.
// TestModuleLintClean checks it and TestLintOutputDeterministic compares
// one fresh lint against it, so the module is linted twice, not three
// times.
var firstLint *Result

// lintModule loads and lints the module rooted at root.
func lintModule(t *testing.T, root string) *Result {
	t.Helper()
	m, err := LoadModule(root, nil)
	if err != nil {
		t.Fatalf("loading module: %v", err)
	}
	res, err := m.Lint(nil)
	if err != nil {
		t.Fatalf("linting module: %v", err)
	}
	return res
}

// firstModuleLint returns firstLint, linting the module if no test has
// yet. It skips cleanly when the source tree is not available (for
// example when the package is tested from an install, not a checkout).
func firstModuleLint(t *testing.T) (*Result, string) {
	t.Helper()
	root := moduleRootForTest(t)
	if firstLint == nil {
		firstLint = lintModule(t, root)
	}
	return firstLint, root
}

// TestModuleLintClean lints the entire module inside `go test ./...`,
// making the tier-1 gate itself fail on any new determinism or layering
// hazard.
func TestModuleLintClean(t *testing.T) {
	res, _ := firstModuleLint(t)
	for _, d := range res.Diagnostics {
		t.Errorf("%s", d)
	}
	if len(res.Pragmas) > maxPragmas {
		t.Errorf("module carries %d //hive:lint-ignore pragmas; budget is %d — fix the code instead",
			len(res.Pragmas), maxPragmas)
	}
	for _, pr := range res.Pragmas {
		if pr.Reason == "" {
			// collectPragmas already rejects these; belt and braces.
			t.Errorf("%s:%d: pragma without reason", pr.File, pr.Line)
		}
		t.Logf("exception: %s:%d [%s] %s", pr.File, pr.Line, pr.Analyzer, pr.Reason)
	}
}

// TestLintOutputDeterministic lints the whole module afresh and demands
// results identical to the first lint: the linter must hold itself to the
// standard it enforces (its own maps never leak iteration order).
func TestLintOutputDeterministic(t *testing.T) {
	a, root := firstModuleLint(t)
	b := lintModule(t, root)
	if !reflect.DeepEqual(a.Diagnostics, b.Diagnostics) {
		t.Errorf("diagnostics differ between identical runs:\n%v\n%v", a.Diagnostics, b.Diagnostics)
	}
	if !reflect.DeepEqual(a.Pragmas, b.Pragmas) {
		t.Errorf("pragma inventory differs between identical runs:\n%v\n%v", a.Pragmas, b.Pragmas)
	}
}
