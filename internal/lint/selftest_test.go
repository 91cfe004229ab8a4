package lint

import (
	"reflect"
	"testing"
)

// maxPragmas caps the module-wide //hive:lint-ignore budget. Exceptions
// must stay rare enough to review by hand; raising this number is a
// design decision, not a convenience. The current inventory (9): two
// maporder pure counts, one carefulref (the fault injector plays the
// hardware), and six errdrop sites that are deliberate best-effort casts
// to possibly-dead peers (signal fan-out, membership alert, join
// announce, page release, firewall revocation, frame return) — the
// paper's own protocols make those sends advisory.
const maxPragmas = 9

// TestModuleLintClean lints the entire module inside `go test ./...`,
// making the tier-1 gate itself fail on any new determinism or layering
// hazard. It skips cleanly when the source tree is not available (for
// example when the package is tested from an install, not a checkout).
func TestModuleLintClean(t *testing.T) {
	root := moduleRootForTest(t)
	m, err := LoadModule(root, nil)
	if err != nil {
		t.Fatalf("loading module: %v", err)
	}
	res, err := m.Lint(nil)
	if err != nil {
		t.Fatalf("linting module: %v", err)
	}
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

// TestLintOutputDeterministic runs the whole-module lint twice and
// demands identical results: the linter must hold itself to the
// standard it enforces (its own maps never leak iteration order).
func TestLintOutputDeterministic(t *testing.T) {
	root := moduleRootForTest(t)
	lintOnce := func() *Result {
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
	a, b := lintOnce(), lintOnce()
	if !reflect.DeepEqual(a.Diagnostics, b.Diagnostics) {
		t.Errorf("diagnostics differ between identical runs:\n%v\n%v", a.Diagnostics, b.Diagnostics)
	}
	if !reflect.DeepEqual(a.Pragmas, b.Pragmas) {
		t.Errorf("pragma inventory differs between identical runs:\n%v\n%v", a.Pragmas, b.Pragmas)
	}
}
