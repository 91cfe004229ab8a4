package faultinject

import (
	"testing"
)

// TestDeterministicReplay is the §7.4 methodology check: the simulation's
// determinism lets any trial be re-executed exactly — the property SimOS
// checkpoints gave the original authors for analyzing post-fault event
// sequences. Two executions of the same trial must agree on every
// observable.
func TestDeterministicReplay(t *testing.T) {
	for _, s := range []Scenario{NodeFailRandom, CorruptCOWTree} {
		a := RunTrial(s, 2)
		b := RunTrial(s, 2)
		if a.InjectedAt != b.InjectedAt || a.DetectMs != b.DetectMs ||
			a.RecoveryMs != b.RecoveryMs || a.Contained != b.Contained ||
			a.IntegrityOK != b.IntegrityOK || a.CorrectRunOK != b.CorrectRunOK {
			t.Fatalf("%s replay diverged:\n  a=%+v\n  b=%+v", s, a, b)
		}
	}
}
