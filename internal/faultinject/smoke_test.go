package faultinject

import "testing"

// TestOneTrialEach runs trial i of the i-th Table 7.4 scenario: each must
// be contained, and the targets must rotate over cells 1 and 2, the cells
// that serve no file system.
func TestOneTrialEach(t *testing.T) {
	for i, s := range []Scenario{NodeFailProcCreate, NodeFailCOWSearch, NodeFailRandom, CorruptAddrMap, CorruptCOWTree} {
		tr := RunTrial(s, i)
		if !tr.OK() {
			t.Errorf("%s trial %d: detect=%.1fms recov=%.1fms det=%v cont=%v integ=%v check=%v state=%v notes=%s",
				s, i, tr.DetectMs, tr.RecoveryMs, tr.Detected, tr.Contained, tr.IntegrityOK, tr.CorrectRunOK, tr.StateOK, tr.Notes)
		}
		if want := 1 + i%2; tr.TargetCell != want {
			t.Errorf("%s trial %d: target cell %d, want %d", s, i, tr.TargetCell, want)
		}
	}
}

// TestNegativeTrialPanics checks that a negative trial is refused rather
// than run: 1 + trial%(cells-2) would put trial -1's fault into cell 0, the
// /usr file server.
func TestNegativeTrialPanics(t *testing.T) {
	defer func() {
		if r := recover(); r != "faultinject: trial -1: trials are 0 or more" {
			t.Errorf("recover() = %v, want the negative-trial panic", r)
		}
	}()
	RunTrial(NodeFailProcCreate, -1)
	t.Error("RunTrial(NodeFailProcCreate, -1) returned")
}

// TestCorruptAddrMapWaitsForACompileJob runs a 16-cell trial whose target
// (cell 4) runs no compile job at the drawn instant: the injector must
// keep trying until one appears rather than never inject.
func TestCorruptAddrMapWaitsForACompileJob(t *testing.T) {
	tr := RunTrialOpts(CorruptAddrMap, 3, TrialOpts{Cells: 16})
	if tr.InjectedAt == 0 || !tr.OK() {
		t.Fatalf("injected at %v: det=%v cont=%v integ=%v check=%v state=%v notes=%s",
			tr.InjectedAt, tr.Detected, tr.Contained, tr.IntegrityOK, tr.CorrectRunOK, tr.StateOK, tr.Notes)
	}
}
