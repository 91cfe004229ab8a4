package faultinject

import "testing"

// TestSurgeFaultContained kills a cell mid-surge under the open-loop
// frontend: the fault must be contained, the victim must close the full
// death → reboot → rejoin loop exactly once, live traffic must flow
// through the whole episode, and the user-visible error window must be
// bounded by the restoration time.
func TestSurgeFaultContained(t *testing.T) {
	if testing.Short() {
		t.Skip("surge trial; skipped with -short")
	}
	tr := RunTrial(SurgeFault, 0)
	if !tr.OK() {
		t.Fatalf("surge trial failed: det=%v cont=%v integ=%v check=%v state=%v notes=%s",
			tr.Detected, tr.Contained, tr.IntegrityOK, tr.CorrectRunOK, tr.StateOK, tr.Notes)
	}
	if tr.Rejoins != 1 || tr.RestoreMs <= 0 {
		t.Errorf("rejoins=%d restore=%.1fms, want exactly one rejoin with restore > 0",
			tr.Rejoins, tr.RestoreMs)
	}
	if tr.FeIssued == 0 || tr.FeCompleted == 0 {
		t.Errorf("frontend issued=%d completed=%d, want live traffic through the fault",
			tr.FeIssued, tr.FeCompleted)
	}
	if tr.FeWindowMs <= 0 || tr.FeWindowMs > tr.RestoreMs+250 {
		t.Errorf("window=%.1fms restore=%.1fms, want 0 < window ≤ restore + 250ms slack",
			tr.FeWindowMs, tr.RestoreMs)
	}
	if tr.FeP99Us <= 0 {
		t.Error("frontend latency p99 not measured")
	}
}

// TestSurgeFaultCheckNotStarved is the sweep's grid point that once failed
// (seed 52996): after the surge, cell 0's clock hand wrote back dirty
// pages for 675 ms holding the VM lock, and the post-fault correctness
// check's compile jobs timed out loading /usr/bin/cc from cell 0.
func TestSurgeFaultCheckNotStarved(t *testing.T) {
	if tr := RunTrial(SurgeFault, 5); !tr.OK() {
		t.Fatalf("surge trial 5 failed: det=%v cont=%v integ=%v check=%v state=%v notes=%s",
			tr.Detected, tr.Contained, tr.IntegrityOK, tr.CorrectRunOK, tr.StateOK, tr.Notes)
	}
}
