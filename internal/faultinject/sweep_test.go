package faultinject

import (
	"testing"

	"repro/internal/parallel"
)

func TestSweepDeterministicAcrossWorkerCounts(t *testing.T) {
	// The acceptance bar for the campaign sweep: same configuration, any
	// worker count — byte-identical report, equal witness hash, all points
	// contained. The -j 4 side runs with the audit faultdrill runs every
	// trial with (auditOpts), so this also pins that folding the event
	// stream moves no verdict and no hash.
	if testing.Short() {
		t.Skip("full sweep trials in -short mode")
	}
	grid := func(workers int, opts TrialOpts) [][]*TrialResult {
		return RunTrials(parallel.New(workers), AllScenarios(), func(Scenario) int { return 1 },
			func(s Scenario, trial int) *TrialResult {
				tr := RunTrialOpts(s, trial, opts)
				tr.Report = nil
				return tr
			})
	}
	a := Sweep(grid(1, TrialOpts{}), TrialOpts{})
	b := Sweep(grid(4, auditOpts), TrialOpts{})
	if a.Hash != b.Hash {
		t.Fatalf("witness hash diverged: %016x vs %016x", a.Hash, b.Hash)
	}
	if a.Format() != b.Format() {
		t.Fatalf("report bytes diverged:\n--- j1:\n%s--- j4:\n%s", a.Format(), b.Format())
	}
	if !a.AllOK() {
		t.Fatalf("sweep not clean:\n%s", a.Format())
	}
	if a.Points != len(AllScenarios()) || a.OKCount != a.Points {
		t.Fatalf("points=%d ok=%d, want %d/%d", a.Points, a.OKCount,
			len(AllScenarios()), len(AllScenarios()))
	}
}
