package faultinject

import (
	"testing"

	"repro/internal/parallel"
)

func TestSweepDeterministicAcrossWorkerCounts(t *testing.T) {
	// The acceptance bar for the campaign sweep: same configuration, any
	// worker count — byte-identical report, equal witness hash, all points
	// contained.
	if testing.Short() {
		t.Skip("full sweep trials in -short mode")
	}
	a := Sweep(parallel.New(1), 1, TrialOpts{})
	b := Sweep(parallel.New(4), 1, TrialOpts{})
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
