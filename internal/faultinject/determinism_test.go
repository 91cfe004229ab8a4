package faultinject

import (
	"testing"

	"repro/internal/parallel"
)

// TestTrialDeterminismUnderParallelRunner is the regression gate for the
// parallel experiment layer: the same trial must produce identical
// detection latency, recovery latency, and event-trace hash whether it runs
// alone or interleaved with other trials on a multi-worker pool.
func TestTrialDeterminismUnderParallelRunner(t *testing.T) {
	if testing.Short() {
		t.Skip("runs six injection trials")
	}
	const n = 3
	opts := TrialOpts{TraceHash: true}
	seq := parallel.Map(parallel.New(1), n, func(i int) *TrialResult {
		return RunTrialOpts(NodeFailRandom, i, opts)
	})
	par := parallel.Map(parallel.New(4), n, func(i int) *TrialResult {
		return RunTrialOpts(NodeFailRandom, i, opts)
	})
	for i := range seq {
		s, p := seq[i], par[i]
		if s.TraceHash == 0 || p.TraceHash == 0 {
			t.Fatalf("trial %d: trace hash not recorded (seq=%x par=%x)", i, s.TraceHash, p.TraceHash)
		}
		if s.DetectMs != p.DetectMs {
			t.Errorf("trial %d: DetectMs %v (sequential) != %v (parallel)", i, s.DetectMs, p.DetectMs)
		}
		if s.RecoveryMs != p.RecoveryMs {
			t.Errorf("trial %d: RecoveryMs %v (sequential) != %v (parallel)", i, s.RecoveryMs, p.RecoveryMs)
		}
		if s.TraceHash != p.TraceHash {
			t.Errorf("trial %d: event-trace hash %x (sequential) != %x (parallel)", i, s.TraceHash, p.TraceHash)
		}
		if s.Detected != p.Detected || s.Contained != p.Contained {
			t.Errorf("trial %d: outcome diverged: seq=%+v par=%+v", i, s, p)
		}
	}
}

// TestScenarioAggregateDeterminism checks the aggregated campaign row is
// byte-identical across worker counts (ordered collection).
func TestScenarioAggregateDeterminism(t *testing.T) {
	if testing.Short() {
		t.Skip("runs four injection trials")
	}
	run := func(workers int) *CampaignRow {
		two := func(Scenario) int { return 2 }
		return RunCampaign(parallel.New(workers), []Scenario{NodeFailProcCreate}, two, TrialOpts{})[0]
	}
	a, b := run(1), run(4)
	if a.AvgDetect != b.AvgDetect || a.MaxDetect != b.MaxDetect || a.AvgRecov != b.AvgRecov || a.AllOK != b.AllOK {
		t.Fatalf("aggregates diverged:\n-j1: %+v\n-j4: %+v", a, b)
	}
}
