package faultinject

import (
	"sync"
	"testing"

	"repro/internal/forensic"
	"repro/internal/parallel"
)

// auditOpts is the instrumentation cmd/faultdrill runs every trial with:
// the forensic fold fed through the trace's sink, at the default ring
// capacity.
var auditOpts = TrialOpts{Audit: true}

// keptAuditOpts also keeps the events the rings hold at the capacity
// faultdrill's -trace uses, so one run yields both the sink-fed report
// and the stream Analyze reads.
var keptAuditOpts = TrialOpts{Audit: true, KeepEvents: true, TraceCap: 1 << 16}

// auditedTrials runs trial 0 of every scenario with keptAuditOpts once
// per test binary; the tests below read it and do not modify it.
var auditedTrials = sync.OnceValue(func() []*TrialResult {
	scens := AllScenarios()
	return parallel.Map(parallel.New(2), len(scens), func(i int) *TrialResult {
		return RunTrialOpts(scens[i], 0, keptAuditOpts)
	})
})

// TestTraceAuditAgreesWithHarness re-derives Detected/Contained from the
// trace alone for one trial of every scenario and requires agreement with
// the harness's live-state verdict — the mort-check gate in miniature
// (cmd/faultdrill audits every trial it runs the same way).
func TestTraceAuditAgreesWithHarness(t *testing.T) {
	if testing.Short() {
		t.Skip("trace audit cross-check skipped in -short")
	}
	for _, tr := range auditedTrials() {
		rep := tr.Report
		if rep.Audit.Detected != tr.Detected || rep.Audit.Contained != tr.Contained {
			t.Errorf("%v: trace says detected=%v contained=%v, harness says %v/%v\nevidence: %v",
				tr.Scenario, rep.Audit.Detected, rep.Audit.Contained, tr.Detected, tr.Contained,
				rep.Audit.Evidence)
		}
	}
}

// TestSinkReportMatchesKeptEvents requires the sink-fed report to be the
// report Analyze makes from the kept events: byte-identical wherever the
// rings kept every event, and otherwise different only by counting the
// events the rings dropped.
func TestSinkReportMatchesKeptEvents(t *testing.T) {
	if testing.Short() {
		t.Skip("report equivalence skipped in -short")
	}
	for _, tr := range auditedTrials() {
		var dropped uint64
		for _, d := range tr.Dropped {
			dropped += d.Total()
		}
		kept := forensic.Analyze(tr.Events, tr.Dropped)
		if got := tr.Report.Graph.Events; got != len(tr.Events)+int(dropped) {
			t.Errorf("%v: the sink saw %d events, the rings kept %d and dropped %d",
				tr.Scenario, got, len(tr.Events), dropped)
		}
		if dropped == 0 {
			if got, want := tr.Report.Format(3), kept.Format(3); got != want {
				t.Errorf("%v: sink-fed report differs from Analyze over the kept events:\n--- sink ---\n%s\n--- kept ---\n%s",
					tr.Scenario, got, want)
			}
			continue
		}
		if tr.Report.Graph.Truncated || !kept.Graph.Truncated {
			t.Errorf("%v: sink report truncated=%v, kept-events report truncated=%v; want false, true",
				tr.Scenario, tr.Report.Graph.Truncated, kept.Graph.Truncated)
		}
		if a, b := tr.Report.Audit, kept.Audit; a.Detected != b.Detected || a.Contained != b.Contained {
			t.Errorf("%v: sink verdict detected=%v contained=%v, kept-events verdict %v/%v",
				tr.Scenario, a.Detected, a.Contained, b.Detected, b.Contained)
		}
	}
}

// TestSixteenCellAuditSeesEveryEvent audits a 16-cell trial whose rings
// drop events at faultdrill's -trace capacity: through the sink, the
// report counts every recorded event, drops none and agrees with the
// harness.
func TestSixteenCellAuditSeesEveryEvent(t *testing.T) {
	if testing.Short() {
		t.Skip("16-cell audit skipped in -short")
	}
	tr := RunTrialOpts(NodeFailProcCreate, 6, TrialOpts{Cells: 16, Audit: true, KeepEvents: true, TraceCap: 1 << 16})
	var dropped uint64
	for _, d := range tr.Dropped {
		dropped += d.Total()
	}
	if dropped == 0 {
		t.Fatalf("the rings kept all %d events; the trial no longer tests ring loss", len(tr.Events))
	}
	g := tr.Report.Graph
	if g.Events != len(tr.Events)+int(dropped) || len(g.Dropped) != 0 || g.Truncated {
		t.Errorf("sink report counts %d events with drop rows %v; the rings kept %d and dropped %d",
			g.Events, g.Dropped, len(tr.Events), dropped)
	}
	if v := tr.Report.Audit; v.Detected != tr.Detected || v.Contained != tr.Contained {
		t.Errorf("trace says detected=%v contained=%v, harness says %v/%v\nevidence: %v",
			v.Detected, v.Contained, tr.Detected, tr.Contained, v.Evidence)
	}
}

// forensicReport renders one audited trial's full forensic report text.
func forensicReport(s Scenario, trial int) string {
	return RunTrialOpts(s, trial, auditOpts).Report.Format(3)
}

// TestForensicReportIdenticalAcrossJobs requires the rendered report to be
// byte-identical whether trials fan out across 1 or 8 workers: the report
// is a pure function of the trace, and the trace is a pure function of
// (scenario, trial).
func TestForensicReportIdenticalAcrossJobs(t *testing.T) {
	if testing.Short() {
		t.Skip("report identity skipped in -short")
	}
	scenarios := []Scenario{NodeFailProcCreate, MsgDrop}
	render := func(workers int) []string {
		r := parallel.New(workers)
		return parallel.Map(r, len(scenarios), func(i int) string {
			return forensicReport(scenarios[i], 0)
		})
	}
	ref, got := render(1), render(8)
	for i := range ref {
		if ref[i] != got[i] {
			t.Errorf("%v: report differs between -j1 and -j8:\n--- j1 ---\n%s\n--- j8 ---\n%s",
				scenarios[i], ref[i], got[i])
		}
	}
}

// TestKeepEventsCapture checks the forensic capture: the merged event
// stream and one ring-truncation row per cell.
func TestKeepEventsCapture(t *testing.T) {
	tr := RunTrialOpts(NodeFailProcCreate, 0, TrialOpts{KeepEvents: true})
	if len(tr.Events) == 0 || len(tr.Dropped) != tr.Cells {
		t.Fatalf("KeepEvents capture incomplete: %d events, %d drop rows, %d cells",
			len(tr.Events), len(tr.Dropped), tr.Cells)
	}
}
