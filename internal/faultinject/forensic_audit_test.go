package faultinject

import (
	"testing"

	"repro/internal/forensic"
	"repro/internal/parallel"
)

// auditOpts is the instrumentation cmd/faultdrill runs every trial with.
var auditOpts = TrialOpts{KeepEvents: true, TraceCap: 1 << 16}

// TestTraceAuditAgreesWithHarness re-derives Detected/Contained from the
// trace alone for one trial of every scenario and requires agreement with
// the harness's live-state verdict — the mort-check gate in miniature
// (cmd/faultdrill audits every trial it runs the same way).
func TestTraceAuditAgreesWithHarness(t *testing.T) {
	if testing.Short() {
		t.Skip("trace audit cross-check skipped in -short")
	}
	for _, s := range AllScenarios() {
		tr := RunTrialOpts(s, 0, auditOpts)
		rep := forensic.Analyze(tr.Events, tr.Dropped)
		if rep.Audit.Detected != tr.Detected || rep.Audit.Contained != tr.Contained {
			t.Errorf("%v: trace says detected=%v contained=%v, harness says %v/%v\nevidence: %v",
				s, rep.Audit.Detected, rep.Audit.Contained, tr.Detected, tr.Contained,
				rep.Audit.Evidence)
		}
	}
}

// forensicReport renders one trial's full forensic report text.
func forensicReport(s Scenario, trial int, opts TrialOpts) string {
	tr := RunTrialOpts(s, trial, opts)
	return forensic.Analyze(tr.Events, tr.Dropped).Format(3)
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
			return forensicReport(scenarios[i], 0, auditOpts)
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
