package main

import (
	"fmt"
	"os"
	"strings"

	"repro/internal/faultinject"
	"repro/internal/forensic"
	"repro/internal/stats"
)

// trialAudit is one trial's cross-check: the harness verdict (live kernel
// state) next to the trace-derived verdict, compact enough to keep for
// every trial of a campaign.
type trialAudit struct {
	Trial            int              `json:"trial"`
	Seed             int64            `json:"seed"`
	TargetCell       int              `json:"target_cell"`
	HarnessDetected  bool             `json:"harness_detected"`
	HarnessContained bool             `json:"harness_contained"`
	HarnessOK        bool             `json:"harness_ok"`              // TrialResult.OK: the full containment verdict
	HarnessNotes     string           `json:"harness_notes,omitempty"` // why the harness failed it
	Audit            forensic.Verdict `json:"audit"`
	Agree            bool             `json:"agree"`
	Events           int              `json:"events"`
	DroppedEvents    uint64           `json:"dropped_events"`
}

// scenarioAudit aggregates one scenario's trial audits.
type scenarioAudit struct {
	Scenario      int          `json:"scenario"`
	Name          string       `json:"name"`
	Tests         int          `json:"tests"`
	Agree         int          `json:"agree"`
	Detected      int          `json:"detected"`
	Contained     int          `json:"contained"`
	Escapes       int          `json:"escapes"`
	Rejoins       int          `json:"rejoins"` // join-round commits seen in the traces
	Events        int64        `json:"events"`
	DroppedEvents uint64       `json:"dropped_events"`
	Trials        []trialAudit `json:"trials"`
}

// audit is the campaign's trace-versus-harness cross-check, folded in
// scenario order.
type audit struct {
	Scenarios     []scenarioAudit `json:"scenarios"`
	Trials        int             `json:"trials"`
	Agreements    int             `json:"agreements"`
	Disagreements []string        `json:"disagreements"`
	AllAgree      bool            `json:"all_agree"`

	replays []string // the replay line of each disagreement
	rejoins int
	events  int64
	dropped uint64
}

// auditedTrial is what a campaign job keeps of one trial: the harness
// result with its forensic report dropped, and the audit from that report.
type auditedTrial struct {
	res   *faultinject.TrialResult
	audit trialAudit
}

// runAudited runs one audited trial, sets its trace-derived verdict next
// to the harness's, and drops the forensic report.
func runAudited(s faultinject.Scenario, trial int, opts faultinject.TrialOpts) auditedTrial {
	tr := faultinject.RunTrialOpts(s, trial, opts)
	ta := auditTrial(trial, tr)
	tr.Report = nil
	return auditedTrial{tr, ta}
}

// auditTrial sets the verdict of an audited trial's forensic report next
// to the harness's; they agree when both say the same about detection and
// containment.
func auditTrial(trial int, tr *faultinject.TrialResult) trialAudit {
	g, v := tr.Report.Graph, tr.Report.Audit
	ta := trialAudit{
		Trial:            trial,
		Seed:             tr.Seed,
		TargetCell:       tr.TargetCell,
		HarnessDetected:  tr.Detected,
		HarnessContained: tr.Contained,
		HarnessOK:        tr.OK(),
		HarnessNotes:     tr.Notes,
		Audit:            v,
		Agree:            v.Detected == tr.Detected && v.Contained == tr.Contained,
		Events:           g.Events,
	}
	for _, d := range g.Dropped {
		ta.DroppedEvents += d.Total()
	}
	return ta
}

// foldAudit folds each scenario's trial audits into its row.
func foldAudit(scens []faultinject.Scenario, runs [][]auditedTrial) *audit {
	a := &audit{}
	for i, s := range scens {
		row := scenarioAudit{Scenario: int(s), Name: s.String(), Tests: len(runs[i])}
		for _, r := range runs[i] {
			t := r.audit
			row.Trials = append(row.Trials, t)
			if t.Agree {
				row.Agree++
			} else {
				a.Disagreements = append(a.Disagreements, fmt.Sprintf(
					"%s trial %d: harness detected=%v contained=%v, trace detected=%v contained=%v (%s)",
					row.Name, t.Trial, t.HarnessDetected, t.HarnessContained,
					t.Audit.Detected, t.Audit.Contained,
					strings.Join(t.Audit.Evidence, "; ")))
				a.replays = append(a.replays, faultinject.Replay(s, t.Trial, r.res.Cells))
			}
			if t.Audit.Detected {
				row.Detected++
			}
			if t.Audit.Contained {
				row.Contained++
			}
			row.Escapes += len(t.Audit.Escapes)
			row.Rejoins += len(t.Audit.Rejoined)
			row.Events += int64(t.Events)
			row.DroppedEvents += t.DroppedEvents
		}
		a.Scenarios = append(a.Scenarios, row)
		a.Trials += row.Tests
		a.Agreements += row.Agree
		a.rejoins += row.Rejoins
		a.events += row.Events
		a.dropped += row.DroppedEvents
	}
	a.AllAgree = a.Agreements == a.Trials
	return a
}

// print writes the audit's text section: the per-scenario table, the
// availability loop as re-derived from the traces, and the verdict line.
// Disagreements go to stderr.
func (a *audit) print() {
	fmt.Printf("faultdrill: audited %d trials across %d scenarios from the trace alone\n", a.Trials, len(a.Scenarios))
	if a.dropped > 0 {
		fmt.Printf("WARNING: %d events dropped by ring truncation — some walks may be incomplete\n", a.dropped)
	} else {
		fmt.Printf("no ring truncation anywhere (%d events analyzed)\n", a.events)
	}
	fmt.Println()

	t := stats.NewTable("trace audit vs harness (per scenario)",
		"scenario", "trials", "agree", "detected", "contained", "escapes", "rejoins", "events", "dropped")
	for _, row := range a.Scenarios {
		t.AddRow(row.Name,
			fmt.Sprintf("%d", row.Tests), fmt.Sprintf("%d", row.Agree),
			fmt.Sprintf("%d", row.Detected), fmt.Sprintf("%d", row.Contained),
			fmt.Sprintf("%d", row.Escapes), fmt.Sprintf("%d", row.Rejoins),
			fmt.Sprintf("%d", row.Events), fmt.Sprintf("%d", row.DroppedEvents))
	}
	fmt.Print(t.String())
	fmt.Println()

	// The availability loop as re-derived from the traces alone. A
	// rejoined cell's later death must audit as a new fault, so the agree
	// column above already covers the attribution property; this section
	// surfaces how often the loop closed.
	if a.rejoins > 0 {
		fmt.Println("availability loop (join-round commits seen in the traces):")
		for _, row := range a.Scenarios {
			if !faultinject.Scenario(row.Scenario).RebootLoop() {
				continue
			}
			fmt.Printf("  %-48s %d trial(s), %d rejoin commit(s)\n",
				row.Name, row.Tests, row.Rejoins)
		}
		fmt.Println()
	}

	if a.AllAgree {
		fmt.Println("The trace-derived verdicts agree with the harness on every trial.")
		return
	}
	for i, d := range a.Disagreements {
		fmt.Fprintf(os.Stderr, "DISAGREEMENT %s\n", d)
		fmt.Fprintln(os.Stderr, a.replays[i])
	}
	fmt.Println("TRACE/HARNESS DISAGREEMENTS OCCURRED — see above.")
}
