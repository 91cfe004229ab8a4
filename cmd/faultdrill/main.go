// Command faultdrill runs the fault-injection campaign: the paper's §7.4
// rows — 49 fail-stop hardware faults and 20 kernel data corruptions
// (Table 7.4) — plus the v2 adversarial extensions that attack the recovery
// substrate itself (message drop/duplicate/corrupt, double faults,
// coordinator death mid-round, fault storms). It reports containment and
// detection latency per scenario, and audits every trial it runs: the
// forensic pass (internal/forensic) re-derives each containment verdict
// from the trial's structured trace alone and cross-checks it against the
// harness's live-state verdict.
//
// Usage:
//
//	faultdrill            # the full campaign, paper rows + extensions, audited
//	faultdrill -trials 3  # 3 trials per scenario
//	faultdrill -cells 16  # campaign on a 16-cell hive (default 4, the paper's)
//	faultdrill -j 8       # fan trials across 8 workers (same results at any -j)
//	faultdrill -json -o drill.json       # machine-readable campaign and audit report
//	faultdrill -scenario 4 -trial 2      # one trial and its full forensic report
//	faultdrill -scenario 4 -trial 2 -top 5  # top-5 span names per subsystem in its profiles
//	faultdrill -scenario 2 -trial 0 -trace out.json  # Perfetto trace of one trial
//	faultdrill -sweep                    # seeded grid sweep with failure minimization
//	faultdrill -sweep -points 220        # at least 220 (scenario × trial) grid points
//
// Exit status is 1 when the harness fails a trial or a trace-derived
// verdict disagrees with the harness's, and 2 on an out-of-range -cells or
// -scenario, a negative -trial or -trials, a -points below 1, or a flag the
// chosen mode does not read (-trace without -scenario, -o without -json,
// -points without -sweep, ...).
package main

import (
	"bytes"
	"encoding/json"
	"flag"
	"fmt"
	"os"
	"runtime"

	"repro/internal/core"
	"repro/internal/faultinject"
	"repro/internal/harness"
	"repro/internal/parallel"
	"repro/internal/trace"
)

// campaignReport is the -json document. Like the text report it holds no
// worker count and no wall-clock time, so it is byte-identical at any -j.
type campaignReport struct {
	Name              string                     `json:"name"`
	TrialsPerScenario int                        `json:"trials_per_scenario"` // 0 = the paper's counts
	Cells             int                        `json:"cells"`
	Scenarios         []*faultinject.CampaignRow `json:"scenarios"`
	AllOK             bool                       `json:"all_ok"`
	Sweep             *faultinject.SweepReport   `json:"sweep,omitempty"`
	Audit             *audit                     `json:"audit"`
}

func main() {
	var (
		trials    = flag.Int("trials", 0, "trials per scenario (0 = the default campaign counts)")
		cells     = flag.Int("cells", 4, "hive cell count for the campaign (4 = the paper's machine)")
		scenario  = flag.Int("scenario", -1, fmt.Sprintf("run only this scenario (0-%d) and print its forensic report", faultinject.NumScenarios-1))
		trial     = flag.Int("trial", 0, "trial index for -scenario")
		verbose   = flag.Bool("v", false, "per-scenario detail")
		topN      = flag.Int("top", 3, "with -scenario: top span names per subsystem in the forensic profiles")
		jobs      = flag.Int("j", runtime.GOMAXPROCS(0), "parallel trial workers (1 = sequential)")
		jsonOut   = flag.Bool("json", false, "emit a machine-readable campaign and audit report instead of the tables")
		outPath   = flag.String("o", "", "write the -json report to a file instead of stdout")
		tracePath = flag.String("trace", "", "with -scenario: write the trial's Chrome trace-event JSON here")
		sweep     = flag.Bool("sweep", false, "run the seeded (scenario × trial) grid sweep with failure minimization")
		points    = flag.Int("points", 220, "with -sweep: minimum grid points to cover")
	)
	flag.Parse()

	set := map[string]bool{}
	flag.Visit(func(f *flag.Flag) { set[f.Name] = true })
	msg := flagConflict(set)
	if msg == "" {
		msg = valueError(*cells, *scenario, *trial, *trials, *points)
	}
	if msg != "" {
		fmt.Fprintln(os.Stderr, "faultdrill:", msg)
		os.Exit(2)
	}
	parallel.SetDefaultWorkers(*jobs)

	// Every trial is audited as it runs: its events feed the forensic fold
	// through the trace's sink, so the audit sees every event at the
	// default ring capacity.
	opts := faultinject.TrialOpts{Cells: *cells, Audit: true}

	if *scenario >= 0 {
		if *tracePath != "" {
			// The Chrome trace is rendered from the events the rings keep.
			opts.KeepEvents, opts.TraceCap = true, 1<<16
		}
		os.Exit(runSingle(faultinject.Scenario(*scenario), *trial, opts, *tracePath, *topN))
	}

	per := *trials
	if *sweep {
		per = max((*points+faultinject.NumScenarios-1)/faultinject.NumScenarios, 1)
	}
	scens := faultinject.AllScenarios()
	// Each trial is audited inside its job, so only its verdict outlives
	// the job.
	runs := faultinject.RunTrials(parallel.Default(), scens, func(s faultinject.Scenario) int {
		if per > 0 {
			return per
		}
		return s.DefaultTests()
	}, func(s faultinject.Scenario, trial int) auditedTrial {
		return runAudited(s, trial, opts)
	})

	results := make([][]*faultinject.TrialResult, len(scens))
	rows := make([]*faultinject.CampaignRow, len(scens))
	allOK := true
	for i, s := range scens {
		for _, r := range runs[i] {
			results[i] = append(results[i], r.res)
		}
		rows[i] = faultinject.Aggregate(s, results[i])
		allOK = allOK && rows[i].AllOK
		failed := 0
		for trial, r := range results[i] {
			if !r.OK() {
				fmt.Fprintf(os.Stderr, "FAILURE %s: %s\n", s, rows[i].Failures[failed])
				fmt.Fprintln(os.Stderr, faultinject.Replay(s, trial, *cells))
				failed++
			}
		}
	}
	var sw *faultinject.SweepReport
	if *sweep {
		// The grid's trials ran above; the minimizer re-runs only failing
		// grid points, under candidate seeds.
		sw = faultinject.Sweep(results, faultinject.TrialOpts{Cells: *cells})
	}
	au := foldAudit(scens, runs)
	pass := allOK && au.AllAgree

	if *jsonOut {
		report := &campaignReport{
			Name:              "faultdrill",
			TrialsPerScenario: per,
			Cells:             *cells,
			Scenarios:         rows,
			AllOK:             allOK,
			Sweep:             sw,
			Audit:             au,
		}
		enc, err := json.MarshalIndent(report, "", "  ")
		if err != nil {
			fmt.Fprintln(os.Stderr, "faultdrill: marshal report:", err)
			os.Exit(1)
		}
		enc = append(enc, '\n')
		if *outPath != "" {
			if err := os.WriteFile(*outPath, enc, 0o644); err != nil {
				fmt.Fprintln(os.Stderr, "faultdrill: write report:", err)
				os.Exit(1)
			}
			fmt.Printf("wrote %s (%d scenarios)\n", *outPath, len(report.Scenarios))
		} else {
			os.Stdout.Write(enc)
		}
		if !pass {
			os.Exit(1)
		}
		return
	}

	// Text report. Deliberately free of worker counts and wall-clock so it
	// is byte-identical across -j.
	if *verbose {
		for _, row := range rows {
			fmt.Printf("%s: %d tests, contained=%v, detect avg %.1f / p99 %.1f / max %.1f ms\n",
				row.Scenario, row.Tests, row.AllOK, row.AvgDetect, row.P99Detect, row.MaxDetect)
		}
	}
	if sw != nil {
		fmt.Print(sw.Format())
	} else {
		fmt.Println(harness.FormatTable74(rows))
		if allOK {
			fmt.Println("The effects of the fault were contained to the injected cell in every test.")
		} else {
			fmt.Println("CONTAINMENT FAILURES OCCURRED — see above.")
		}
	}
	fmt.Println()
	au.print()
	if !pass {
		os.Exit(1)
	}
}

// flagRules say which flags a mode reads: flag is read only alongside
// other when needs is set, and never alongside it otherwise. A single
// trial (-scenario) reads -trial, -top and -trace and none of the
// campaign's flags; -points sets the sweep's grid in place of -trials.
var flagRules = []struct {
	flag, other string
	needs       bool
}{
	{"trial", "scenario", true},
	{"top", "scenario", true},
	{"trace", "scenario", true},
	{"trials", "scenario", false},
	{"v", "scenario", false},
	{"json", "scenario", false},
	{"o", "scenario", false},
	{"sweep", "scenario", false},
	{"points", "scenario", false},
	{"points", "sweep", true},
	{"trials", "sweep", false},
	{"o", "json", true},
}

// flagConflict names the first flag in set (the flags given on the command
// line) that the mode they choose does not read, or returns "" when there
// is none.
func flagConflict(set map[string]bool) string {
	for _, r := range flagRules {
		switch {
		case !set[r.flag] || set[r.other] == r.needs:
		case r.needs:
			return fmt.Sprintf("-%s needs -%s", r.flag, r.other)
		default:
			return fmt.Sprintf("-%s is not read with -%s", r.flag, r.other)
		}
	}
	return ""
}

// valueError names the first flag whose value no mode accepts, or returns
// "" when there is none. RunTrialOpts panics on a negative trial index.
func valueError(cells, scenario, trial, trials, points int) string {
	switch {
	case cells < 4 || cells > core.MaxCells:
		return fmt.Sprintf("-cells %d: campaign needs 4..%d cells", cells, core.MaxCells)
	case scenario >= faultinject.NumScenarios:
		return fmt.Sprintf("-scenario %d: scenarios are 0..%d", scenario, faultinject.NumScenarios-1)
	case trial < 0:
		return fmt.Sprintf("-trial %d: trials are 0 or more", trial)
	case trials < 0:
		return fmt.Sprintf("-trials %d: trials per scenario are 0 (the default counts) or more", trials)
	case points < 1:
		return fmt.Sprintf("-points %d: the sweep needs at least 1 grid point", points)
	}
	return ""
}

// runSingle runs one trial and prints the harness's verdict, the trial's
// full forensic report and the cross-check of the two, optionally writing
// its Chrome trace. Exit status 1 on a trace write error, a disagreement,
// or a trial the harness fails.
func runSingle(s faultinject.Scenario, trial int, opts faultinject.TrialOpts, tracePath string, topN int) int {
	tr := faultinject.RunTrialOpts(s, trial, opts)
	fmt.Printf("%s trial %d (seed %d, target cell %d):\n", s, trial, tr.Seed, tr.TargetCell)
	fmt.Printf("  injected at %v\n", tr.InjectedAt)
	fmt.Printf("  detection %.1f ms (to last cell in recovery)\n", tr.DetectMs)
	fmt.Printf("  recovery %.1f ms\n", tr.RecoveryMs)
	if tracePath != "" {
		var buf bytes.Buffer
		err := trace.ExportChrome(&buf, tr.Cells, tr.Events)
		if err == nil {
			err = os.WriteFile(tracePath, buf.Bytes(), 0o644)
		}
		if err != nil {
			fmt.Fprintln(os.Stderr, "faultdrill: write trace:", err)
			return 1
		}
		fmt.Printf("  trace written to %s (load in ui.perfetto.dev)\n", tracePath)
	}

	rep := tr.Report
	fmt.Println()
	fmt.Print(rep.Format(topN))
	fmt.Println()
	fmt.Printf("harness: detected=%v contained=%v integrity=%v check=%v state=%v\n",
		tr.Detected, tr.Contained, tr.IntegrityOK, tr.CorrectRunOK, tr.StateOK)
	if tr.Notes != "" {
		fmt.Printf("harness notes: %s\n", tr.Notes)
	}
	if !auditTrial(trial, tr).Agree {
		fmt.Printf("DISAGREEMENT: trace says detected=%v contained=%v\n",
			rep.Audit.Detected, rep.Audit.Contained)
		fmt.Println(faultinject.Replay(s, trial, tr.Cells))
		return 1
	}
	fmt.Println("trace and harness agree.")
	if !tr.OK() {
		fmt.Fprintf(os.Stderr, "FAILURE %s trial %d (seed %d): %s\n", s, trial, tr.Seed, tr.Notes)
		fmt.Fprintln(os.Stderr, faultinject.Replay(s, trial, tr.Cells))
		return 1
	}
	return 0
}
