// Command faultdrill runs the fault-injection campaign: the paper's §7.4
// rows — 49 fail-stop hardware faults and 20 kernel data corruptions
// (Table 7.4) — plus the v2 adversarial extensions that attack the recovery
// substrate itself (message drop/duplicate/corrupt, double faults,
// coordinator death mid-round, fault storms). It reports containment and
// detection latency per scenario.
//
// Usage:
//
//	faultdrill            # the full campaign, paper rows + extensions
//	faultdrill -trials 3  # 3 trials per scenario
//	faultdrill -cells 16  # campaign on a 16-cell hive (default 4, the paper's)
//	faultdrill -j 8       # fan trials across 8 workers (same results at any -j)
//	faultdrill -json -o drill.json       # machine-readable campaign report
//	faultdrill -scenario 4 -trial 2 -v   # one specific trial, verbose
//	faultdrill -scenario 2 -trial 0 -trace out.json  # Perfetto trace of one trial
//	faultdrill -sweep                    # seeded grid sweep with failure minimization
//	faultdrill -sweep -points 220        # at least 220 (scenario × trial) grid points
package main

import (
	"bytes"
	"encoding/json"
	"flag"
	"fmt"
	"os"
	"runtime"
	"time"

	"repro/internal/core"
	"repro/internal/faultinject"
	"repro/internal/harness"
	"repro/internal/parallel"
	"repro/internal/trace"
)

// campaignReport is the -json document, shaped like hivebench's report so
// one tool chain can consume both.
type campaignReport struct {
	Name              string                     `json:"name"`
	GoVersion         string                     `json:"go_version"`
	GOMAXPROCS        int                        `json:"gomaxprocs"`
	Jobs              int                        `json:"jobs"`
	TrialsPerScenario int                        `json:"trials_per_scenario"` // 0 = the paper's counts
	Cells             int                        `json:"cells"`
	Scenarios         []*faultinject.CampaignRow `json:"scenarios"`
	AllOK             bool                       `json:"all_ok"`
	TotalWallMs       float64                    `json:"total_wall_ms"`
}

func main() {
	var (
		trials    = flag.Int("trials", 0, "trials per scenario (0 = the default campaign counts)")
		cells     = flag.Int("cells", 4, "hive cell count for the campaign (4 = the paper's machine)")
		scenario  = flag.Int("scenario", -1, fmt.Sprintf("run only this scenario (0-%d)", faultinject.NumScenarios-1))
		trial     = flag.Int("trial", 0, "trial index for -scenario")
		verbose   = flag.Bool("v", false, "per-trial detail")
		jobs      = flag.Int("j", runtime.GOMAXPROCS(0), "parallel trial workers (1 = sequential)")
		jsonOut   = flag.Bool("json", false, "emit a machine-readable campaign report instead of the table")
		outPath   = flag.String("o", "", "write the -json report to a file instead of stdout")
		tracePath = flag.String("trace", "", "with -scenario: write the trial's Chrome trace-event JSON here")
		sweep     = flag.Bool("sweep", false, "run the seeded (scenario × trial) grid sweep with failure minimization")
		points    = flag.Int("points", 220, "with -sweep: minimum grid points to cover")
	)
	flag.Parse()

	parallel.SetDefaultWorkers(*jobs)

	if *cells < 4 || *cells > core.MaxCells {
		fmt.Fprintf(os.Stderr, "faultdrill: -cells %d: campaign needs 4..%d cells\n", *cells, core.MaxCells)
		os.Exit(2)
	}
	if *scenario >= faultinject.NumScenarios {
		fmt.Fprintf(os.Stderr, "faultdrill: -scenario %d: scenarios are 0..%d\n", *scenario, faultinject.NumScenarios-1)
		os.Exit(2)
	}
	if *trial < 0 {
		fmt.Fprintf(os.Stderr, "faultdrill: -trial %d: trials are 0 or more\n", *trial)
		os.Exit(2)
	}
	opts := faultinject.TrialOpts{Cells: *cells}

	if *sweep {
		per := (*points + faultinject.NumScenarios - 1) / faultinject.NumScenarios
		rep := faultinject.Sweep(parallel.Default(), per, opts)
		fmt.Print(rep.Format())
		if !rep.AllOK() {
			os.Exit(1)
		}
		return
	}

	if *scenario >= 0 {
		s := faultinject.Scenario(*scenario)
		if *tracePath != "" {
			opts.KeepEvents = true
			opts.TraceCap = 1 << 16
		}
		tr := faultinject.RunTrialOpts(s, *trial, opts)
		fmt.Printf("%s trial %d:\n", s, *trial)
		fmt.Printf("  injected at %v into cell %d\n", tr.InjectedAt, tr.TargetCell)
		fmt.Printf("  detected=%v (%.1f ms to last cell in recovery)\n", tr.Detected, tr.DetectMs)
		fmt.Printf("  recovery %.1f ms\n", tr.RecoveryMs)
		fmt.Printf("  contained=%v integrity=%v correctness-check=%v\n",
			tr.Contained, tr.IntegrityOK, tr.CorrectRunOK)
		if tr.Notes != "" {
			fmt.Printf("  notes: %s\n", tr.Notes)
		}
		if *tracePath != "" {
			var buf bytes.Buffer
			err := trace.ExportChrome(&buf, tr.Cells, tr.Events)
			if err == nil {
				err = os.WriteFile(*tracePath, buf.Bytes(), 0o644)
			}
			if err != nil {
				fmt.Fprintln(os.Stderr, "faultdrill: write trace:", err)
				os.Exit(1)
			}
			fmt.Printf("  trace written to %s (load in ui.perfetto.dev)\n", *tracePath)
		}
		if !tr.OK() {
			os.Exit(1)
		}
		return
	}

	start := time.Now()
	rows := faultinject.RunCampaign(parallel.Default(), faultinject.AllScenarios(), func(s faultinject.Scenario) int {
		if *trials > 0 {
			return *trials
		}
		return s.DefaultTests()
	}, opts)
	allOK := true
	for _, row := range rows {
		if !row.AllOK {
			allOK = false
			for _, f := range row.Failures {
				fmt.Fprintf(os.Stderr, "FAILURE %s: %s\n", row.Scenario, f)
			}
		}
		if *verbose && !*jsonOut {
			fmt.Printf("%s: %d tests, contained=%v, detect avg %.1f / p99 %.1f / max %.1f ms\n",
				row.Scenario, row.Tests, row.AllOK, row.AvgDetect, row.P99Detect, row.MaxDetect)
		}
	}

	if *jsonOut {
		report := &campaignReport{
			Name:              "faultdrill",
			GoVersion:         runtime.Version(),
			GOMAXPROCS:        runtime.GOMAXPROCS(0),
			Jobs:              parallel.Default().Workers(),
			TrialsPerScenario: *trials,
			Cells:             *cells,
			Scenarios:         rows,
			AllOK:             allOK,
			TotalWallMs:       float64(time.Since(start).Microseconds()) / 1000,
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
			fmt.Printf("wrote %s (%d scenarios, %.0f ms total)\n",
				*outPath, len(report.Scenarios), report.TotalWallMs)
		} else {
			os.Stdout.Write(enc)
		}
		if !allOK {
			os.Exit(1)
		}
		return
	}

	fmt.Println(harness.FormatTable74(rows))
	if allOK {
		fmt.Println("The effects of the fault were contained to the injected cell in every test.")
	} else {
		fmt.Println("CONTAINMENT FAILURES OCCURRED — see above.")
		os.Exit(1)
	}
}
