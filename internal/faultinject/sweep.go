// sweep.go — the seeded campaign sweep: fold the full
// (scenario × inject-time × target) grid and minimize any failing trial to
// its smallest reproducing seed. A grid point is one (scenario, trial)
// pair; the trial index deterministically encodes the target cell
// (1 + trial%2 for most scenarios) and, through the derived seed, the
// injection time, so sweeping trials 0..n-1 covers the grid.
//
// Every trial is hermetic (its own engine, seeded from the grid point) and
// the results are folded in grid order, so a sweep's report — including
// its witness hash — is byte-identical across runs and worker counts.
package faultinject

import (
	"fmt"
	"hash/fnv"
)

// minimizeAttempts bounds the candidate seeds tried when minimizing a
// failure.
const minimizeAttempts = 8

// SweepFailure is one failing grid point, minimized.
type SweepFailure struct {
	Scenario Scenario
	Trial    int
	Cells    int
	Seed     int64
	Notes    string
	// MinSeed is the smallest seed found that reproduces the failure;
	// equal to Seed when no smaller one reproduces it.
	MinSeed   int64
	Minimized bool // a smaller reproducing seed was found
	MinNotes  string
}

// SweepRow summarizes one scenario's slice of the grid.
type SweepRow struct {
	Scenario Scenario
	Name     string
	Trials   int
	OK       int
}

// SweepReport is the sweep's deterministic outcome.
type SweepReport struct {
	Points   int
	OKCount  int
	Rows     []*SweepRow
	Failures []*SweepFailure
	// Hash is an FNV-1a witness over every grid point's outcome in grid
	// order; two same-configuration sweeps must agree on it exactly.
	Hash uint64
}

// AllOK reports a clean sweep.
func (r *SweepReport) AllOK() bool { return len(r.Failures) == 0 }

// Sweep folds a grid the caller has run: trials[s] holds trials 0..n-1 of
// scenario s (AllScenarios order, RunTrials' shape), so every grid point
// runs once and whoever else reads the results sees the same trials.
// Failures are minimized by re-running their grid point with opts and
// candidate seeds. Folding happens in grid order, so the report is
// byte-identical at any worker count.
func Sweep(trials [][]*TrialResult, opts TrialOpts) *SweepReport {
	rep := &SweepReport{}
	w := fnv.New64a()
	for si, results := range trials {
		s := Scenario(si)
		row := &SweepRow{Scenario: s, Name: s.String(), Trials: len(results)}
		rep.Rows = append(rep.Rows, row)
		rep.Points += len(results)
		for trial, tr := range results {
			fmt.Fprintf(w, "%d:%d:%d:%v:%v:%v:%v:%v:%.6f:%.6f:%s\n",
				int(tr.Scenario), trial, tr.Seed,
				tr.Detected, tr.Contained, tr.IntegrityOK, tr.CorrectRunOK, tr.StateOK,
				tr.DetectMs, tr.RecoveryMs, tr.Notes)
			if tr.OK() {
				rep.OKCount++
				row.OK++
				continue
			}
			rep.Failures = append(rep.Failures, minimize(tr, trial, opts))
		}
	}
	rep.Hash = w.Sum64()
	return rep
}

// minimize searches ascending candidate seeds for the smallest one that
// still reproduces the failure at the same grid point, with the sweep's
// opts.
func minimize(tr *TrialResult, trial int, opts TrialOpts) *SweepFailure {
	f := &SweepFailure{
		Scenario: tr.Scenario,
		Trial:    trial,
		Cells:    tr.Cells,
		Seed:     tr.Seed,
		Notes:    tr.Notes,
		MinSeed:  tr.Seed,
	}
	for cand := int64(1); cand <= minimizeAttempts && cand < tr.Seed; cand++ {
		opts.Seed = cand
		if rt := RunTrialOpts(tr.Scenario, trial, opts); !rt.OK() {
			f.MinSeed = cand
			f.Minimized = true
			f.MinNotes = rt.Notes
			break
		}
	}
	return f
}

// Replay is the line that names the faultdrill command re-running trial
// trial of scenario s on a hive of cells cells. A trial is a pure function
// of the three, so the command replays it exactly; a grid point's seed is
// derived from them too. A minimized seed is not replayable this way.
func Replay(s Scenario, trial, cells int) string {
	cellsFlag := ""
	if cells != 4 {
		cellsFlag = fmt.Sprintf(" -cells %d", cells)
	}
	return fmt.Sprintf("replay: faultdrill%s -scenario %d -trial %d", cellsFlag, int(s), trial)
}

// Format renders the report as a deterministic text block (no wall-clock
// content), suitable for byte-comparison across same-seed runs.
func (r *SweepReport) Format() string {
	out := fmt.Sprintf("sweep: %d grid points across %d scenarios\n", r.Points, len(r.Rows))
	for _, row := range r.Rows {
		out += fmt.Sprintf("  %-48s %d/%d contained\n", row.Name, row.OK, row.Trials)
	}
	for _, f := range r.Failures {
		out += fmt.Sprintf("  FAIL %s trial %d seed %d minseed %d minimized=%v notes=%s\n",
			f.Scenario, f.Trial, f.Seed, f.MinSeed, f.Minimized, f.Notes)
		out += "    " + Replay(f.Scenario, f.Trial, f.Cells) + "\n"
	}
	out += fmt.Sprintf("sweep hash: %016x\n", r.Hash)
	if r.AllOK() {
		out += fmt.Sprintf("PASS: %d/%d grid points contained; 0 unminimized failures\n", r.OKCount, r.Points)
	} else {
		out += fmt.Sprintf("FAIL: %d/%d grid points contained; %d failures (all minimized)\n",
			r.OKCount, r.Points, len(r.Failures))
	}
	return out
}
