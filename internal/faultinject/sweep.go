// sweep.go — the seeded campaign sweep: enumerate the full
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

	"repro/internal/parallel"
)

// SweepOpts configures a campaign sweep.
type SweepOpts struct {
	// Scenarios to sweep; nil = every scenario, paper rows and extensions.
	Scenarios []Scenario
	// TrialsPer is the grid depth per scenario (minimum 1).
	TrialsPer int
	// Runner fans trials out; nil = the process-wide default pool.
	Runner *parallel.Runner
	// MinimizeAttempts bounds the candidate seeds tried when minimizing
	// a failure (default 8).
	MinimizeAttempts int
}

// SweepFailure is one failing grid point, minimized.
type SweepFailure struct {
	Scenario Scenario
	Trial    int
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

// Sweep runs the grid and minimizes failures. Trials fan out across the
// runner; folding happens in grid order, so the report is byte-identical
// at any worker count.
func Sweep(opts SweepOpts) *SweepReport {
	scen := opts.Scenarios
	if scen == nil {
		scen = AllScenarios()
	}
	per := opts.TrialsPer
	if per < 1 {
		per = 1
	}
	r := opts.Runner
	if r == nil {
		r = parallel.Default()
	}
	n := len(scen) * per
	trials := parallel.Map(r, n, func(i int) *TrialResult {
		return RunTrial(scen[i/per], i%per)
	})

	rep := &SweepReport{Points: n}
	for _, s := range scen {
		rep.Rows = append(rep.Rows, &SweepRow{Scenario: s, Name: s.String(), Trials: per})
	}
	w := fnv.New64a()
	for i, tr := range trials {
		fmt.Fprintf(w, "%d:%d:%d:%v:%v:%v:%v:%v:%.6f:%.6f:%s\n",
			int(tr.Scenario), i%per, tr.Seed,
			tr.Detected, tr.Contained, tr.IntegrityOK, tr.CorrectRunOK, tr.StateOK,
			tr.DetectMs, tr.RecoveryMs, tr.Notes)
		if tr.OK() {
			rep.OKCount++
			rep.Rows[i/per].OK++
			continue
		}
		rep.Failures = append(rep.Failures, minimize(tr, i%per, opts.MinimizeAttempts))
	}
	rep.Hash = w.Sum64()
	return rep
}

// minimize searches ascending candidate seeds for the smallest one that
// still reproduces the failure at the same grid point.
func minimize(tr *TrialResult, trial, attempts int) *SweepFailure {
	if attempts <= 0 {
		attempts = 8
	}
	f := &SweepFailure{
		Scenario: tr.Scenario,
		Trial:    trial,
		Seed:     tr.Seed,
		Notes:    tr.Notes,
		MinSeed:  tr.Seed,
	}
	for cand := int64(1); cand <= int64(attempts) && cand < tr.Seed; cand++ {
		if rt := RunTrialOpts(tr.Scenario, trial, TrialOpts{Seed: cand}); !rt.OK() {
			f.MinSeed = cand
			f.Minimized = true
			f.MinNotes = rt.Notes
			break
		}
	}
	return f
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
