package main

import (
	"flag"
	"fmt"
	"io"
	"strings"
	"testing"

	"repro/internal/faultinject"
)

// TestFlagConflict checks the rule that every flag given is one the chosen
// mode reads: each invocation below is one the docs and CI make, or one
// that used to run and silently ignore a flag.
func TestFlagConflict(t *testing.T) {
	cases := []struct {
		args string // the flags given, space-separated
		want string // "" when the invocation is accepted
	}{
		{"", ""},
		{"trials j", ""},
		{"cells json o", ""},
		{"trials j json o v", ""},
		{"scenario trial", ""},
		{"scenario trial top", ""},
		{"scenario trial trace cells", ""},

		{"trial", "-trial needs -scenario"},
		{"top", "-top needs -scenario"},
		{"trials trace", "-trace needs -scenario"},
		{"scenario trial trials", "-trials is not read with -scenario"},
		{"scenario v", "-v is not read with -scenario"},
		{"scenario trial json o", "-json is not read with -scenario"},
		{"scenario o", "-o is not read with -scenario"},
		{"o", "-o needs -json"},
		{"trials o", "-o needs -json"},
	}
	for _, c := range cases {
		set := map[string]bool{}
		for _, f := range strings.Fields(c.args) {
			set[f] = true
		}
		if got := flagConflict(set); got != c.want {
			t.Errorf("flags %q: flagConflict = %q, want %q", c.args, got, c.want)
		}
	}
}

// TestValueError checks the values every mode refuses: each used to run
// something other than what was asked, or to panic.
func TestValueError(t *testing.T) {
	cases := []struct {
		cells, scenario, trial, trials int
		want                           string
	}{
		{4, -1, 0, 0, ""},
		{16, 13, 11, 3, ""},
		{3, -1, 0, 0, "-cells 3: campaign needs 4..64 cells"},
		{65, -1, 0, 0, "-cells 65: campaign needs 4..64 cells"},
		{4, faultinject.NumScenarios, 0, 0, fmt.Sprintf("-scenario %d: scenarios are 0..%d", faultinject.NumScenarios, faultinject.NumScenarios-1)},
		{4, 0, -1, 0, "-trial -1: trials are 0 or more"},
		{4, -1, 0, -1, "-trials -1: trials per scenario are 0 (the default counts) or more"},
	}
	for _, c := range cases {
		if got := valueError(c.cells, c.scenario, c.trial, c.trials); got != c.want {
			t.Errorf("valueError(%d, %d, %d, %d) = %q, want %q",
				c.cells, c.scenario, c.trial, c.trials, got, c.want)
		}
	}
}

// TestReplayLine checks the line printed after a failing trial: its flags
// must be accepted together and select the same scenario, trial and hive
// size, with -cells only off the paper's 4.
func TestReplayLine(t *testing.T) {
	cases := []struct {
		s            faultinject.Scenario
		trial, cells int
		want         string
	}{
		{faultinject.SurgeFault, 5, 4, "replay: faultdrill -scenario 14 -trial 5"},
		{faultinject.CorruptAddrMap, 3, 16, "replay: faultdrill -cells 16 -scenario 3 -trial 3"},
		{faultinject.NodeFailProcCreate, 0, 4, "replay: faultdrill -scenario 0 -trial 0"},
		{faultinject.RollingReboot, 11, 8, "replay: faultdrill -cells 8 -scenario 13 -trial 11"},
	}
	for _, c := range cases {
		line := faultinject.Replay(c.s, c.trial, c.cells)
		if line != c.want {
			t.Errorf("Replay(%d, %d, %d) = %q, want %q", c.s, c.trial, c.cells, line, c.want)
		}
		args, ok := strings.CutPrefix(line, "replay: faultdrill ")
		if !ok {
			t.Errorf("%q does not name faultdrill", line)
			continue
		}
		fs := flag.NewFlagSet("faultdrill", flag.ContinueOnError)
		fs.SetOutput(io.Discard)
		cells := fs.Int("cells", 4, "")
		scenario := fs.Int("scenario", -1, "")
		trial := fs.Int("trial", 0, "")
		if err := fs.Parse(strings.Fields(args)); err != nil || fs.NArg() != 0 {
			t.Errorf("%q: parse: %v, %d stray arguments", line, err, fs.NArg())
			continue
		}
		set := map[string]bool{}
		fs.Visit(func(f *flag.Flag) { set[f.Name] = true })
		if msg := flagConflict(set); msg != "" {
			t.Errorf("%q: %s", line, msg)
		}
		if *scenario != int(c.s) || *trial != c.trial || *cells != c.cells {
			t.Errorf("%q selects scenario %d trial %d on %d cells, want %d, %d, %d",
				line, *scenario, *trial, *cells, c.s, c.trial, c.cells)
		}
	}
}
