package main

import (
	"bytes"
	"encoding/json"
	"os"
	"path/filepath"
	"sort"
	"strings"
	"testing"

	"repro/internal/faultinject"
	"repro/internal/harness"
	"repro/internal/stats"
)

// baseline returns the committed BENCH_hive.json's metrics by experiment
// id.
func baseline(t *testing.T) map[string]map[string]float64 {
	t.Helper()
	raw, err := os.ReadFile("../../BENCH_hive.json")
	if err != nil {
		t.Fatal(err)
	}
	var base benchReport
	if err := json.Unmarshal(raw, &base); err != nil {
		t.Fatal(err)
	}
	want := map[string]map[string]float64{}
	for _, e := range base.Experiments {
		want[e.ID] = e.Metrics
	}
	return want
}

// TestReportMatchesBaseline runs, one at a time with -quick -json, every
// experiment that -quick leaves unchanged and that finishes in well under
// a second, and requires each metric to equal the committed
// BENCH_hive.json's exactly: the same keys, the same values (t52's
// include its ten breakdown rows). The longer experiments are checked by
// `make bench-gate`.
func TestReportMatchesBaseline(t *testing.T) {
	want := baseline(t)
	ids := []string{"careful41", "rpc6", "t52", "t73", "t81", "scalability",
		"cowlookup", "sipsipi", "fwgran", "ccnow", "agreement", "detection"}
	for _, id := range ids {
		var out bytes.Buffer
		if code := run([]string{"-quick", "-json", "-only", id}, &out); code != 0 {
			t.Fatalf("-only %s: exit %d", id, code)
		}
		var rep benchReport
		if err := json.Unmarshal(out.Bytes(), &rep); err != nil {
			t.Fatalf("-only %s: %v", id, err)
		}
		if len(rep.Experiments) != 1 || rep.Experiments[0].ID != id {
			t.Fatalf("-only %s ran %+v", id, rep.Experiments)
		}
		got := rep.Experiments[0].Metrics
		if len(want[id]) == 0 || len(got) != len(want[id]) {
			t.Errorf("%s: %d metrics, baseline has %d", id, len(got), len(want[id]))
		}
		for name, v := range want[id] {
			if g, ok := got[name]; !ok || g != v {
				t.Errorf("%s.%s = %v (present %v), baseline %v", id, name, g, ok, v)
			}
		}
	}
}

// TestSlowTablesRecordBaselineKeys feeds rows shaped like a -quick run to
// the tables of the four experiments too slow for TestReportMatchesBaseline
// (t74, reboot, frontend and scale) and requires each table to record
// exactly the metric names BENCH_hive.json holds for its experiment, so a
// cell added, dropped or renamed fails here and not only in `make
// bench-gate`. A reboot row that never restored (the bounded crash loop)
// must print "—" in both restore cells and record 0 for them.
func TestSlowTablesRecordBaselineKeys(t *testing.T) {
	want := baseline(t)
	campaign := func(scens ...faultinject.Scenario) []*faultinject.CampaignRow {
		rows := make([]*faultinject.CampaignRow, len(scens))
		for i, s := range scens {
			rows[i] = &faultinject.CampaignRow{Scenario: s, Name: s.String(), Tests: 2, AllOK: true,
				AvgDetect: 10, MaxDetect: 20, AvgRecov: 40, AvgRestore: 120, P99Restore: 130, AvgLoopP99: 12}
		}
		return rows
	}
	reboot := campaign(faultinject.FaultDuringReintegration, faultinject.CrashLoop, faultinject.RollingReboot)
	reboot[1].AvgRestore, reboot[1].P99Restore = 0, 0
	var points []harness.FrontendPoint
	for _, m := range []float64{0.5, 1, 2} {
		points = append(points, harness.FrontendPoint{Multiplier: m})
	}
	cases := []struct {
		id    string
		keys  int
		table func(c *runCtx)
	}{
		{"t74", 26, func(c *runCtx) { t74Table(c, campaign(0, 1, 2, 3, 4)) }},
		{"reboot", 16, func(c *runCtx) { rebootTable(c, reboot) }},
		{"frontend", 32, func(c *runCtx) {
			frontendTables(c, &harness.FrontendReport{Points: points, Fault: campaign(faultinject.SurgeFault)[0]})
		}},
		{"scale", 28, func(c *runCtx) { scaleTable(c, []harness.ScaleRow{{Cells: 8}, {Cells: 16}, {Cells: 32}}) }},
	}
	for _, tc := range cases {
		var out bytes.Buffer
		c := &runCtx{Record: stats.Record{}, out: &out}
		tc.table(c)
		got, base := metricNames(c.Record), metricNames(want[tc.id])
		if len(got) != tc.keys || strings.Join(got, " ") != strings.Join(base, " ") {
			t.Errorf("%s records %d metrics, want %d as in BENCH_hive.json:\n got %v\nwant %v",
				tc.id, len(got), tc.keys, got, base)
		}
		if tc.id != "reboot" {
			continue
		}
		if c.Record["s12_avg_restore_ms"] != 0 || c.Record["s12_p99_restore_ms"] != 0 {
			t.Errorf("crash loop restore recorded %v", c.Record)
		}
		row := ""
		for _, line := range strings.Split(out.String(), "\n") {
			if strings.HasPrefix(line, faultinject.CrashLoop.String()) {
				row = line
			}
		}
		if strings.Count(row, "—") != 2 {
			t.Errorf("crash loop row %q: want — in both restore cells", row)
		}
	}
}

// metricNames returns a record's metric names, sorted.
func metricNames(m map[string]float64) []string {
	names := make([]string, 0, len(m))
	for name := range m {
		names = append(names, name)
	}
	sort.Strings(names)
	return names
}

// TestRejectsIgnoredInput checks that input the command would otherwise
// ignore exits 2 with a message and runs nothing: an unknown -only id, and
// -o without -json.
func TestRejectsIgnoredInput(t *testing.T) {
	path := filepath.Join(t.TempDir(), "r.json")
	for _, args := range []string{
		"-only nosuch",
		"-json -only nosuch",
		"-o " + path,
		"-only careful41 -o " + path,
		"-nosuchflag",
	} {
		var out bytes.Buffer
		if code := run(strings.Fields(args), &out); code != 2 {
			t.Errorf("%q: exit %d, want 2", args, code)
		}
		if out.Len() != 0 {
			t.Errorf("%q printed %q", args, out.String())
		}
	}
	if _, err := os.Stat(path); !os.IsNotExist(err) {
		t.Errorf("-o without -json wrote %s", path)
	}
}
