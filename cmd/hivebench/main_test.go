package main

import (
	"bytes"
	"encoding/json"
	"os"
	"path/filepath"
	"strings"
	"testing"
)

// TestReportMatchesBaseline runs, one at a time with -quick -json, every
// experiment that -quick leaves unchanged and that finishes in well under
// a second, and requires each metric to equal the committed
// BENCH_hive.json's exactly: the same keys, the same values (t52's
// include its ten breakdown rows). The longer experiments are checked by
// `make bench-gate`.
func TestReportMatchesBaseline(t *testing.T) {
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
