package faultinject

import (
	"bytes"
	"encoding/json"
	"fmt"
	"hash/fnv"
	"strings"
	"testing"

	"repro/internal/parallel"
	"repro/internal/trace"
)

// TestFullCampaign runs the complete Table 7.4 campaign: 49 hardware fault
// trials and 20 kernel-corruption trials. Containment must hold in every
// one, as it did in the paper.
func TestFullCampaign(t *testing.T) {
	if testing.Short() {
		t.Skip("full campaign is long")
	}
	scenarios := []Scenario{NodeFailProcCreate, NodeFailCOWSearch, NodeFailRandom, CorruptAddrMap, CorruptCOWTree}
	hardware := map[Scenario]bool{NodeFailProcCreate: true, NodeFailCOWSearch: true, NodeFailRandom: true}
	hw, sw := 0, 0
	rows := RunCampaign(parallel.Default(), scenarios, Scenario.DefaultTests, TrialOpts{})
	for _, row := range rows {
		s := row.Scenario
		fmt.Printf("%-50s tests=%2d allOK=%v avgDetect=%.1fms maxDetect=%.1fms avgRecov=%.1fms\n",
			s, row.Tests, row.AllOK, row.AvgDetect, row.MaxDetect, row.AvgRecov)
		if !row.AllOK {
			for _, f := range row.Failures {
				t.Errorf("%s: %s", s, f)
			}
		}
		if hardware[s] {
			hw += row.Tests
		} else {
			sw += row.Tests
		}
	}
	if hw != 49 || sw != 20 {
		t.Fatalf("campaign size hw=%d sw=%d, want 49/20", hw, sw)
	}
}

// reducedTrial is what a job of TestCampaignIdenticalAcrossWorkers keeps
// of its trial, so the grid holds no event stream: the result without its
// events and report, a digest of the events, and for NodeFailRandom a
// digest of its Chrome export and the structure that export lacks.
type reducedTrial struct {
	res     *TrialResult
	events  uint64
	chrome  uint64
	missing []string
}

// chromeMissing names the recovery phase spans and the RPC slice a Chrome
// export lacks.
func chromeMissing(export []byte) []string {
	var doc struct {
		TraceEvents []struct {
			Name string `json:"name"`
			Ph   string `json:"ph"`
		} `json:"traceEvents"`
	}
	if err := json.Unmarshal(export, &doc); err != nil {
		return []string{"valid Chrome trace JSON: " + err.Error()}
	}
	seen := map[string]bool{}
	for _, e := range doc.TraceEvents {
		seen[e.Name] = true
		if e.Ph == "X" && strings.HasPrefix(e.Name, "rpc:") {
			seen["rpc slice"] = true
		}
	}
	var missing []string
	for _, want := range []string{
		"recovery:detect", "recovery:alert", "recovery:barrier1",
		"recovery:barrier2", "recovery:resume", "rpc slice",
	} {
		if !seen[want] {
			missing = append(missing, want)
		}
	}
	return missing
}

// TestCampaignIdenticalAcrossWorkers is the campaign's worker-count
// identity gate, the property behind "same results at any -j": trial 0
// of every scenario, run on one worker and again on four, must give the
// same trials, the same Table 7.4 rows and rendering, and the same
// witness hash. The four-worker side also runs the audit faultdrill runs
// every trial with, so folding the event stream must move nothing. Every
// trial's result includes the count of events its engine dispatched;
// only NodeFailRandom also hashes its task resumes (TraceHash, which
// multiplies a grid's cost by about 2.4) and renders its Chrome trace.
func TestCampaignIdenticalAcrossWorkers(t *testing.T) {
	if testing.Short() {
		t.Skip("runs trial 0 of every scenario twice")
	}
	grid := func(workers int, opts TrialOpts) [][]reducedTrial {
		return RunTrials(parallel.New(workers), AllScenarios(), func(Scenario) int { return 1 },
			func(s Scenario, trial int) reducedTrial {
				o := opts
				o.TraceHash = s == NodeFailRandom
				tr := RunTrialOpts(s, trial, o)
				r := reducedTrial{events: eventsDigest(tr.Events)}
				if s == NodeFailRandom {
					var export bytes.Buffer
					if err := trace.ExportChrome(&export, tr.Cells, tr.Events); err != nil {
						r.missing = []string{"export: " + err.Error()}
					}
					d := fnv.New64a()
					d.Write(export.Bytes())
					r.chrome = d.Sum64()
					r.missing = append(r.missing, chromeMissing(export.Bytes())...)
				}
				tr.Events, tr.Dropped, tr.Report = nil, nil, nil
				r.res = tr
				return r
			})
	}
	seq := grid(1, TrialOpts{KeepEvents: true})
	par := grid(4, TrialOpts{KeepEvents: true, Audit: true})

	// fold returns a side's trial results, its Table 7.4 rows as JSON, and
	// their rendering.
	fold := func(g [][]reducedTrial) ([][]*TrialResult, []string, string) {
		results := make([][]*TrialResult, len(g))
		rows := make([]*CampaignRow, len(g))
		rowJSON := make([]string, len(g))
		for i, trials := range g {
			for _, r := range trials {
				results[i] = append(results[i], r.res)
			}
			rows[i] = Aggregate(Scenario(i), results[i])
			b, err := json.Marshal(rows[i])
			if err != nil {
				t.Fatal(err)
			}
			rowJSON[i] = string(b)
		}
		return results, rowJSON, Table74(rows, nil).String()
	}
	seqResults, seqRows, seqTable := fold(seq)
	parResults, parRows, parTable := fold(par)

	for i, s := range AllScenarios() {
		a, b := seq[i][0], par[i][0]
		if fa, fb := fmt.Sprintf("%+v", *a.res), fmt.Sprintf("%+v", *b.res); fa != fb {
			t.Errorf("%v trial 0 diverged:\n-j1: %s\n-j4: %s", s, fa, fb)
		}
		if a.events != b.events || a.chrome != b.chrome {
			t.Errorf("%v trial 0: event digest %#x, Chrome digest %#x at -j1; %#x, %#x at -j4",
				s, a.events, a.chrome, b.events, b.chrome)
		}
		if !a.res.OK() {
			t.Errorf("%v trial 0 not contained: %+v", s, *a.res)
		}
		if seqRows[i] != parRows[i] {
			t.Errorf("%v row diverged:\n-j1: %s\n-j4: %s", s, seqRows[i], parRows[i])
		}
		if s == NodeFailRandom {
			if a.res.TraceHash == 0 {
				t.Errorf("%v trial 0: task resumes not hashed", s)
			}
			for _, m := range append(a.missing, b.missing...) {
				t.Errorf("%v trial 0 Chrome export lacks %s", s, m)
			}
		}
	}
	if seqTable != parTable {
		t.Errorf("Table 7.4 diverged:\n-j1:\n%s\n-j4:\n%s", seqTable, parTable)
	}
	if a, b := CampaignHash(seqResults), CampaignHash(parResults); a != b {
		t.Errorf("campaign hash %016x at -j1, %016x at -j4", a, b)
	}
}
