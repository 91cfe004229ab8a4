package harness

import (
	"fmt"
	"testing"

	"repro/internal/faultinject"
	"repro/internal/parallel"
)

// TestScaleDeterminism is the harness's byte-identity gate: the scaling
// suite and the frontend sweep must each produce identical rows (%+v)
// whether their independent boots run sequentially or on eight workers.
// Every field of every row is compared: none holds real time. The
// frontend runs at full scale, as `hivebench -only frontend` does. The
// campaign rows the reboot experiment aggregates are held across worker
// counts by faultinject's TestCampaignIdenticalAcrossWorkers.
func TestScaleDeterminism(t *testing.T) {
	if testing.Short() {
		t.Skip("runs the scaling suite and the frontend sweep, each twice")
	}
	cases := []struct {
		name string
		run  func() string
	}{
		{"scale", func() string {
			return fmt.Sprintf("%+v", RunScale([]int{8, 16}, 1))
		}},
		{"frontend", func() string {
			rep := RunFrontendSweep(1.0)
			return fmt.Sprintf("%+v\n%s", rep.Points, campaignRowString(rep.Fault))
		}},
	}
	for _, c := range cases {
		t.Run(c.name, func(t *testing.T) {
			at := func(workers int) string {
				parallel.SetDefaultWorkers(workers)
				defer parallel.SetDefaultWorkers(0)
				return c.run()
			}
			if seq, par := at(1), at(8); seq != par {
				t.Errorf("%s diverged across worker counts:\n-j1:\n%s\n-j8:\n%s", c.name, seq, par)
			}
		})
	}
}

// campaignRowString renders a campaign row with %+v. The histogram
// snapshots are printed through their own pointers, which fmt expands at
// top level, so the text holds their values rather than addresses.
func campaignRowString(r *faultinject.CampaignRow) string {
	c := *r
	c.Detect, c.Recov, c.Restore = nil, nil, nil
	return fmt.Sprintf("%+v detect=%+v recov=%+v restore=%+v", c, r.Detect, r.Recov, r.Restore)
}

// TestScaleContainment16 asserts the fault campaign stays fully contained on
// a 16-cell Hive — the acceptance bar for scaling the recovery protocol.
func TestScaleContainment16(t *testing.T) {
	if testing.Short() {
		t.Skip("boots 16-cell hives")
	}
	rows := RunScale([]int{16}, 1)
	r := rows[0]
	if !r.Contained {
		t.Fatalf("16-cell campaign not contained: %+v", r)
	}
	if r.DetectMs <= 0 || r.RecoveryMs <= 0 {
		t.Fatalf("missing latency measurements: %+v", r)
	}
	if !r.Contained || r.FaultTrials != len(scaleScenarios) {
		t.Fatalf("expected %d trials, got %+v", len(scaleScenarios), r)
	}
}
