package faultinject

import (
	"fmt"
	"testing"

	"repro/internal/parallel"
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
