package faultinject

import (
	"strings"
	"testing"

	"repro/internal/sim"
	"repro/internal/trace"
	"repro/internal/workload"
)

// TestAuditPanicsLatentCorruption corrupts a COW leaf in a live target
// cell that no workload walks, once per §7.4 pathology of its parent
// pointer, and runs the campaign's kernel audit (§4.1 aggressive failure
// detection): the target panics on its own kernel data, and every other
// cell stays up.
func TestAuditPanicsLatentCorruption(t *testing.T) {
	const target = 1
	for _, path := range []pathology{pathOtherCell, pathOffByOne, pathSelf} {
		h := workload.BootHiveWith(4, 1995, nil)
		h.Run(50 * sim.Millisecond)
		mg := h.Cells[target].COW
		_, leaf, err := mg.Fork(nil, mg.NewRoot(), target)
		if err != nil || !corruptNode(h, target, leaf, path, 0x5eed) {
			t.Fatalf("pathology %d: corruption failed: %v", path, err)
		}
		auditKernel(h, target)
		if !h.Cells[target].Failed() {
			t.Errorf("pathology %d: the audit left cell %d up", path, target)
		}
		var panics []trace.Event
		for _, e := range h.Trace.Merged() {
			if e.Kind == trace.Panic {
				panics = append(panics, e)
			}
		}
		if len(panics) != 1 || panics[0].Cell != target || !strings.HasPrefix(panics[0].S, "kernel data corruption: ") {
			t.Errorf("pathology %d: panic events %v, want one on cell %d reading \"kernel data corruption: …\"", path, panics, target)
		}
		if !h.RunUntil(func() bool { return h.Coord.LiveCount() == 3 && h.Coord.RecoveryIdle() }, h.Now()+sim.Second) {
			t.Errorf("pathology %d: live count %d, want 3 once recovery is idle", path, h.Coord.LiveCount())
		}
		for _, c := range h.Cells {
			if c.ID != target && c.Failed() {
				t.Errorf("pathology %d: cell %d failed", path, c.ID)
			}
		}
		h.Eng.Stop()
	}
}
