package workload

import (
	"fmt"
	"testing"

	"repro/internal/sim"
)

// TestCalibrationPrint is a calibration aid; run with -run Calibration -v
// to see the Table 7.2 numbers.
func TestCalibrationPrint(t *testing.T) {
	if testing.Short() {
		t.Skip("calibration print")
	}
	for _, cells := range []int{0, 1, 2, 4} {
		var h = BootIRIX()
		name := "IRIX"
		if cells > 0 {
			h = BootHive(cells)
			name = fmt.Sprintf("hive%d", cells)
		}
		res := RunPmake(h, DefaultPmake(), 120*sim.Second)
		fmt.Printf("pmake    %-6s elapsed=%.3fs done=%v faults=%d remote=%d errs=%v\n",
			name, res.Elapsed.Seconds(), res.Done, res.FaultHits, res.RemoteFaults, res.Errors)
	}
	for _, cells := range []int{0, 1, 2, 4} {
		var h = BootIRIX()
		name := "IRIX"
		if cells > 0 {
			h = BootHive(cells)
			name = fmt.Sprintf("hive%d", cells)
		}
		res := RunOcean(h, DefaultOcean(), 120*sim.Second)
		var rw []int
		for _, c := range h.Cells {
			rw = append(rw, c.VM.RemotelyWritablePages())
		}
		fmt.Printf("ocean    %-6s elapsed=%.3fs done=%v remote=%d rw=%v errs=%v\n",
			name, res.Elapsed.Seconds(), res.Done, res.RemoteFaults, rw, res.Errors)
	}
	for _, cells := range []int{0, 1, 2, 4} {
		var h = BootIRIX()
		name := "IRIX"
		if cells > 0 {
			h = BootHive(cells)
			name = fmt.Sprintf("hive%d", cells)
		}
		res := RunRaytrace(h, DefaultRaytrace(), 120*sim.Second)
		fmt.Printf("raytrace %-6s elapsed=%.3fs done=%v remote=%d errs=%v\n",
			name, res.Elapsed.Seconds(), res.Done, res.RemoteFaults, res.Errors)
	}
}
