package harness

import (
	"repro/internal/core"
	"repro/internal/faultinject"
	"repro/internal/parallel"
	"repro/internal/sim"
	"repro/internal/wax"
	"repro/internal/workload"
)

// FrontendPoint is one row of the throughput-vs-offered-load sweep: the
// default frontend with its user population and arrival rate scaled by
// Multiplier, on a healthy 4-cell hive with Wax supervising, and the
// frontend's result.
type FrontendPoint struct {
	Multiplier float64
	Users      int
	workload.FrontendResult
}

// FrontendReport is the full frontend experiment: the load sweep plus the
// availability-under-fault row (a cell killed mid-surge, aggregated over
// SurgeFault trials).
type FrontendReport struct {
	Points []FrontendPoint
	Fault  *faultinject.CampaignRow
}

// frontendMultipliers is the offered-load sweep: under capacity, at the
// calibrated point, and overloaded (the admission cap must shed, not
// collapse). The 2× point runs the full million-user population.
var frontendMultipliers = []float64{0.5, 1.0, 2.0}

// RunFrontendSweep executes the load sweep and the fault row. scale ∈
// (0,1] shrinks the fault-trial count for quick runs; the sweep itself is
// always the full configuration, so its gated metrics are identical in
// quick and full mode. Sweep points and fault trials are independent
// boots and fan out across the process-wide parallel runner.
func RunFrontendSweep(scale float64) *FrontendReport {
	nf := max(1, int(float64(faultinject.SurgeFault.DefaultTests())*scale+0.5))
	total := len(frontendMultipliers) + nf
	points := make([]FrontendPoint, len(frontendMultipliers))
	trials := parallel.Map(parallel.Default(), total, func(i int) *faultinject.TrialResult {
		if i >= len(frontendMultipliers) {
			return faultinject.RunTrial(faultinject.SurgeFault, i-len(frontendMultipliers))
		}
		points[i] = runFrontendPoint(frontendMultipliers[i], i)
		return nil
	})
	rep := &FrontendReport{
		Points: points,
		Fault:  faultinject.Aggregate(faultinject.SurgeFault, trials[len(frontendMultipliers):]),
	}
	return rep
}

// runFrontendPoint boots a healthy hive, supervises Wax over it, and runs
// the default frontend at the given offered-load multiplier.
func runFrontendPoint(mult float64, idx int) FrontendPoint {
	h := workload.BootHiveWith(4, int64(6100+idx*37), func(cfg *core.Config) {})
	defer h.Eng.Stop()
	sup := wax.Supervise(h)
	defer sup.Stop()

	cfg := workload.DefaultFrontend()
	cfg.Users = int(float64(cfg.Users) * mult)
	cfg.RatePerSec = int(float64(cfg.RatePerSec) * mult)
	_, fe := workload.RunFrontend(h, cfg, 60*sim.Second)

	return FrontendPoint{Multiplier: mult, Users: cfg.Users, FrontendResult: *fe}
}
