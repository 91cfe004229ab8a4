package harness

import (
	"fmt"

	"repro/internal/core"
	"repro/internal/faultinject"
	"repro/internal/parallel"
	"repro/internal/sim"
	"repro/internal/stats"
	"repro/internal/wax"
	"repro/internal/workload"
)

// FrontendPoint is one row of the throughput-vs-offered-load sweep: the
// default frontend with its user population and arrival rate scaled by
// Multiplier, on a healthy 4-cell hive with Wax supervising.
type FrontendPoint struct {
	Multiplier float64
	Users      int

	Offered   int
	Issued    int
	Shed      int
	Completed int
	Good      int
	Redirects int

	Latency stats.HistSnapshot

	OfferedPerSec    float64
	ThroughputPerSec float64
	GoodputPerSec    float64

	// WaxRetargets counts placement hints Wax installed during the run
	// (ApplyPlaceTargets accepted), the cross-cell balancing at work.
	WaxRetargets int
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

	return FrontendPoint{
		Multiplier:       mult,
		Users:            cfg.Users,
		Offered:          fe.Offered,
		Issued:           fe.Issued,
		Shed:             fe.Shed,
		Completed:        fe.Completed,
		Good:             fe.Good,
		Redirects:        fe.Redirects,
		Latency:          fe.Latency,
		OfferedPerSec:    fe.OfferedPerSec,
		ThroughputPerSec: fe.ThroughputPerSec,
		GoodputPerSec:    fe.GoodputPerSec,
		WaxRetargets:     sup.Cur.PlaceRetargets,
	}
}

// FormatFrontend renders the two frontend tables.
func FormatFrontend(rep *FrontendReport) string {
	tb := stats.NewTable("multi-tenant frontend — throughput vs offered load (4 cells, Wax on)",
		"offered", "users", "jobs/s in", "done/s", "goodput/s", "shed", "p50", "p99", "p999")
	for _, p := range rep.Points {
		tb.AddRow(
			fmt.Sprintf("%.1fx", p.Multiplier),
			fmt.Sprintf("%d", p.Users),
			fmt.Sprintf("%.0f", p.OfferedPerSec),
			fmt.Sprintf("%.0f", p.ThroughputPerSec),
			fmt.Sprintf("%.0f", p.GoodputPerSec),
			fmt.Sprintf("%d", p.Shed),
			formatUs(p.Latency.P50),
			formatUs(p.Latency.P99),
			formatUs(p.Latency.P999),
		)
	}
	f := rep.Fault
	tf := stats.NewTable("availability under fault — cell killed mid-surge",
		"trials", "contained", "avg window", "max window", "avg restore (ms)")
	tf.AddRow(fmt.Sprint(f.Tests), fmt.Sprint(f.AllOK),
		formatMs(f.AvgWindow), formatMs(f.MaxWindow), formatMs(f.AvgRestore))
	return tb.String() + "\n" + tf.String()
}
