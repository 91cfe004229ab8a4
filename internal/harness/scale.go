package harness

import (
	"fmt"

	"repro/internal/core"
	"repro/internal/faultinject"
	"repro/internal/parallel"
	"repro/internal/sim"
	"repro/internal/stats"
	"repro/internal/workload"
)

// ScaleRow is one cell count's scaling measurements: the paper's workloads
// and fault campaign rerun on a Hive of N single-node cells. Every field
// derives from virtual time and event counts — never wall clock — so rows
// are byte-identical at any worker count.
type ScaleRow struct {
	Cells int

	// Workload completion times (virtual seconds). Pmake is fixed work
	// (11 files, 4-way) so it isolates the overhead of more cells; ocean
	// runs one thread per cell so it scales work with the machine.
	PmakeSec float64
	OceanSec float64

	// RPC throughput over the pmake run: intercell calls issued across
	// all cells, and calls per virtual second.
	RPCCalls  int64
	RPCPerSec float64

	// Engine events dispatched over the pmake run, and events per
	// virtual second — the simulator work measure the perf gate tracks.
	Events       int64
	EventsPerSec float64

	// Fault campaign at this size: NodeFailRandom, DoubleFault, and
	// CoordinatorDeath trials. Latencies are averages over the detected
	// trials; Contained means every trial fully passed (Table 7.4's
	// criterion plus the invariant audit).
	FaultTrials int
	DetectMs    float64
	RecoveryMs  float64
	Contained   bool
}

// scaleScenarios is the campaign slice rerun per cell count: a random-time
// node failure plus the two recovery-under-fault scenarios whose cost grows
// with round membership.
var scaleScenarios = []faultinject.Scenario{
	faultinject.NodeFailRandom,
	faultinject.DoubleFault,
	faultinject.CoordinatorDeath,
}

// RunScale measures each requested cell count with `trials` fault trials
// per scenario. Every probe (pmake, ocean, and each fault trial) is an
// independent boot and one job on the process-wide parallel runner;
// results merge in cell-count order.
func RunScale(cellCounts []int, trials int) []ScaleRow {
	// Per cell count: pmake, ocean, then the trials of each scaleScenario.
	unitsPer := 2 + len(scaleScenarios)*trials
	type part struct {
		pmakeSec, oceanSec float64
		rpcCalls, events   int64
		trial              *faultinject.TrialResult
	}
	parts := parallel.Map(parallel.Default(), unitsPer*len(cellCounts), func(i int) part {
		cells := cellCounts[i/unitsPer]
		switch u := i % unitsPer; u {
		case 0:
			h := workload.BootHive(cells)
			defer h.Eng.Stop()
			calls0 := rpcCallCount(h)
			ev0 := h.Eng.Dispatched()
			res := workload.RunPmake(h, workload.DefaultPmake(), 120*sim.Second)
			return part{
				pmakeSec: res.Elapsed.Seconds(),
				rpcCalls: rpcCallCount(h) - calls0,
				events:   int64(h.Eng.Dispatched() - ev0),
			}
		case 1:
			h := workload.BootHive(cells)
			defer h.Eng.Stop()
			cfg := workload.DefaultOcean()
			cfg.Threads = cells // one thread per CPU on the scaled machine
			res := workload.RunOcean(h, cfg, 120*sim.Second)
			return part{oceanSec: res.Elapsed.Seconds()}
		default:
			u -= 2
			return part{trial: faultinject.RunTrialOpts(scaleScenarios[u/trials], u%trials,
				faultinject.TrialOpts{Cells: cells})}
		}
	})

	var out []ScaleRow
	for i, cells := range cellCounts {
		p := parts[i*unitsPer : (i+1)*unitsPer]
		row := ScaleRow{
			Cells:     cells,
			PmakeSec:  p[0].pmakeSec,
			OceanSec:  p[1].oceanSec,
			RPCCalls:  p[0].rpcCalls,
			Events:    p[0].events,
			Contained: true,
		}
		if row.PmakeSec > 0 {
			row.RPCPerSec = float64(row.RPCCalls) / row.PmakeSec
			row.EventsPerSec = float64(row.Events) / row.PmakeSec
		}
		var detect, recov float64
		n := 0
		for k, s := range scaleScenarios {
			trs := make([]*faultinject.TrialResult, trials)
			for t := range trs {
				trs[t] = p[2+k*trials+t].trial
			}
			u := faultinject.Aggregate(s, trs)
			row.FaultTrials += u.Tests
			if !u.AllOK {
				row.Contained = false
			}
			if u.AvgDetect > 0 {
				detect += u.AvgDetect
				recov += u.AvgRecov
				n++
			}
		}
		if n > 0 {
			row.DetectMs = detect / float64(n)
			row.RecoveryMs = recov / float64(n)
		}
		out = append(out, row)
	}
	return out
}

// rpcCallCount sums the cells' outbound intercell call counters.
func rpcCallCount(h *core.Hive) int64 {
	var n int64
	for _, c := range h.Cells {
		n += c.EP.Metrics.Counter("rpc.calls").Value()
	}
	return n
}

// FormatScale renders the scaling table, byte-identical at every -j.
func FormatScale(rows []ScaleRow) *stats.Table {
	tb := stats.NewTable("Scaling — workloads and fault campaign vs cell count",
		"cells", "pmake s", "ocean s", "RPC calls", "RPC/s", "events", "events/s",
		"detect ms", "recov ms", "contained")
	for _, r := range rows {
		tb.AddRow(fmt.Sprint(r.Cells),
			fmt.Sprintf("%.2f", r.PmakeSec),
			fmt.Sprintf("%.2f", r.OceanSec),
			fmt.Sprint(r.RPCCalls),
			fmt.Sprintf("%.0f", r.RPCPerSec),
			fmt.Sprint(r.Events),
			fmt.Sprintf("%.0f", r.EventsPerSec),
			fmt.Sprintf("%.1f", r.DetectMs),
			fmt.Sprintf("%.1f", r.RecoveryMs),
			fmt.Sprintf("%v", r.Contained))
	}
	return tb
}
