// Command hivebench regenerates every table and figure of the paper's
// evaluation and prints the measured values next to the published ones.
//
// Usage:
//
//	hivebench                 # everything, full Table 7.4 campaign
//	hivebench -quick          # reduced fault-injection trial counts
//	hivebench -j 8            # fan independent trials across 8 workers
//	hivebench -json           # machine-readable benchmark report on stdout
//	hivebench -json -o BENCH_hive.json
//	hivebench -trace out.json # Perfetto trace of a fault-injection trial
//	hivebench -only t72       # one experiment: careful41, rpc6, t52,
//	                          # t72, t73, t74, fw42, traffic52, reboot,
//	                          # frontend, t81, scale, scalability,
//	                          # agreement, cowlookup, sipsipi, fwgran,
//	                          # ccnow
//
// Experiments are deterministic simulations: the tables are byte-identical
// at every -j. The JSON report additionally records wall-clock time per
// experiment so the simulator's real-time performance is tracked PR to PR.
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"os"
	"runtime"
	"strings"
	"time"

	"repro/internal/faultinject"
	"repro/internal/harness"
	"repro/internal/parallel"
	"repro/internal/stats"
)

// experimentReport is one experiment's entry in the -json output. Metrics
// are deterministic and perf-gated; Info carries wall-clock-derived values
// (engine events/sec) that are recorded but never gated.
type experimentReport struct {
	ID      string             `json:"id"`
	WallMs  float64            `json:"wall_ms"`
	Metrics map[string]float64 `json:"metrics"`
	Info    map[string]float64 `json:"info,omitempty"`
}

// benchReport is the full -json document.
type benchReport struct {
	Name        string             `json:"name"`
	GoVersion   string             `json:"go_version"`
	GOMAXPROCS  int                `json:"gomaxprocs"`
	Jobs        int                `json:"jobs"`
	Quick       bool               `json:"quick"`
	Experiments []experimentReport `json:"experiments"`
	TotalWallMs float64            `json:"total_wall_ms"`
}

// runCtx threads output mode and the report accumulator through experiments.
type runCtx struct {
	jsonMode bool
	report   *benchReport
	metrics  map[string]float64
	info     map[string]float64
}

// printf emits human-readable output (suppressed in -json mode).
func (c *runCtx) printf(format string, args ...any) {
	if !c.jsonMode {
		fmt.Printf(format, args...)
	}
}

// println emits a human-readable line (suppressed in -json mode).
func (c *runCtx) println(args ...any) {
	if !c.jsonMode {
		fmt.Println(args...)
	}
}

// metric records one measured value for the JSON report.
func (c *runCtx) metric(name string, v float64) { c.metrics[name] = v }

// infoMetric records a wall-clock-derived value: reported, never gated.
func (c *runCtx) infoMetric(name string, v float64) { c.info[name] = v }

func main() {
	quick := flag.Bool("quick", false, "reduced fault-injection trial counts")
	only := flag.String("only", "", "run a single experiment by id")
	jobs := flag.Int("j", runtime.GOMAXPROCS(0), "parallel trial workers (1 = sequential)")
	jsonOut := flag.Bool("json", false, "emit a machine-readable benchmark report instead of tables")
	outPath := flag.String("o", "", "write the -json report to a file instead of stdout")
	tracePath := flag.String("trace", "", "write a Chrome trace of one node-failure trial, then exit")
	flag.Parse()

	parallel.SetDefaultWorkers(*jobs)

	if *tracePath != "" {
		tr := faultinject.RunTrialOpts(faultinject.NodeFailRandom, 0,
			faultinject.TrialOpts{KeepTrace: true, TraceCap: 1 << 16})
		if err := os.WriteFile(*tracePath, tr.TraceJSON, 0o644); err != nil {
			fmt.Fprintln(os.Stderr, "hivebench: write trace:", err)
			os.Exit(1)
		}
		fmt.Printf("wrote %s: node-failure trial, detect %.1f ms, recovery %.1f ms (load in ui.perfetto.dev)\n",
			*tracePath, tr.DetectMs, tr.RecoveryMs)
		return
	}

	ctx := &runCtx{
		jsonMode: *jsonOut,
		report: &benchReport{
			Name:        "hivebench",
			GoVersion:   runtime.Version(),
			GOMAXPROCS:  runtime.GOMAXPROCS(0),
			Jobs:        parallel.Default().Workers(),
			Quick:       *quick,
			Experiments: []experimentReport{},
		},
	}
	start := time.Now()
	run := func(id string, fn func(c *runCtx)) {
		if *only != "" && *only != id {
			return
		}
		ctx.metrics = map[string]float64{}
		ctx.info = map[string]float64{}
		expStart := time.Now()
		fn(ctx)
		rep := experimentReport{
			ID:      id,
			WallMs:  float64(time.Since(expStart).Microseconds()) / 1000,
			Metrics: ctx.metrics,
		}
		if len(ctx.info) > 0 {
			rep.Info = ctx.info
		}
		ctx.report.Experiments = append(ctx.report.Experiments, rep)
	}

	run("careful41", func(c *runCtx) {
		r := harness.RunCareful41()
		c.metric("careful_read_us", r.CarefulReadUs)
		c.metric("miss_share_us", r.MissShareUs)
		c.metric("null_rpc_us", r.NullRPCUs)
		tb := stats.NewTable("§4.1 — careful reference protocol vs RPC",
			"operation", "paper", "measured")
		tb.AddRow("careful_on → clock read → careful_off", "1.16 µs", harness.FormatUs(r.CarefulReadUs))
		tb.AddRow("  of which remote cache miss", "0.70 µs", harness.FormatUs(r.MissShareUs))
		tb.AddRow("null RPC alternative", "7.2 µs", harness.FormatUs(r.NullRPCUs))
		c.println(tb)
	})

	run("rpc6", func(c *runCtx) {
		r := harness.RunRPC6()
		c.metric("null_us", r.NullUs)
		c.metric("real_us", r.RealUs)
		c.metric("oversize_us", r.OversizeUs)
		c.metric("queued_us", r.QueuedUs)
		tb := stats.NewTable("§6 — RPC subsystem latencies",
			"operation", "paper", "measured")
		tb.AddRow("null interrupt-level RPC", "7.2 µs", harness.FormatUs(r.NullUs))
		tb.AddRow("common interrupt-level request (RPC component)", "9.6 µs", harness.FormatUs(r.RealUs))
		tb.AddRow("request with >1 line of data (Table 5.2)", "17.3 µs", harness.FormatUs(r.OversizeUs))
		tb.AddRow("null queued RPC", "34 µs", harness.FormatUs(r.QueuedUs))
		c.println(tb)
	})

	run("t52", func(c *runCtx) {
		t52 := harness.RunTable52()
		c.metric("local_us", t52.LocalUs)
		c.metric("remote_us", t52.RemoteUs)
		c.metric("breakdown_total_us", t52.Components.MeanTotal())
		tb := stats.NewTable("Table 5.2 — remote page fault latency",
			"quantity", "paper", "measured")
		tb.AddRow("local page fault (cache hit)", "6.9 µs", harness.FormatUs(t52.LocalUs))
		tb.AddRow("remote page fault (data-home cache hit)", "50.7 µs", harness.FormatUs(t52.RemoteUs))
		c.println(tb)
		c.println("component means (calibrated decomposition):")
		c.printf("%s", t52.Components.Format())
		c.println()
	})

	run("t73", func(c *runCtx) {
		t73 := harness.RunTable73()
		c.metric("read4mb_local_ms", t73.Read4MBLocalMs)
		c.metric("read4mb_remote_ms", t73.Read4MBRemoteMs)
		c.metric("write4mb_local_ms", t73.Write4MBLocalMs)
		c.metric("write4mb_remote_ms", t73.Write4MBRemoteMs)
		c.metric("open_local_us", t73.OpenLocalUs)
		c.metric("open_remote_us", t73.OpenRemoteUs)
		c.metric("fault_local_us", t73.FaultLocalUs)
		c.metric("fault_remote_us", t73.FaultRemoteUs)
		tb := stats.NewTable("Table 7.3 — local vs remote kernel operations",
			"operation", "paper local", "measured local", "paper remote", "measured remote")
		tb.AddRow("4 MB file read", "65.0 ms", harness.FormatMs(t73.Read4MBLocalMs), "76.2 ms", harness.FormatMs(t73.Read4MBRemoteMs))
		tb.AddRow("4 MB file write/extend", "83.7 ms", harness.FormatMs(t73.Write4MBLocalMs), "87.3 ms", harness.FormatMs(t73.Write4MBRemoteMs))
		tb.AddRow("open file", "148 µs", harness.FormatUs(t73.OpenLocalUs), "580 µs", harness.FormatUs(t73.OpenRemoteUs))
		tb.AddRow("page fault hitting file cache", "6.9 µs", harness.FormatUs(t73.FaultLocalUs), "50.7 µs", harness.FormatUs(t73.FaultRemoteUs))
		c.println(tb)
	})

	run("t72", func(c *runCtx) {
		rows := harness.RunTable72()
		tb := stats.NewTable("Table 7.2 — workload timings on the 4-processor machine",
			"workload", "IRIX (paper)", "IRIX (measured)", "1 cell", "2 cells", "4 cells")
		paperBase := map[string]string{"ocean": "6.07 s", "raytrace": "4.35 s", "pmake": "5.77 s"}
		paperSlow := map[string]string{"ocean": "1/1/-1 %", "raytrace": "0/0/1 %", "pmake": "1/10/11 %"}
		for _, r := range rows {
			c.metric(r.Workload+"_irix_s", r.IRIXSec)
			c.metric(r.Workload+"_slowdown1_pct", r.Slowdown1)
			c.metric(r.Workload+"_slowdown2_pct", r.Slowdown2)
			c.metric(r.Workload+"_slowdown4_pct", r.Slowdown4)
			tb.AddRow(r.Workload, paperBase[r.Workload], fmt.Sprintf("%.2f s", r.IRIXSec),
				harness.FormatPct(r.Slowdown1), harness.FormatPct(r.Slowdown2), harness.FormatPct(r.Slowdown4))
		}
		c.println(tb)
		c.println("paper slowdowns (1/2/4 cells):")
		for _, r := range rows {
			c.printf("  %-9s %s\n", r.Workload, paperSlow[r.Workload])
		}
		c.println()
	})

	run("fw42", func(c *runCtx) {
		fw := harness.RunFirewall42()
		c.metric("write_miss_overhead_pct", fw.WriteMissOverheadPct)
		c.metric("pmake_avg_writable", fw.PmakeAvgWritable)
		c.metric("pmake_max_writable", fw.PmakeMaxWritable)
		c.metric("pmake_user_pages", fw.PmakeUserPages)
		c.metric("ocean_avg_writable", fw.OceanAvgWritable)
		tb := stats.NewTable("§4.2 — firewall cost and management policy",
			"quantity", "paper", "measured")
		tb.AddRow("remote write miss latency increase", "+6.3 % (pmake)", harness.FormatPct(fw.WriteMissOverheadPct))
		tb.AddRow("pmake: avg remotely-writable pages/cell", "15", fmt.Sprintf("%.1f", fw.PmakeAvgWritable))
		tb.AddRow("pmake: max remotely-writable pages", "42 (/tmp server)", fmt.Sprintf("%.0f", fw.PmakeMaxWritable))
		tb.AddRow("pmake: user pages per cell", "≈6000", fmt.Sprintf("%.0f", fw.PmakeUserPages))
		tb.AddRow("ocean: avg remotely-writable pages/cell", "550", fmt.Sprintf("%.0f", fw.OceanAvgWritable))
		c.println(tb)
	})

	run("traffic52", func(c *runCtx) {
		tr := harness.RunPmakeFaultTraffic()
		c.metric("faults_1cell", float64(tr.Faults1Cell))
		c.metric("faults_4cell", float64(tr.Faults4Cell))
		c.metric("remote_4cell", float64(tr.Remote4Cell))
		c.metric("fault_ms_1cell", tr.FaultMs1Cell)
		c.metric("fault_ms_4cell", tr.FaultMs4Cell)
		tb := stats.NewTable("§5.2 — pmake page-cache fault traffic",
			"quantity", "paper", "measured")
		tb.AddRow("page-cache faults (1 cell)", "8935", fmt.Sprint(tr.Faults1Cell))
		tb.AddRow("page-cache faults (4 cells)", "8935", fmt.Sprint(tr.Faults4Cell))
		tb.AddRow("remote on 4 cells", "4946", fmt.Sprint(tr.Remote4Cell))
		tb.AddRow("cumulative fault time (1 cell)", "117 ms", harness.FormatMs(tr.FaultMs1Cell))
		tb.AddRow("cumulative fault time (4 cells)", "455 ms", harness.FormatMs(tr.FaultMs4Cell))
		c.println(tb)
	})

	run("t74", func(c *runCtx) {
		scale := 1.0
		if *quick {
			scale = 0.2
		}
		rows := harness.RunTable74(scale)
		allOK := 1.0
		for _, r := range rows {
			key := fmt.Sprintf("s%d", int(r.Scenario))
			c.metric(key+"_tests", float64(r.Tests))
			c.metric(key+"_avg_detect_ms", r.AvgDetect)
			c.metric(key+"_max_detect_ms", r.MaxDetect)
			c.metric(key+"_avg_recovery_ms", r.AvgRecov)
			if !r.AllOK {
				allOK = 0
			}
		}
		c.metric("all_contained", allOK)
		c.println(harness.FormatTable74(rows))
		c.println("paper: avg/max detect (ms) = 16/21, 10/11, 21/45, 38/65, 401/760; recovery 40-80 ms; all contained")
		c.println()
	})

	run("reboot", func(c *runCtx) {
		scale := 1.0
		if *quick {
			scale = 0.5
		}
		rows := harness.RunRebootLoop(scale)
		allOK := 1.0
		for _, r := range rows {
			key := fmt.Sprintf("s%d", int(r.Scenario))
			c.metric(key+"_tests", float64(r.Tests))
			c.metric(key+"_avg_restore_ms", r.AvgRestore)
			c.metric(key+"_p99_restore_ms", r.P99Restore)
			c.metric(key+"_loop_p99_ms", r.AvgLoopP99)
			if !r.AllOK {
				allOK = 0
			}
		}
		c.metric("all_contained", allOK)
		c.println(harness.FormatRebootLoop(rows))
		c.println("time-to-restored-full-capacity is death verdict → join-round commit;")
		c.println("loop p99 is the probe-op latency while the loop ran (§4.3 closed end-to-end).")
		c.println()
	})

	run("frontend", func(c *runCtx) {
		scale := 1.0
		if *quick {
			scale = 0.5
		}
		rep := harness.RunFrontendSweep(scale)
		for _, p := range rep.Points {
			key := fmt.Sprintf("x%02.0f", p.Multiplier*10)
			c.metric(key+"_jobs", float64(p.Completed))
			c.metric(key+"_shed", float64(p.Shed))
			c.metric(key+"_p50_us", p.Latency.P50)
			c.metric(key+"_p99_us", p.Latency.P99)
			c.metric(key+"_p999_us", p.Latency.P999)
			c.metric(key+"_goodput_per_s", p.GoodputPerSec)
			c.infoMetric(key+"_wall_jobs_per_s", float64(p.Completed)/p.WallSec)
		}
		f := rep.Fault
		c.metric("surge_tests", float64(f.Tests))
		c.metric("surge_avg_window_ms", f.AvgWindow)
		c.metric("surge_max_window_ms", f.MaxWindow)
		c.metric("surge_avg_restore_ms", f.AvgRestore)
		allOK := 0.0
		if f.AllOK {
			allOK = 1
		}
		c.metric("all_contained", allOK)
		c.println(harness.FormatFrontend(rep))
		c.println("open-loop arrivals in virtual time: the sweep is byte-identical at any -j;")
		c.println("the fault row kills a cell mid-surge and bounds the user-visible window by the restore time.")
		c.println()
	})

	run("t81", func(c *runCtx) {
		hw := harness.RunHardware81()
		b2f := func(b bool) float64 {
			if b {
				return 1
			}
			return 0
		}
		c.metric("firewall", b2f(hw.Firewall))
		c.metric("fault_model", b2f(hw.FaultModel))
		c.metric("remap_region", b2f(hw.RemapRegion))
		c.metric("sips", b2f(hw.SIPS))
		c.metric("cutoff", b2f(hw.Cutoff))
		tb := stats.NewTable("Table 8.1 — custom hardware features",
			"feature", "functional")
		tb.AddRow("firewall (per-page write permission bit-vector)", fmt.Sprint(hw.Firewall))
		tb.AddRow("memory fault model (bus errors, no stalls)", fmt.Sprint(hw.FaultModel))
		tb.AddRow("remap region (node-private trap vectors)", fmt.Sprint(hw.RemapRegion))
		tb.AddRow("SIPS (short interprocessor send)", fmt.Sprint(hw.SIPS))
		tb.AddRow("memory cutoff (panic isolation)", fmt.Sprint(hw.Cutoff))
		c.println(tb)
	})

	run("scale", func(c *runCtx) {
		trials := 2
		if *quick {
			trials = 1
		}
		rows := harness.RunScale([]int{8, 16, 32}, trials)
		allContained := 1.0
		for _, r := range rows {
			key := fmt.Sprintf("%dc", r.Cells)
			c.metric("pmake_s_"+key, r.PmakeSec)
			c.metric("ocean_s_"+key, r.OceanSec)
			c.metric("rpc_calls_"+key, float64(r.RPCCalls))
			c.metric("rpc_per_s_"+key, r.RPCPerSec)
			c.metric("events_"+key, float64(r.Events))
			c.metric("events_per_s_"+key, r.EventsPerSec)
			// The wall-clock events/sec goes to the ungated info section.
			c.infoMetric("wall_events_per_s_classic_"+key, r.WallEventsPerSec)
			c.metric("detect_ms_"+key, r.DetectMs)
			c.metric("recovery_ms_"+key, r.RecoveryMs)
			if !r.Contained {
				allContained = 0
			}
		}
		c.metric("all_contained", allContained)
		c.println(harness.FormatScale(rows))
		for _, r := range rows {
			c.printf("engine rate at %d cells: %.0f ev/s (wall)\n", r.Cells, r.WallEventsPerSec)
		}
		c.println("recovery cost grows with round membership; containment must hold at every size.")
		c.println()
	})

	run("scalability", func(c *runCtx) {
		points := harness.RunScalability([]int{1, 2, 4, 8, 16})
		tb := stats.NewTable("§1 ablation — shared-everything SMP OS vs multicellular Hive (kernel ops completed)",
			"CPUs", "SMP OS", "Hive (1 cell/CPU)", "Hive/SMP")
		for _, p := range points {
			c.metric(fmt.Sprintf("smp_ops_%dcpu", p.CPUs), float64(p.SMPOps))
			c.metric(fmt.Sprintf("hive_ops_%dcpu", p.CPUs), float64(p.HiveOps))
			tb.AddRow(fmt.Sprint(p.CPUs), fmt.Sprint(p.SMPOps), fmt.Sprint(p.HiveOps),
				fmt.Sprintf("%.2fx", float64(p.HiveOps)/float64(p.SMPOps)))
		}
		c.println(tb)
	})

	run("cowlookup", func(c *runCtx) {
		r := harness.RunCOWLookupComparison()
		c.metric("sharedmem_us", r.SharedMemUs)
		c.metric("rpc_us", r.RPCUs)
		c.metric("touch_sm_us", r.TouchSMUs)
		c.metric("touch_rpc_us", r.TouchRPCUs)
		tb := stats.NewTable("§5.3 ablation — COW search: shared memory vs conventional RPC",
			"quantity", "shared memory", "RPC walk")
		tb.AddRow("cross-cell lookup (hit at root)", harness.FormatUs(r.SharedMemUs), harness.FormatUs(r.RPCUs))
		tb.AddRow("end-to-end touch (lookup + bind + access)", harness.FormatUs(r.TouchSMUs), harness.FormatUs(r.TouchRPCUs))
		c.println(tb)
		c.println(`paper: "A more conventional RPC-based approach would be simpler and`)
		c.println(` probably just as fast" — the bind RPC dominates either way.`)
		c.println()
	})

	run("sipsipi", func(c *runCtx) {
		r := harness.RunSIPSvsIPI()
		c.metric("sips_us", r.SIPSUs)
		c.metric("ipi_us", r.IPIUs)
		tb := stats.NewTable("§6 ablation — SIPS vs RPC layered on bare IPIs",
			"path", "round trip")
		tb.AddRow("SIPS (hardware message support)", harness.FormatUs(r.SIPSUs))
		tb.AddRow("IPI + polled per-sender shared-memory queues", harness.FormatUs(r.IPIUs))
		c.println(tb)
	})

	run("fwgran", func(c *runCtx) {
		bv, sb := harness.RunFirewallGranularity()
		c.metric("bitvector_blocked", float64(bv))
		c.metric("singlebit_blocked", float64(sb))
		tb := stats.NewTable("§4.2 ablation — firewall representation (wild writes blocked, 384 issued)",
			"design", "blocked")
		tb.AddRow("bit vector per page (FLASH)", fmt.Sprint(bv))
		tb.AddRow("single bit per page (rejected: global grant)", fmt.Sprint(sb))
		c.println(tb)
	})

	run("ccnow", func(c *runCtx) {
		r := harness.RunCCNOW()
		c.metric("fault_local_us", r.FaultLocalUs)
		c.metric("fault_remote_us", r.FaultRemoteUs)
		c.metric("detect_ms", r.DetectMs)
		contained := 0.0
		if r.Contained {
			contained = 1
		}
		c.metric("contained", contained)
		tb := stats.NewTable("§8 — CC-NOW: Hive on a cache-coherent network of workstations (5 µs link)",
			"quantity", "measured")
		tb.AddRow("local page fault (unchanged)", harness.FormatUs(r.FaultLocalUs))
		tb.AddRow("remote page fault over the NOW link", harness.FormatUs(r.FaultRemoteUs))
		tb.AddRow("failure detection", harness.FormatMs(r.DetectMs))
		tb.AddRow("containment", fmt.Sprint(r.Contained))
		c.println(tb)
	})

	run("agreement", func(c *runCtx) {
		ac := harness.RunAgreementComparison()
		c.metric("oracle_detect_ms", ac.OracleDetectMs)
		c.metric("vote_detect_ms", ac.VoteDetectMs)
		voteOK := 0.0
		if ac.VoteOK {
			voteOK = 1
		}
		c.metric("vote_ok", voteOK)
		tb := stats.NewTable("§4.3 ablation — agreement oracle vs real voting protocol",
			"mode", "detection (ms)", "confirmed")
		tb.AddRow("oracle (paper's configuration)", fmt.Sprintf("%.1f", ac.OracleDetectMs), "true")
		tb.AddRow("voting protocol", fmt.Sprintf("%.1f", ac.VoteDetectMs), fmt.Sprint(ac.VoteOK))
		c.println(tb)
	})

	ctx.report.TotalWallMs = float64(time.Since(start).Microseconds()) / 1000

	if *jsonOut {
		enc, err := json.MarshalIndent(ctx.report, "", "  ")
		if err != nil {
			fmt.Fprintln(os.Stderr, "hivebench: marshal report:", err)
			os.Exit(1)
		}
		enc = append(enc, '\n')
		if *outPath != "" {
			if err := os.WriteFile(*outPath, enc, 0o644); err != nil {
				fmt.Fprintln(os.Stderr, "hivebench: write report:", err)
				os.Exit(1)
			}
			fmt.Printf("wrote %s (%d experiments, %.0f ms total)\n",
				*outPath, len(ctx.report.Experiments), ctx.report.TotalWallMs)
		} else {
			os.Stdout.Write(enc)
		}
		return
	}

	fmt.Println(strings.Repeat("-", 72))
	fmt.Println("All numbers are from the deterministic FLASH/Hive simulation;")
	fmt.Println("see EXPERIMENTS.md for the shape criteria and known deviations.")
}
