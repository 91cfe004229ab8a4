// Command hivebench regenerates every table and figure of the paper's
// evaluation and prints the measured values next to the published ones.
// It is the evaluation's one runner: `make bench-report` writes its
// -quick -json report to BENCH_hive.json, and `make bench-gate` checks a
// fresh report against it.
//
// Usage:
//
//	hivebench                 # everything, full Table 7.4 campaign
//	hivebench -quick          # reduced fault-injection trial counts
//	hivebench -j 8            # fan independent trials across 8 workers
//	hivebench -json           # machine-readable benchmark report on stdout
//	hivebench -json -o BENCH_hive.json
//	hivebench -only t72       # one experiment: careful41, rpc6, t52,
//	                          # t73, t72, fw42, traffic52, t74, reboot,
//	                          # frontend, t81, scale, scalability,
//	                          # cowlookup, sipsipi, fwgran, ccnow,
//	                          # agreement, detection
//
// Experiments are deterministic simulations: the tables are byte-identical
// at every -j. The JSON report additionally records wall-clock time per
// experiment so the simulator's real-time performance is tracked PR to PR.
// Exit status is 2 on a bad flag, an unknown -only id or -o without -json,
// and 1 when the report cannot be written.
package main

import (
	"encoding/json"
	"errors"
	"flag"
	"fmt"
	"io"
	"os"
	"runtime"
	"slices"
	"strings"
	"time"

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

// runCtx threads the options, the table output and one experiment's
// measurements through the experiments.
type runCtx struct {
	quick   bool
	out     io.Writer // the tables; io.Discard under -json
	metrics map[string]float64
	info    map[string]float64
}

func (c *runCtx) printf(format string, args ...any) { fmt.Fprintf(c.out, format, args...) }

func (c *runCtx) println(args ...any) { fmt.Fprintln(c.out, args...) }

// metric records a measured value whose table another package renders
// (the harness's campaign, frontend and scaling tables, Table 5.2's
// breakdown).
func (c *runCtx) metric(name string, v float64) { c.metrics[name] = v }

// cell records a measured value and returns it, in format, as the table
// cell that shows it: what a table prints is what the gate checks.
func (c *runCtx) cell(name, format string, v float64) string {
	c.metric(name, v)
	return fmt.Sprintf(format, v)
}

// flag records a yes/no measurement as 1 or 0 and returns it as a table
// cell.
func (c *runCtx) flag(name string, b bool) string {
	c.metric(name, b2f(b))
	return fmt.Sprint(b)
}

// infoMetric records a wall-clock-derived value: reported, never gated.
func (c *runCtx) infoMetric(name string, v float64) { c.info[name] = v }

func b2f(b bool) float64 {
	if b {
		return 1
	}
	return 0
}

// scaled returns an experiment's full-run size, or its -quick size.
func (c *runCtx) scaled(full, quick float64) float64 {
	if c.quick {
		return quick
	}
	return full
}

// experiment is one table or figure: the id -only selects it by, and the
// function that runs it, records its metrics and prints its table.
type experiment struct {
	id  string
	run func(c *runCtx)
}

// experiments run in this order; the report lists them in it.
var experiments = []experiment{
	{"careful41", func(c *runCtx) {
		r := harness.RunCareful41()
		tb := stats.NewTable("§4.1 — careful reference protocol vs RPC",
			"operation", "paper", "measured")
		tb.AddRow("careful_on → clock read → careful_off", "1.16 µs", c.cell("careful_read_us", "%.2f µs", r.CarefulReadUs))
		tb.AddRow("  of which remote cache miss", "0.70 µs", c.cell("miss_share_us", "%.2f µs", r.MissShareUs))
		tb.AddRow("null RPC alternative", "7.2 µs", c.cell("null_rpc_us", "%.1f µs", r.NullRPCUs))
		c.println(tb)
	}},

	{"rpc6", func(c *runCtx) {
		r := harness.RunRPC6()
		tb := stats.NewTable("§6 — RPC subsystem latencies",
			"operation", "paper", "measured")
		tb.AddRow("null interrupt-level RPC", "7.2 µs", c.cell("null_us", "%.1f µs", r.NullUs))
		tb.AddRow("common interrupt-level request (RPC component)", "9.6 µs", c.cell("real_us", "%.1f µs", r.RealUs))
		tb.AddRow("request with >1 line of data (Table 5.2)", "17.3 µs", c.cell("oversize_us", "%.1f µs", r.OversizeUs))
		tb.AddRow("null queued RPC", "34 µs", c.cell("queued_us", "%.1f µs", r.QueuedUs))
		c.println(tb)
	}},

	{"t52", func(c *runCtx) {
		t52 := harness.RunTable52()
		tb := stats.NewTable("Table 5.2 — remote page fault latency",
			"quantity", "paper", "measured")
		tb.AddRow("local page fault (cache hit)", "6.9 µs", c.cell("local_us", "%.1f µs", t52.LocalUs))
		tb.AddRow("remote page fault (data-home cache hit)", "50.7 µs", c.cell("remote_us", "%.1f µs", t52.RemoteUs))
		c.println(tb)
		c.metric("breakdown_total_us", t52.Components.MeanTotal())
		c.println("component means (calibrated decomposition):")
		c.printf("%s", t52.Components.Format())
		c.println()
	}},

	{"t73", func(c *runCtx) {
		t73 := harness.RunTable73()
		tb := stats.NewTable("Table 7.3 — local vs remote kernel operations",
			"operation", "paper local", "measured local", "paper remote", "measured remote")
		tb.AddRow("4 MB file read",
			"65.0 ms", c.cell("read4mb_local_ms", "%.1f ms", t73.Read4MBLocalMs),
			"76.2 ms", c.cell("read4mb_remote_ms", "%.1f ms", t73.Read4MBRemoteMs))
		tb.AddRow("4 MB file write/extend",
			"83.7 ms", c.cell("write4mb_local_ms", "%.1f ms", t73.Write4MBLocalMs),
			"87.3 ms", c.cell("write4mb_remote_ms", "%.1f ms", t73.Write4MBRemoteMs))
		tb.AddRow("open file",
			"148 µs", c.cell("open_local_us", "%.1f µs", t73.OpenLocalUs),
			"580 µs", c.cell("open_remote_us", "%.1f µs", t73.OpenRemoteUs))
		tb.AddRow("page fault hitting file cache",
			"6.9 µs", c.cell("fault_local_us", "%.1f µs", t73.FaultLocalUs),
			"50.7 µs", c.cell("fault_remote_us", "%.1f µs", t73.FaultRemoteUs))
		c.println(tb)
	}},

	{"t72", func(c *runCtx) {
		rows := harness.RunTable72()
		tb := stats.NewTable("Table 7.2 — workload timings on the 4-processor machine",
			"workload", "IRIX (paper)", "IRIX (measured)", "1 cell", "2 cells", "4 cells")
		paperBase := map[string]string{"ocean": "6.07 s", "raytrace": "4.35 s", "pmake": "5.77 s"}
		paperSlow := map[string]string{"ocean": "1/1/-1 %", "raytrace": "0/0/1 %", "pmake": "1/10/11 %"}
		for _, r := range rows {
			tb.AddRow(r.Workload, paperBase[r.Workload],
				c.cell(r.Workload+"_irix_s", "%.2f s", r.IRIXSec),
				c.cell(r.Workload+"_slowdown1_pct", "%+.1f %%", r.Slowdown1),
				c.cell(r.Workload+"_slowdown2_pct", "%+.1f %%", r.Slowdown2),
				c.cell(r.Workload+"_slowdown4_pct", "%+.1f %%", r.Slowdown4))
		}
		c.println(tb)
		c.println("paper slowdowns (1/2/4 cells):")
		for _, r := range rows {
			c.printf("  %-9s %s\n", r.Workload, paperSlow[r.Workload])
		}
		c.println()
	}},

	{"fw42", func(c *runCtx) {
		fw := harness.RunFirewall42()
		tb := stats.NewTable("§4.2 — firewall cost and management policy",
			"quantity", "paper", "measured")
		tb.AddRow("remote write miss latency increase", "+6.3 % (pmake)", c.cell("write_miss_overhead_pct", "%+.1f %%", fw.WriteMissOverheadPct))
		tb.AddRow("pmake: avg remotely-writable pages/cell", "15", c.cell("pmake_avg_writable", "%.1f", fw.PmakeAvgWritable))
		tb.AddRow("pmake: max remotely-writable pages", "42 (/tmp server)", c.cell("pmake_max_writable", "%.0f", fw.PmakeMaxWritable))
		tb.AddRow("pmake: user pages per cell", "≈6000", c.cell("pmake_user_pages", "%.0f", fw.PmakeUserPages))
		tb.AddRow("ocean: avg remotely-writable pages/cell", "550", c.cell("ocean_avg_writable", "%.0f", fw.OceanAvgWritable))
		c.println(tb)
	}},

	{"traffic52", func(c *runCtx) {
		tr := harness.RunPmakeFaultTraffic()
		tb := stats.NewTable("§5.2 — pmake page-cache fault traffic",
			"quantity", "paper", "measured")
		tb.AddRow("page-cache faults (1 cell)", "8935", c.cell("faults_1cell", "%.0f", float64(tr.Faults1Cell)))
		tb.AddRow("page-cache faults (4 cells)", "8935", c.cell("faults_4cell", "%.0f", float64(tr.Faults4Cell)))
		tb.AddRow("remote on 4 cells", "4946", c.cell("remote_4cell", "%.0f", float64(tr.Remote4Cell)))
		tb.AddRow("cumulative fault time (1 cell)", "117 ms", c.cell("fault_ms_1cell", "%.1f ms", tr.FaultMs1Cell))
		tb.AddRow("cumulative fault time (4 cells)", "455 ms", c.cell("fault_ms_4cell", "%.1f ms", tr.FaultMs4Cell))
		c.println(tb)
	}},

	{"t74", func(c *runCtx) {
		rows := harness.RunTable74(c.scaled(1, 0.2))
		allOK := true
		for _, r := range rows {
			key := fmt.Sprintf("s%d", int(r.Scenario))
			c.metric(key+"_tests", float64(r.Tests))
			c.metric(key+"_avg_detect_ms", r.AvgDetect)
			c.metric(key+"_max_detect_ms", r.MaxDetect)
			c.metric(key+"_avg_recovery_ms", r.AvgRecov)
			allOK = allOK && r.AllOK
		}
		c.metric("all_contained", b2f(allOK))
		c.println(harness.FormatTable74(rows))
		c.println("paper: avg/max detect (ms) = 16/21, 10/11, 21/45, 38/65, 401/760; recovery 40-80 ms; all contained")
		c.println()
	}},

	{"reboot", func(c *runCtx) {
		rows := harness.RunRebootLoop(c.scaled(1, 0.5))
		allOK := true
		for _, r := range rows {
			key := fmt.Sprintf("s%d", int(r.Scenario))
			c.metric(key+"_tests", float64(r.Tests))
			c.metric(key+"_avg_restore_ms", r.AvgRestore)
			c.metric(key+"_p99_restore_ms", r.P99Restore)
			c.metric(key+"_loop_p99_ms", r.AvgLoopP99)
			allOK = allOK && r.AllOK
		}
		c.metric("all_contained", b2f(allOK))
		c.println(harness.FormatRebootLoop(rows))
		c.println("time-to-restored-full-capacity is death verdict → join-round commit;")
		c.println("loop p99 is the probe-op latency while the loop ran (§4.3 closed end-to-end).")
		c.println()
	}},

	{"frontend", func(c *runCtx) {
		rep := harness.RunFrontendSweep(c.scaled(1, 0.5))
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
		c.metric("all_contained", b2f(f.AllOK))
		c.println(harness.FormatFrontend(rep))
		c.println("open-loop arrivals in virtual time: the sweep is byte-identical at any -j;")
		c.println("the fault row kills a cell mid-surge and bounds the user-visible window by the restore time.")
		c.println()
	}},

	{"t81", func(c *runCtx) {
		hw := harness.RunHardware81()
		tb := stats.NewTable("Table 8.1 — custom hardware features",
			"feature", "functional")
		tb.AddRow("firewall (per-page write permission bit-vector)", c.flag("firewall", hw.Firewall))
		tb.AddRow("memory fault model (bus errors, no stalls)", c.flag("fault_model", hw.FaultModel))
		tb.AddRow("remap region (node-private trap vectors)", c.flag("remap_region", hw.RemapRegion))
		tb.AddRow("SIPS (short interprocessor send)", c.flag("sips", hw.SIPS))
		tb.AddRow("memory cutoff (panic isolation)", c.flag("cutoff", hw.Cutoff))
		c.println(tb)
	}},

	{"scale", func(c *runCtx) {
		rows := harness.RunScale([]int{8, 16, 32}, int(c.scaled(2, 1)))
		allContained := true
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
			allContained = allContained && r.Contained
		}
		c.metric("all_contained", b2f(allContained))
		c.println(harness.FormatScale(rows))
		for _, r := range rows {
			c.printf("engine rate at %d cells: %.0f ev/s (wall)\n", r.Cells, r.WallEventsPerSec)
		}
		c.println("recovery cost grows with round membership; containment must hold at every size.")
		c.println()
	}},

	{"scalability", func(c *runCtx) {
		points := harness.RunScalability([]int{1, 2, 4, 8, 16})
		tb := stats.NewTable("§1 ablation — shared-everything SMP OS vs multicellular Hive (kernel ops completed)",
			"CPUs", "SMP OS", "Hive (1 cell/CPU)", "Hive/SMP")
		for _, p := range points {
			tb.AddRow(fmt.Sprint(p.CPUs),
				c.cell(fmt.Sprintf("smp_ops_%dcpu", p.CPUs), "%.0f", float64(p.SMPOps)),
				c.cell(fmt.Sprintf("hive_ops_%dcpu", p.CPUs), "%.0f", float64(p.HiveOps)),
				fmt.Sprintf("%.2fx", float64(p.HiveOps)/float64(p.SMPOps)))
		}
		c.println(tb)
	}},

	{"cowlookup", func(c *runCtx) {
		r := harness.RunCOWLookupComparison()
		tb := stats.NewTable("§5.3 ablation — COW search: shared memory vs conventional RPC",
			"quantity", "shared memory", "RPC walk")
		tb.AddRow("cross-cell lookup (hit at root)",
			c.cell("sharedmem_us", "%.1f µs", r.SharedMemUs), c.cell("rpc_us", "%.1f µs", r.RPCUs))
		tb.AddRow("end-to-end touch (lookup + bind + access)",
			c.cell("touch_sm_us", "%.1f µs", r.TouchSMUs), c.cell("touch_rpc_us", "%.1f µs", r.TouchRPCUs))
		c.println(tb)
		c.println(`paper: "A more conventional RPC-based approach would be simpler and`)
		c.println(` probably just as fast" — the bind RPC dominates either way.`)
		c.println()
	}},

	{"sipsipi", func(c *runCtx) {
		r := harness.RunSIPSvsIPI()
		tb := stats.NewTable("§6 ablation — SIPS vs RPC layered on bare IPIs",
			"path", "round trip")
		tb.AddRow("SIPS (hardware message support)", c.cell("sips_us", "%.1f µs", r.SIPSUs))
		tb.AddRow("IPI + polled per-sender shared-memory queues", c.cell("ipi_us", "%.1f µs", r.IPIUs))
		c.println(tb)
	}},

	{"fwgran", func(c *runCtx) {
		bv, sb := harness.RunFirewallGranularity()
		tb := stats.NewTable("§4.2 ablation — firewall representation (wild writes blocked, 384 issued)",
			"design", "blocked")
		tb.AddRow("bit vector per page (FLASH)", c.cell("bitvector_blocked", "%.0f", float64(bv)))
		tb.AddRow("single bit per page (rejected: global grant)", c.cell("singlebit_blocked", "%.0f", float64(sb)))
		c.println(tb)
	}},

	{"ccnow", func(c *runCtx) {
		r := harness.RunCCNOW()
		tb := stats.NewTable("§8 — CC-NOW: Hive on a cache-coherent network of workstations (5 µs link)",
			"quantity", "measured")
		tb.AddRow("local page fault (unchanged)", c.cell("fault_local_us", "%.1f µs", r.FaultLocalUs))
		tb.AddRow("remote page fault over the NOW link", c.cell("fault_remote_us", "%.1f µs", r.FaultRemoteUs))
		tb.AddRow("failure detection", c.cell("detect_ms", "%.1f ms", r.DetectMs))
		tb.AddRow("containment", c.flag("contained", r.Contained))
		c.println(tb)
	}},

	{"agreement", func(c *runCtx) {
		ac := harness.RunAgreementComparison()
		tb := stats.NewTable("§4.3 ablation — agreement oracle vs real voting protocol",
			"mode", "detection (ms)", "confirmed")
		tb.AddRow("oracle (paper's configuration)", c.cell("oracle_detect_ms", "%.1f", ac.OracleDetectMs), "true")
		tb.AddRow("voting protocol", c.cell("vote_detect_ms", "%.1f", ac.VoteDetectMs), c.flag("vote_ok", ac.VoteOK))
		c.println(tb)
	}},

	{"detection", func(c *runCtx) {
		tb := stats.NewTable("§4.3 ablation — clock-check period vs window of vulnerability (3 trials each)",
			"check period", "avg detection")
		for _, p := range harness.DetectionCurve(3) {
			tb.AddRow(fmt.Sprintf("%.0f ms", p.CheckEveryMs),
				c.cell(fmt.Sprintf("detect_ms_at_%.0fms", p.CheckEveryMs), "%.1f ms", p.DetectMs))
		}
		c.println(tb)
	}},
}

func main() { os.Exit(run(os.Args[1:], os.Stdout)) }

// run parses args, runs the experiments they select and writes the tables
// or the -json report to stdout; errors go to stderr. It returns the exit
// status.
func run(args []string, stdout io.Writer) int {
	fs := flag.NewFlagSet("hivebench", flag.ContinueOnError)
	quick := fs.Bool("quick", false, "reduced fault-injection trial counts")
	only := fs.String("only", "", "run a single experiment by id")
	jobs := fs.Int("j", runtime.GOMAXPROCS(0), "parallel trial workers (1 = sequential)")
	jsonOut := fs.Bool("json", false, "emit a machine-readable benchmark report instead of tables")
	outPath := fs.String("o", "", "write the -json report to a file instead of stdout")
	if err := fs.Parse(args); err != nil {
		if errors.Is(err, flag.ErrHelp) {
			return 0
		}
		return 2
	}
	if *outPath != "" && !*jsonOut {
		fmt.Fprintln(os.Stderr, "hivebench: -o needs -json")
		return 2
	}
	ids := make([]string, len(experiments))
	for i, e := range experiments {
		ids[i] = e.id
	}
	if *only != "" && !slices.Contains(ids, *only) {
		fmt.Fprintf(os.Stderr, "hivebench: -only %s: no such experiment; ids are %s\n", *only, strings.Join(ids, ", "))
		return 2
	}
	parallel.SetDefaultWorkers(*jobs)

	c := &runCtx{quick: *quick, out: stdout}
	if *jsonOut {
		c.out = io.Discard
	}
	report := &benchReport{
		Name:        "hivebench",
		GoVersion:   runtime.Version(),
		GOMAXPROCS:  runtime.GOMAXPROCS(0),
		Jobs:        parallel.Default().Workers(),
		Quick:       *quick,
		Experiments: []experimentReport{},
	}
	start := time.Now()
	for _, e := range experiments {
		if *only != "" && *only != e.id {
			continue
		}
		c.metrics, c.info = map[string]float64{}, map[string]float64{}
		expStart := time.Now()
		e.run(c)
		rep := experimentReport{
			ID:      e.id,
			WallMs:  float64(time.Since(expStart).Microseconds()) / 1000,
			Metrics: c.metrics,
		}
		if len(c.info) > 0 {
			rep.Info = c.info
		}
		report.Experiments = append(report.Experiments, rep)
	}
	report.TotalWallMs = float64(time.Since(start).Microseconds()) / 1000

	c.println(strings.Repeat("-", 72))
	c.println("All numbers are from the deterministic FLASH/Hive simulation;")
	c.println("see EXPERIMENTS.md for the shape criteria and known deviations.")
	if !*jsonOut {
		return 0
	}
	enc, err := json.MarshalIndent(report, "", "  ")
	if err != nil {
		fmt.Fprintln(os.Stderr, "hivebench: marshal report:", err)
		return 1
	}
	enc = append(enc, '\n')
	if *outPath == "" {
		stdout.Write(enc)
		return 0
	}
	if err := os.WriteFile(*outPath, enc, 0o644); err != nil {
		fmt.Fprintln(os.Stderr, "hivebench: write report:", err)
		return 1
	}
	fmt.Fprintf(stdout, "wrote %s (%d experiments, %.0f ms total)\n",
		*outPath, len(report.Experiments), report.TotalWallMs)
	return 0
}
