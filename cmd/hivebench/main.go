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
// Experiments are deterministic simulations, and every output is a pure
// function of them: the tables and the JSON report are byte-identical on
// every run and at every -j, so `make bench-gate` diffs a fresh -quick
// report against BENCH_hive.json. The report holds every value the tables
// print and no wall-clock time; host time is measured from outside
// (`time hivebench -quick`) and by perfbench.
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
	"unicode"

	"repro/internal/faultinject"
	"repro/internal/harness"
	"repro/internal/parallel"
	"repro/internal/stats"
)

// experimentReport is one experiment's entry in the -json output: the
// metrics its tables print.
type experimentReport struct {
	ID      string             `json:"id"`
	Metrics map[string]float64 `json:"metrics"`
}

// benchReport is the full -json document.
type benchReport struct {
	Name        string             `json:"name"`
	Quick       bool               `json:"quick"`
	Experiments []experimentReport `json:"experiments"`
}

// runCtx threads the options, the table output and one experiment's
// metrics through the experiments. A measured value reaches a table only
// through the embedded Record's Cell or Flag, which records it: what a
// table prints is what the gate checks.
type runCtx struct {
	stats.Record
	quick bool
	out   io.Writer // the tables; io.Discard under -json
}

func (c *runCtx) printf(format string, args ...any) { fmt.Fprintf(c.out, format, args...) }

func (c *runCtx) println(args ...any) { fmt.Fprintln(c.out, args...) }

// printCampaign prints a campaign table and, under it, whether every row
// was contained, recorded as all_contained.
func (c *runCtx) printCampaign(tb *stats.Table, allOK bool) {
	c.printf("%sall contained: %s\n\n", tb, c.Flag("all_contained", allOK))
}

// componentKey names a Table 5.2 breakdown row's metric after its label:
// "client: file system" is client_file_system_us.
func componentKey(label string) string {
	words := strings.FieldsFunc(strings.ToLower(label), func(r rune) bool {
		return !unicode.IsLetter(r) && !unicode.IsDigit(r)
	})
	return strings.Join(words, "_") + "_us"
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
		tb.AddRow("careful_on → clock read → careful_off", "1.16 µs", c.Cell("careful_read_us", "%.2f µs", r.CarefulReadUs))
		tb.AddRow("  of which remote cache miss", "0.70 µs", c.Cell("miss_share_us", "%.2f µs", r.MissShareUs))
		tb.AddRow("null RPC alternative", "7.2 µs", c.Cell("null_rpc_us", "%.1f µs", r.NullRPCUs))
		c.println(tb)
	}},

	{"rpc6", func(c *runCtx) {
		r := harness.RunRPC6()
		tb := stats.NewTable("§6 — RPC subsystem latencies",
			"operation", "paper", "measured")
		tb.AddRow("null interrupt-level RPC", "7.2 µs", c.Cell("null_us", "%.1f µs", r.NullUs))
		tb.AddRow("common interrupt-level request (RPC component)", "9.6 µs", c.Cell("real_us", "%.1f µs", r.RealUs))
		tb.AddRow("request with >1 line of data (Table 5.2)", "17.3 µs", c.Cell("oversize_us", "%.1f µs", r.OversizeUs))
		tb.AddRow("null queued RPC", "34 µs", c.Cell("queued_us", "%.1f µs", r.QueuedUs))
		c.println(tb)
	}},

	{"t52", func(c *runCtx) {
		t52 := harness.RunTable52()
		tb := stats.NewTable("Table 5.2 — remote page fault latency",
			"quantity", "paper", "measured")
		tb.AddRow("local page fault (cache hit)", "6.9 µs", c.Cell("local_us", "%.1f µs", t52.LocalUs))
		tb.AddRow("remote page fault (data-home cache hit)", "50.7 µs", c.Cell("remote_us", "%.1f µs", t52.RemoteUs))
		c.println(tb)
		c.println("component means (calibrated decomposition):")
		for _, comp := range t52.Components {
			c.printf("  %-42s %s\n", comp.Label, c.Cell(componentKey(comp.Label), "%7.1f us", comp.Us))
		}
		c.printf("  %-42s %s\n", "TOTAL", c.Cell("breakdown_total_us", "%7.1f us", t52.ComponentTotal()))
		c.println()
	}},

	{"t73", func(c *runCtx) {
		t73 := harness.RunTable73()
		tb := stats.NewTable("Table 7.3 — local vs remote kernel operations",
			"operation", "paper local", "measured local", "paper remote", "measured remote")
		tb.AddRow("4 MB file read",
			"65.0 ms", c.Cell("read4mb_local_ms", "%.1f ms", t73.Read4MBLocalMs),
			"76.2 ms", c.Cell("read4mb_remote_ms", "%.1f ms", t73.Read4MBRemoteMs))
		tb.AddRow("4 MB file write/extend",
			"83.7 ms", c.Cell("write4mb_local_ms", "%.1f ms", t73.Write4MBLocalMs),
			"87.3 ms", c.Cell("write4mb_remote_ms", "%.1f ms", t73.Write4MBRemoteMs))
		tb.AddRow("open file",
			"148 µs", c.Cell("open_local_us", "%.1f µs", t73.OpenLocalUs),
			"580 µs", c.Cell("open_remote_us", "%.1f µs", t73.OpenRemoteUs))
		tb.AddRow("page fault hitting file cache",
			"6.9 µs", c.Cell("fault_local_us", "%.1f µs", t73.FaultLocalUs),
			"50.7 µs", c.Cell("fault_remote_us", "%.1f µs", t73.FaultRemoteUs))
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
				c.Cell(r.Workload+"_irix_s", "%.2f s", r.IRIXSec),
				c.Cell(r.Workload+"_slowdown1_pct", "%+.1f %%", r.Slowdown1),
				c.Cell(r.Workload+"_slowdown2_pct", "%+.1f %%", r.Slowdown2),
				c.Cell(r.Workload+"_slowdown4_pct", "%+.1f %%", r.Slowdown4))
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
		tb.AddRow("remote write miss latency increase", "+6.3 % (pmake)", c.Cell("write_miss_overhead_pct", "%+.1f %%", fw.WriteMissOverheadPct))
		tb.AddRow("pmake: avg remotely-writable pages/cell", "15", c.Cell("pmake_avg_writable", "%.1f", fw.PmakeAvgWritable))
		tb.AddRow("pmake: max remotely-writable pages", "42 (/tmp server)", c.Cell("pmake_max_writable", "%.0f", fw.PmakeMaxWritable))
		tb.AddRow("pmake: user pages per cell", "≈6000", c.Cell("pmake_user_pages", "%.0f", fw.PmakeUserPages))
		tb.AddRow("ocean: avg remotely-writable pages/cell", "550", c.Cell("ocean_avg_writable", "%.0f", fw.OceanAvgWritable))
		c.println(tb)
	}},

	{"traffic52", func(c *runCtx) {
		tr := harness.RunPmakeFaultTraffic()
		tb := stats.NewTable("§5.2 — pmake page-cache fault traffic",
			"quantity", "paper", "measured")
		tb.AddRow("page-cache faults (1 cell)", "8935", c.Cell("faults_1cell", "%.0f", float64(tr.Faults1Cell)))
		tb.AddRow("page-cache faults (4 cells)", "8935", c.Cell("faults_4cell", "%.0f", float64(tr.Faults4Cell)))
		tb.AddRow("remote on 4 cells", "4946", c.Cell("remote_4cell", "%.0f", float64(tr.Remote4Cell)))
		tb.AddRow("cumulative fault time (1 cell)", "117 ms", c.Cell("fault_ms_1cell", "%.1f ms", tr.FaultMs1Cell))
		tb.AddRow("cumulative fault time (4 cells)", "455 ms", c.Cell("fault_ms_4cell", "%.1f ms", tr.FaultMs4Cell))
		c.println(tb)
	}},

	{"t74", func(c *runCtx) { t74Table(c, harness.RunTable74(c.scaled(1, 0.2))) }},

	{"reboot", func(c *runCtx) { rebootTable(c, harness.RunRebootLoop(c.scaled(1, 0.5))) }},

	{"frontend", func(c *runCtx) { frontendTables(c, harness.RunFrontendSweep(c.scaled(1, 0.5))) }},

	{"t81", func(c *runCtx) {
		hw := harness.RunHardware81()
		tb := stats.NewTable("Table 8.1 — custom hardware features",
			"feature", "functional")
		tb.AddRow("firewall (per-page write permission bit-vector)", c.Flag("firewall", hw.Firewall))
		tb.AddRow("memory fault model (bus errors, no stalls)", c.Flag("fault_model", hw.FaultModel))
		tb.AddRow("remap region (node-private trap vectors)", c.Flag("remap_region", hw.RemapRegion))
		tb.AddRow("SIPS (short interprocessor send)", c.Flag("sips", hw.SIPS))
		tb.AddRow("memory cutoff (panic isolation)", c.Flag("cutoff", hw.Cutoff))
		c.println(tb)
	}},

	{"scale", func(c *runCtx) { scaleTable(c, harness.RunScale([]int{8, 16, 32}, int(c.scaled(2, 1)))) }},

	{"scalability", func(c *runCtx) {
		points := harness.RunScalability([]int{1, 2, 4, 8, 16})
		tb := stats.NewTable("§1 ablation — shared-everything SMP OS vs multicellular Hive (kernel ops completed)",
			"CPUs", "SMP OS", "Hive (1 cell/CPU)", "Hive/SMP")
		for _, p := range points {
			tb.AddRow(fmt.Sprint(p.CPUs),
				c.Cell(fmt.Sprintf("smp_ops_%dcpu", p.CPUs), "%.0f", float64(p.SMPOps)),
				c.Cell(fmt.Sprintf("hive_ops_%dcpu", p.CPUs), "%.0f", float64(p.HiveOps)),
				fmt.Sprintf("%.2fx", float64(p.HiveOps)/float64(p.SMPOps)))
		}
		c.println(tb)
	}},

	{"cowlookup", func(c *runCtx) {
		r := harness.RunCOWLookupComparison()
		tb := stats.NewTable("§5.3 ablation — COW search: shared memory vs conventional RPC",
			"quantity", "shared memory", "RPC walk")
		tb.AddRow("cross-cell lookup (hit at root)",
			c.Cell("sharedmem_us", "%.1f µs", r.SharedMemUs), c.Cell("rpc_us", "%.1f µs", r.RPCUs))
		tb.AddRow("end-to-end touch (lookup + bind + access)",
			c.Cell("touch_sm_us", "%.1f µs", r.TouchSMUs), c.Cell("touch_rpc_us", "%.1f µs", r.TouchRPCUs))
		c.println(tb)
		c.println(`paper: "A more conventional RPC-based approach would be simpler and`)
		c.println(` probably just as fast" — the bind RPC dominates either way.`)
		c.println()
	}},

	{"sipsipi", func(c *runCtx) {
		r := harness.RunSIPSvsIPI()
		tb := stats.NewTable("§6 ablation — SIPS vs RPC layered on bare IPIs",
			"path", "round trip")
		tb.AddRow("SIPS (hardware message support)", c.Cell("sips_us", "%.1f µs", r.SIPSUs))
		tb.AddRow("IPI + polled per-sender shared-memory queues", c.Cell("ipi_us", "%.1f µs", r.IPIUs))
		c.println(tb)
	}},

	{"fwgran", func(c *runCtx) {
		bv, sb := harness.RunFirewallGranularity()
		tb := stats.NewTable("§4.2 ablation — firewall representation (wild writes blocked, 384 issued)",
			"design", "blocked")
		tb.AddRow("bit vector per page (FLASH)", c.Cell("bitvector_blocked", "%.0f", float64(bv)))
		tb.AddRow("single bit per page (rejected: global grant)", c.Cell("singlebit_blocked", "%.0f", float64(sb)))
		c.println(tb)
	}},

	{"ccnow", func(c *runCtx) {
		r := harness.RunCCNOW()
		tb := stats.NewTable("§8 — CC-NOW: Hive on a cache-coherent network of workstations (5 µs link)",
			"quantity", "measured")
		tb.AddRow("local page fault (unchanged)", c.Cell("fault_local_us", "%.1f µs", r.FaultLocalUs))
		tb.AddRow("remote page fault over the NOW link", c.Cell("fault_remote_us", "%.1f µs", r.FaultRemoteUs))
		tb.AddRow("failure detection", c.Cell("detect_ms", "%.1f ms", r.DetectMs))
		tb.AddRow("containment", c.Flag("contained", r.Contained))
		c.println(tb)
	}},

	{"agreement", func(c *runCtx) {
		ac := harness.RunAgreementComparison()
		tb := stats.NewTable("§4.3 ablation — agreement oracle vs real voting protocol",
			"mode", "detection (ms)", "confirmed")
		tb.AddRow("oracle (paper's configuration)", c.Cell("oracle_detect_ms", "%.1f", ac.OracleDetectMs), c.Flag("oracle_ok", ac.OracleOK))
		tb.AddRow("voting protocol", c.Cell("vote_detect_ms", "%.1f", ac.VoteDetectMs), c.Flag("vote_ok", ac.VoteOK))
		c.println(tb)
	}},

	{"detection", func(c *runCtx) {
		tb := stats.NewTable("§4.3 ablation — clock-check period vs window of vulnerability (3 trials each)",
			"check period", "avg detection")
		for _, p := range harness.DetectionCurve(3) {
			tb.AddRow(fmt.Sprintf("%.0f ms", p.CheckEveryMs),
				c.Cell(fmt.Sprintf("detect_ms_at_%.0fms", p.CheckEveryMs), "%.1f ms", p.DetectMs))
		}
		c.println(tb)
	}},
}

// t74Table prints Table 7.4 and the paper's values.
func t74Table(c *runCtx, rows []*faultinject.CampaignRow) {
	allOK := true
	for _, r := range rows {
		allOK = allOK && r.AllOK
	}
	c.printCampaign(faultinject.Table74(rows, c.Record), allOK)
	c.println("paper: avg/max detect (ms) = 16/21, 10/11, 21/45, 38/65, 401/760; recovery 40-80 ms; all contained")
	c.println()
}

// rebootTable prints the availability-loop campaign.
func rebootTable(c *runCtx, rows []*faultinject.CampaignRow) {
	tb := stats.NewTable("availability loop — reboot, rejoin, restore",
		"scenario", "trials", "all ok", "avg restore (ms)", "p99 restore (ms)", "loop p99 op (ms)")
	allOK := true
	for _, r := range rows {
		key := fmt.Sprintf("s%d_", int(r.Scenario))
		restore := c.Cell(key+"avg_restore_ms", "%.1f ms", r.AvgRestore)
		p99 := c.Cell(key+"p99_restore_ms", "%.1f ms", r.P99Restore)
		if r.AvgRestore == 0 {
			// The bounded crash loop never restores; the row carries only
			// the during-loop latency.
			restore, p99 = "—", "—"
		}
		tb.AddRow(r.Name, c.Cell(key+"tests", "%.0f", float64(r.Tests)), c.Flag(key+"contained", r.AllOK),
			restore, p99, c.Cell(key+"loop_p99_ms", "%.1f ms", r.AvgLoopP99))
		allOK = allOK && r.AllOK
	}
	c.printCampaign(tb, allOK)
	c.println("time-to-restored-full-capacity is death verdict → join-round commit;")
	c.println("loop p99 is the probe-op latency while the loop ran (§4.3 closed end-to-end).")
	c.println()
}

// frontendTables prints the frontend's load sweep and its fault row.
func frontendTables(c *runCtx, rep *harness.FrontendReport) {
	tb := stats.NewTable("multi-tenant frontend — throughput vs offered load (4 cells, Wax on)",
		"offered", "users", "jobs/s in", "done/s", "goodput/s", "jobs", "shed", "p50", "p99", "p999")
	for _, p := range rep.Points {
		key := fmt.Sprintf("x%02.0f_", p.Multiplier*10)
		tb.AddRow(fmt.Sprintf("%.1fx", p.Multiplier),
			c.Cell(key+"users", "%.0f", float64(p.Users)),
			c.Cell(key+"offered_per_s", "%.0f", p.OfferedPerSec),
			c.Cell(key+"done_per_s", "%.0f", p.ThroughputPerSec),
			c.Cell(key+"goodput_per_s", "%.0f", p.GoodputPerSec),
			c.Cell(key+"jobs", "%.0f", float64(p.Completed)),
			c.Cell(key+"shed", "%.0f", float64(p.Shed)),
			c.Cell(key+"p50_us", "%.1f µs", p.Latency.P50),
			c.Cell(key+"p99_us", "%.1f µs", p.Latency.P99),
			c.Cell(key+"p999_us", "%.1f µs", p.Latency.P999))
	}
	f := rep.Fault
	tf := stats.NewTable("availability under fault — cell killed mid-surge",
		"trials", "contained", "avg window", "max window", "avg restore (ms)")
	tf.AddRow(c.Cell("surge_tests", "%.0f", float64(f.Tests)), c.Flag("all_contained", f.AllOK),
		c.Cell("surge_avg_window_ms", "%.1f ms", f.AvgWindow),
		c.Cell("surge_max_window_ms", "%.1f ms", f.MaxWindow),
		c.Cell("surge_avg_restore_ms", "%.1f ms", f.AvgRestore))
	c.println(tb)
	c.println(tf)
	c.println("open-loop arrivals in virtual time: the sweep is byte-identical at any -j;")
	c.println("the fault row kills a cell mid-surge and bounds the user-visible window by the restore time.")
	c.println()
}

// scaleTable prints the scaling suite, one row per cell count.
func scaleTable(c *runCtx, rows []harness.ScaleRow) {
	tb := stats.NewTable("Scaling — workloads and fault campaign vs cell count",
		"cells", "pmake s", "ocean s", "RPC calls", "RPC/s", "events", "events/s",
		"detect ms", "recov ms", "contained")
	allOK := true
	for _, r := range rows {
		key := fmt.Sprintf("_%dc", r.Cells)
		tb.AddRow(fmt.Sprint(r.Cells),
			c.Cell("pmake_s"+key, "%.2f", r.PmakeSec),
			c.Cell("ocean_s"+key, "%.2f", r.OceanSec),
			c.Cell("rpc_calls"+key, "%.0f", float64(r.RPCCalls)),
			c.Cell("rpc_per_s"+key, "%.0f", r.RPCPerSec),
			c.Cell("events"+key, "%.0f", float64(r.Events)),
			c.Cell("events_per_s"+key, "%.0f", r.EventsPerSec),
			c.Cell("detect_ms"+key, "%.1f", r.DetectMs),
			c.Cell("recovery_ms"+key, "%.1f", r.RecoveryMs),
			c.Flag("contained"+key, r.Contained))
		allOK = allOK && r.Contained
	}
	c.printCampaign(tb, allOK)
	c.println("recovery cost grows with round membership; containment must hold at every size.")
	c.println()
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
	report := &benchReport{Name: "hivebench", Quick: *quick, Experiments: []experimentReport{}}
	for _, e := range experiments {
		if *only != "" && *only != e.id {
			continue
		}
		c.Record = stats.Record{}
		e.run(c)
		report.Experiments = append(report.Experiments, experimentReport{ID: e.id, Metrics: c.Record})
	}

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
	fmt.Fprintf(stdout, "wrote %s (%d experiments)\n", *outPath, len(report.Experiments))
	return 0
}
