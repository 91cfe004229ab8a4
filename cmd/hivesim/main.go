// Command hivesim boots a hive (or the IRIX baseline), runs one workload
// on it, optionally fails a cell, and prints timing and kernel statistics.
// View flags add the operator's dashboard: per-cell snapshots of
// processes, memory pools, sharing state and RPC traffic as the run
// advances; the detection→alert→barrier1→barrier2→resume recovery
// timeline and the forensic report; latency histograms; and the tail of
// the event trace. A faulted run finishes its recovery (and, with
// -reboot, the availability loop) before it reports.
//
// Usage:
//
//	hivesim -workload pmake -cells 4
//	hivesim -workload ocean -irix
//	hivesim -workload raytrace -cells 2 -seed 7
//	hivesim -workload pmake -cells 4 -fail 1 -failat 2s
//	hivesim -cells 4 -fail 2 -trace out.json   # Chrome/Perfetto trace
//	hivesim -fail 2 -interval 1s -forensic -hist 3 -tail 12   # the dashboard
//	hivesim -fail 2 -failat 3s -reboot -forensic   # availability loop: reboot, rejoin, restore
//	hivesim -workload frontend -interval 1s        # open-loop multi-tenant frontend + SLO view
//	hivesim -workload frontend -fail 1 -reboot -forensic   # kill a cell mid-surge, watch the window
package main

import (
	"errors"
	"flag"
	"fmt"
	"io"
	"os"
	"sort"
	"strings"
	"time"

	hive "repro"
	"repro/internal/core"
	"repro/internal/forensic"
	"repro/internal/sim"
	"repro/internal/stats"
	"repro/internal/trace"
	"repro/internal/wax"
	"repro/internal/workload"
)

func main() { os.Exit(run(os.Args[1:], os.Stdout)) }

// run parses args, runs the workload they choose and writes its report to
// stdout; errors go to stderr. It returns the exit status: 2 for a bad
// flag (-irix with -cells or -reboot, a negative -failat, ...), 1 for a
// trace that cannot be written.
func run(args []string, stdout io.Writer) int {
	fs := flag.NewFlagSet("hivesim", flag.ContinueOnError)
	var (
		wl         = fs.String("workload", "pmake", "pmake | ocean | raytrace | frontend")
		cells      = fs.Int("cells", 4, fmt.Sprintf("number of cells (1..%d)", hive.MaxCells))
		irix       = fs.Bool("irix", false, "run the IRIX 5.2 baseline instead of Hive")
		seed       = fs.Int64("seed", 1995, "simulation seed")
		fail       = fs.Int("fail", -1, "inject a fail-stop fault into this cell")
		failAt     = fs.Duration("failat", 2*time.Second, "virtual time of the fault")
		reboot     = fs.Bool("reboot", false, "run the availability loop: reboot the failed cell, rejoin it, restore full capacity")
		statsOn    = fs.Bool("stats", false, "dump per-cell kernel counters")
		interval   = fs.Duration("interval", 0, "print a snapshot of every cell at this virtual period and at the end (0 = none)")
		forensicOn = fs.Bool("forensic", false, "print the recovery timeline (with -fail), the fault-propagation graph and the virtual-time profile")
		histRows   = fs.Int("hist", 0, "bucket rows per latency histogram (0 = none)")
		tailN      = fs.Int("tail", 0, "print the last N trace events (0 = none)")
		tracePath  = fs.String("trace", "", "write a Chrome trace-event JSON file (open in ui.perfetto.dev)")
	)
	if err := fs.Parse(args); err != nil {
		if errors.Is(err, flag.ErrHelp) {
			return 0
		}
		return 2
	}
	out := func(format string, a ...any) { fmt.Fprintf(stdout, format, a...) }
	set := map[string]bool{}
	fs.Visit(func(f *flag.Flag) { set[f.Name] = true })
	switch {
	case *irix && (set["cells"] || set["reboot"]):
		fmt.Fprintln(os.Stderr, "hivesim: -irix boots one cell with no reboot loop: -cells and -reboot are not read with it")
		return 2
	case *failAt < 0:
		fmt.Fprintf(os.Stderr, "hivesim: -failat %v: the fault's virtual time is 0 or later\n", *failAt)
		return 2
	}
	configure := func(cfg *core.Config) {
		if *tracePath != "" || *forensicOn {
			// Wide rings so a full workload's spans survive to export.
			cfg.TraceCap = 1 << 16
		}
		if *reboot {
			cfg.Reboot = core.RebootPolicy{Enabled: true}
		}
	}

	var h *core.Hive
	name := fmt.Sprintf("hive-%dcell", *cells)
	if *irix {
		h = workload.BootIRIXWith(*seed, configure)
		name = "IRIX"
	} else {
		if err := hive.ValidateCells(*cells); err != nil {
			fmt.Fprintln(os.Stderr, "hivesim:", err)
			return 2
		}
		h = workload.BootHiveWith(*cells, *seed, configure)
	}
	defer h.Eng.Stop()

	if *fail >= 0 {
		if *fail >= len(h.Cells) {
			fmt.Fprintf(os.Stderr, "no cell %d\n", *fail)
			return 2
		}
		h.Eng.At(sim.Time(failAt.Nanoseconds()), func() {
			out("[%v] injecting fail-stop fault into cell %d\n", h.Now(), *fail)
			h.Cells[*fail].FailHardware()
		})
	}
	if *interval > 0 {
		// Periodic snapshots, printed as the simulation advances.
		period := sim.Time(interval.Nanoseconds())
		var snap func()
		snap = func() {
			printSnapshot(stdout, h)
			h.Eng.After(period, snap)
		}
		h.Eng.After(period, snap)
	}

	const bound = 120 * sim.Second
	var res *workload.Result
	var fe *workload.FrontendResult
	switch *wl {
	case "pmake":
		res = workload.RunPmake(h, workload.DefaultPmake(), bound)
	case "ocean":
		res = workload.RunOcean(h, workload.DefaultOcean(), bound)
	case "raytrace":
		res = workload.RunRaytrace(h, workload.DefaultRaytrace(), bound)
	case "frontend":
		sup := wax.Supervise(h)
		res, fe = workload.RunFrontend(h, workload.DefaultFrontend(), bound)
		sup.Stop()
	default:
		fmt.Fprintf(os.Stderr, "unknown workload %q\n", *wl)
		return 2
	}
	// The workload driver returns once its jobs settle; keep the clock
	// running until recovery and the availability loop do too (rejoin
	// committed, or the crash-loop bound reached). Without a fault both
	// are idle already and no event runs.
	h.RunUntil(func() bool {
		return h.Coord.RecoveryIdle() && (h.Rebooter == nil || h.Rebooter.Idle())
	}, h.Now()+15*sim.Second)
	if *interval > 0 {
		printSnapshot(stdout, h)
	}
	if fe != nil {
		printFrontendSLO(stdout, fe)
	}

	if *forensicOn && *fail >= 0 {
		printRecoveryTimeline(stdout, h)
	}
	if dropped := h.Trace.TotalDropped(); dropped > 0 && (*forensicOn || *tailN > 0) {
		out("\nWARNING: %d trace events dropped by ring truncation:\n", dropped)
		for _, d := range h.Trace.Dropped() {
			if d.Total() > 0 {
				out("  cell %d: %d control + %d data\n", d.Cell, d.Control, d.Data)
			}
		}
		out("  (forensic walks and trace tails may be incomplete; raise TraceCap)\n")
	}
	if *forensicOn {
		out("\nforensics:\n")
		rep := forensic.Analyze(h.Trace.Merged(), h.Trace.Dropped())
		out("%s", rep.Format(3))
	}
	if *histRows > 0 {
		printHistograms(stdout, h, *histRows)
	}
	if *tailN > 0 {
		out("\nforensic event trace (last %d events):\n", *tailN)
		for _, e := range h.Trace.Tail(*tailN) {
			out("  %s\n", e)
		}
	}

	// The summary comes last: verifying the outputs reads them back
	// through the file system, which runs the simulation on.
	if *forensicOn || *histRows > 0 || *tailN > 0 {
		out("\n")
	}
	out("%s on %s: elapsed %.3fs (virtual), done=%v\n",
		res.Name, name, res.Elapsed.Seconds(), res.Done)
	out("  page-cache faults: %d (%d remote)\n", res.FaultHits, res.RemoteFaults)
	for _, e := range res.Errors {
		out("  error: %s\n", e)
	}
	if bad, report := workload.VerifyOutputs(h, res); bad > 0 {
		out("  DATA INTEGRITY VIOLATIONS: %d\n", bad)
		for _, r := range report {
			out("    %s\n", r)
		}
	} else if len(res.Outputs) > 0 {
		out("  outputs verified: no data integrity violations\n")
	}
	if *fail >= 0 {
		out("  live cells after fault: %d of %d\n", h.Coord.LiveCount(), len(h.Cells))
		if h.Coord.LastDetectAt > 0 {
			out("  last cell entered recovery %.1f ms after injection\n",
				(h.Coord.LastDetectAt - sim.Time(failAt.Nanoseconds())).Millis())
		}
	}
	if *statsOn {
		for _, c := range h.Cells {
			out("cell %d counters:\n%s", c.ID, c.VM.Metrics.Snapshot())
			out("%s", c.EP.Metrics.Snapshot())
			out("%s", c.FS.Metrics.Snapshot())
		}
	}

	if *tracePath != "" {
		f, err := os.Create(*tracePath)
		if err != nil {
			fmt.Fprintf(os.Stderr, "hivesim: %v\n", err)
			return 1
		}
		err = h.Trace.ExportChrome(f)
		if cerr := f.Close(); err == nil {
			err = cerr
		}
		if err != nil {
			fmt.Fprintf(os.Stderr, "hivesim: export trace: %v\n", err)
			return 1
		}
		out("  trace written to %s (load in ui.perfetto.dev or chrome://tracing)\n", *tracePath)
	}
	return 0
}

func printSnapshot(w io.Writer, h *core.Hive) {
	tb := stats.NewTable(fmt.Sprintf("t=%v", h.Now()),
		"cell", "state", "procs", "free pages", "borrowed", "loaned", "rw pages", "rpc calls", "intr served")
	for _, c := range h.Cells {
		state := "up"
		if c.Failed() {
			state = "DOWN"
		}
		tb.AddRow(
			fmt.Sprint(c.ID), state,
			fmt.Sprint(c.Procs.Live()),
			fmt.Sprint(c.VM.FreePages()),
			fmt.Sprint(c.VM.BorrowedFrames()),
			fmt.Sprint(c.VM.LoanedFrames()),
			fmt.Sprint(c.VM.RemotelyWritablePages()),
			fmt.Sprint(c.EP.Metrics.Counter("rpc.calls").Value()),
			fmt.Sprint(c.EP.Metrics.Counter("rpc.intr_served").Value()),
		)
	}
	fmt.Fprintln(w, tb)
}

// printRecoveryTimeline reconstructs the detection→alert→barrier1→barrier2
// →resume sequence from the structured trace, per cell, in virtual time.
// With the availability loop on, the same view continues through the
// reboot and join:* phases and ends with the capacity-restored marker.
func printRecoveryTimeline(w io.Writer, h *core.Hive) {
	timelinePhase := func(b trace.Event) bool {
		return b.Kind == trace.PhaseBegin &&
			(strings.HasPrefix(b.S, "recovery:") || strings.HasPrefix(b.S, "join:"))
	}
	phases := 0
	fmt.Fprintln(w, "\nrecovery timeline (virtual time):")
	open := trace.Pair(h.Trace.Merged(), func(b, e trace.Event) {
		if timelinePhase(b) {
			phases++
			fmt.Fprintf(w, "  %10.3f ms  cell %d  %-18s %8.3f ms\n",
				b.At.Millis(), e.Cell, e.S, (e.At - b.At).Millis())
		}
	}, func(e trace.Event) {
		switch e.Kind {
		case trace.Hint, trace.Alert, trace.Vote, trace.Panic:
			fmt.Fprintf(w, "  %10.3f ms  cell %d  %s\n", e.At.Millis(), e.Cell, e.Detail())
		case trace.Reboot:
			fmt.Fprintf(w, "  %10.3f ms  cell %d  REBOOT attempt %d: %s\n",
				e.At.Millis(), e.A, e.B, e.S)
		case trace.Rejoin:
			fmt.Fprintf(w, "  %10.3f ms  cell %d  REJOIN committed (join round led by cell %d)\n",
				e.At.Millis(), e.A, e.B)
		}
	})
	for _, b := range open {
		if timelinePhase(b) {
			phases++
			fmt.Fprintf(w, "  %10.3f ms  cell %d  %-18s (unfinished)\n",
				b.At.Millis(), b.Cell, b.S)
		}
	}
	if phases == 0 {
		fmt.Fprintln(w, "  (no recovery phases recorded)")
	}
	if rb := h.Rebooter; rb != nil {
		if rb.FullCapacityAt > 0 {
			fmt.Fprintf(w, "  %10.3f ms  ── FULL CAPACITY RESTORED (%d/%d cells live) ──\n",
				rb.FullCapacityAt.Millis(), h.Coord.LiveCount(), len(h.Cells))
		}
		for _, rec := range rb.Records {
			if rec.Restored() {
				fmt.Fprintf(w, "  cell %d restored in %.3f ms (death verdict → join commit, %d attempt(s))\n",
					rec.Cell, (rec.RejoinAt - rec.DeadAt).Millis(), rec.Attempts)
			} else if rec.GaveUp {
				fmt.Fprintf(w, "  cell %d NOT restored: gave up after %d attempt(s)\n",
					rec.Cell, rec.Attempts)
			}
		}
	}
}

// printFrontendSLO is the operator's SLO view of a frontend run: the
// aggregate counters and latency quantiles, the availability window if
// the run rode through a fault, and the busiest tenants of the Zipf mix.
func printFrontendSLO(w io.Writer, fe *workload.FrontendResult) {
	fmt.Fprintln(w, "\nfrontend SLO view:")
	fmt.Fprintf(w, "  offered %d (%.0f/s)  issued %d  shed %d  completed %d  lost %d\n",
		fe.Offered, fe.OfferedPerSec, fe.Issued, fe.Shed, fe.Completed, fe.Lost)
	fmt.Fprintf(w, "  throughput %.0f/s  goodput %.0f/s (%d jobs within SLO)\n",
		fe.ThroughputPerSec, fe.GoodputPerSec, fe.Good)
	fmt.Fprintf(w, "  latency p50 %.1fµs  p99 %.1fµs  p999 %.1fµs  max %.1fµs\n",
		fe.Latency.P50, fe.Latency.P99, fe.Latency.P999, fe.Latency.Max)
	if fe.Degraded > 0 || fe.ErrWindowMs > 0 {
		fmt.Fprintf(w, "  degraded arrivals %d  user-visible window %.1fms\n",
			fe.Degraded, fe.ErrWindowMs)
	}
	tb := stats.NewTable("busiest tenants", "tenant", "issued", "done", "done %")
	type trow struct {
		id     int
		issued int64
		done   int64
	}
	rows := make([]trow, len(fe.TenantIssued))
	for i := range fe.TenantIssued {
		rows[i] = trow{i, fe.TenantIssued[i], fe.TenantDone[i]}
	}
	sort.Slice(rows, func(i, j int) bool {
		if rows[i].issued != rows[j].issued {
			return rows[i].issued > rows[j].issued
		}
		return rows[i].id < rows[j].id
	})
	for i, r := range rows {
		if i == 8 || r.issued == 0 {
			break
		}
		pct := 0.0
		if r.issued > 0 {
			pct = 100 * float64(r.done) / float64(r.issued)
		}
		tb.AddRow(fmt.Sprint(r.id), fmt.Sprint(r.issued), fmt.Sprint(r.done),
			fmt.Sprintf("%.1f%%", pct))
	}
	fmt.Fprintln(w, tb)
}

// printHistograms shows each cell's top latency distributions.
func printHistograms(w io.Writer, h *core.Hive, rows int) {
	fmt.Fprintln(w, "\nlatency histograms (µs):")
	for _, c := range h.Cells {
		for _, src := range []struct {
			reg  *stats.Registry
			name string
		}{
			{c.EP.Metrics, "rpc.call_us"},
			{c.VM.Metrics, "vm.fault_us"},
		} {
			hist := src.reg.Hist(src.name)
			if hist.N() == 0 {
				continue
			}
			fmt.Fprintf(w, "cell %d %s:\n%s", c.ID, src.name, hist.Snapshot().Format(rows))
		}
	}
}
