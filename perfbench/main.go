// Command perfbench is the repository's benchmark. It measures what the
// simulator costs to run (host time, allocations, memory) and checks what
// it simulates, on three workloads that load different layers:
//
//	pmake     closed loop: 4 compiles at a time on a 4-cell hive
//	frontend  open loop: 500k users, 64 tenants, 700 jobs/s, 2.5x burst, Wax on
//	campaign  trial 0 of seven fault scenarios, one at a time, each audited
//
// Usage (from the repository root; run.sh builds and runs it):
//
//	bash perfbench/run.sh --workload pmake --seed 1 --seconds 30 --trace 0
//
// The last line of standard output is one JSON object: correct, attempted,
// failed and metrics. With --trace 0 the metrics are the end-to-end ones;
// with --trace 1 they are the per-layer ones, and spans, layer counters and
// per-module CPU shares are written to
// .bench_build/perfbench/trace-<workload>-seed<n>.json.
//
// Host time is reported in reference-kernel units (refkernel.go): each
// unit's host seconds divided by the mean of a fixed reference kernel run
// just before and just after it, which cancels most of the drift a shared
// host's memory system shows from minute to minute. Simulated results are exact: every deterministic
// figure must repeat in every unit of a run, or the run fails.
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"io"
	"maps"
	"math"
	"os"
	"path/filepath"
	"runtime"
	"sort"
)

// gomaxprocs is pinned so that runs on hosts with different CPU counts
// schedule the simulation the same way; one goroutine drives it at a time.
const gomaxprocs = 2

type metricDef struct {
	name, unit string
}

// endToEnd are the metrics of an untraced run, per workload. Units
// starting with v are virtual (simulated) time: vs, vms, vus; they repeat
// exactly from run to run, unlike host time.
var endToEnd = []metricDef{
	{"setup_s", "s"},
	{"host_rel", "ref"},
	{"allocs_per_iter", "count"},
	{"alloc_mb_per_iter", "MB"},
	{"retained_mb_per_iter", "MB"},
	{"peak_rss_mb", "MB"},
	{"virtual_s", "vs"},
}

// perLayer are the metrics of a traced run. Counts are per unit (campaign:
// per slice of seven trials); a layer a workload does not reach reads 0.
var perLayer = append([]metricDef{
	{"sim.events", "count"}, {"sim.ns_per_event", "ns"}, {"sim.goroutines_left", "count"},
	{"machine.sips_sends", "count"}, {"machine.mem_reads", "count"}, {"machine.mem_writes", "count"},
	{"machine.firewall_grants", "count"}, {"machine.firewall_revocations", "count"},
	{"rpc.calls", "count"}, {"rpc.queued", "count"}, {"rpc.retries", "count"}, {"rpc.timeouts", "count"},
	{"rpc.retry_ratio", "ratio"}, {"rpc.call_p99_us", "vus"},
	{"vm.faults", "count"}, {"vm.remote_faults", "count"}, {"vm.remote_ratio", "ratio"},
	{"vm.fault_p99_us", "vus"}, {"vm.borrows", "count"},
	{"fs.remote_page_fetches", "count"}, {"fs.pages_written", "count"},
	{"proc.spawned", "count"}, {"proc.remote_forks", "count"},
	{"cow.remote_visits", "count"}, {"cow.copies", "count"}, {"sched.switches", "count"},
	{"wax.policy_rounds", "count"}, {"wax.hints_applied", "count"}, {"wax.hint_accept_ratio", "ratio"},
	{"wax.redirects", "count"},
	{"workload.shed", "count"}, {"workload.goodput_per_s", "1/vs"}, {"workload.p99_ms", "vms"},
	{"workload.slo_miss_ratio", "ratio"},
	{"membership.hints", "count"}, {"membership.rounds", "count"}, {"membership.round_restarts", "count"},
	{"careful.aborts", "count"}, {"trace.events_kept", "count"}, {"trace.dropped", "count"},
	{"faultinject.detect_ms", "vms"}, {"faultinject.recovery_ms", "vms"},
	{"forensic.analyze_s", "s"}, {"forensic.agree_ratio", "ratio"},
	{"core.boot_s", "s"}, {"core.check_s", "s"}, {"workload.verify_s", "s"},
	{"runtime.gc_cycles", "count"}, {"runtime.gc_cpu_s", "s"},
	{"host.iter_s", "s"}, {"host.ref_s", "s"}, {"host.trace_overhead", "ratio"},
}, shareDefs()...)

func shareDefs() []metricDef {
	var out []metricDef
	for _, m := range cpuModules {
		out = append(out, metricDef{m + ".cpu_share", "share"})
	}
	return out
}

// workloadDef sizes a workload: unitS is the nominal host seconds one
// measured unit takes on the reference host (2 vCPU, with the reference
// kernel and forced collections around it), so a run of --seconds does
// round(seconds/unitS) units. The count is fixed by --seconds alone, never
// by how fast this host happens to be, because every boot leaks and unit
// k behaves differently from unit 1. maxUnits bounds the heap the leak
// piles up.
type workloadDef struct {
	run      func(*run)
	unitS    float64
	maxUnits int
}

var workloads = map[string]workloadDef{
	"pmake":    {runPmake, 1.75, 24},
	"frontend": {runFrontend, 1.5, 24},
	"campaign": {runCampaign, 15, 3},
}

type result struct {
	Correct   bool                    `json:"correct"`
	Attempted int                     `json:"attempted"`
	Failed    int                     `json:"failed"`
	Metrics   map[string]metricResult `json:"metrics"`
}

type metricResult struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

func main() {
	name := flag.String("workload", "", "pmake, frontend or campaign")
	seed := flag.Int64("seed", 0, "input seed; 0 gives hivebench's inputs")
	seconds := flag.Int("seconds", 30, "nominal measuring time; fixes the unit count")
	traced := flag.Int("trace", 0, "1 = traced run: per-layer metrics, spans and CPU profile")
	flag.Parse()
	runtime.GOMAXPROCS(gomaxprocs)

	def, ok := workloads[*name]
	if !ok || *seconds < 1 || (*traced != 0 && *traced != 1) {
		fmt.Fprintf(os.Stderr, "perfbench: want --workload pmake|frontend|campaign, --seconds >= 1, --trace 0|1\n")
		os.Exit(2)
	}
	units := int(math.Round(float64(*seconds) / def.unitS))
	units = max(2, min(units, def.maxUnits))
	r := &run{seed: *seed, warmup: 1, units: units}
	if *traced == 1 {
		r.tr = newTracer()
	}
	res, err := execute(r, *name, os.Stdout)
	if err == nil && r.tr != nil {
		err = writeTrace(filepath.Join(".bench_build", "perfbench", fmt.Sprintf("trace-%s-seed%d.json", *name, *seed)), r, *name, res)
	}
	if err != nil {
		fmt.Fprintln(os.Stderr, "perfbench:", err)
		os.Exit(1)
	}
	line, err := json.Marshal(res)
	if err != nil {
		fmt.Fprintln(os.Stderr, "perfbench:", err)
		os.Exit(1)
	}
	fmt.Println(string(line))
	if !res.Correct {
		os.Exit(1)
	}
}

// execute runs the workload and builds its result, printing a readable
// summary (and any failures) to w first.
func execute(r *run, name string, w io.Writer) (*result, error) {
	workloads[name].run(r)
	rss, err := peakRSSMB()
	if err != nil {
		return nil, err
	}
	fig := figures(r)
	fig["peak_rss_mb"] = rss
	if r.tr != nil {
		shares, err := cpuShares(r.tr.profiles)
		if err != nil {
			return nil, err
		}
		for m, v := range shares {
			fig[m+".cpu_share"] = v
		}
	}

	fmt.Fprintf(w, "perfbench %s seed=%d units=%d warmup=%d gomaxprocs=%d %s\n",
		name, r.seed, r.units, r.warmup, runtime.GOMAXPROCS(0), runtime.Version())
	fmt.Fprintf(w, "  setup boots (s): %.4f\n", r.setupS)
	for i, s := range r.samples {
		fmt.Fprintf(w, "  unit %2d group %d  host %.4fs  ref %.4fs  rel %.4f  allocs %d  alloc %.1fMB  retained %.2fMB  gcs %d  profiled=%v\n",
			i, s.group, s.hostS, s.refS, s.rel(), s.allocs, float64(s.bytes)/mb, s.liveMB, s.gcs, s.profiled)
	}
	fmt.Fprintf(w, "  host.iter_s = %v  host.ref_s = %v  host_rel = %v\n", fig["host.iter_s"], fig["host.ref_s"], fig["host_rel"])
	names := make([]string, 0, len(r.layers))
	for k := range r.layers {
		names = append(names, k)
	}
	sort.Strings(names)
	for _, k := range names {
		fmt.Fprintf(w, "  %s = %v\n", k, r.layers[k])
	}
	for _, f := range r.failures {
		fmt.Fprintln(w, "  FAIL:", f)
	}

	defs := endToEnd
	if r.tr != nil {
		defs = perLayer
	}
	res := &result{
		Correct:   len(r.failures) == 0 && r.attempted > 0,
		Attempted: max(r.attempted, 1),
		Failed:    r.failed,
		Metrics:   map[string]metricResult{},
	}
	if r.failed == 0 && !res.Correct {
		res.Failed = 1 // a check outside the units failed: count the run
	}
	for _, d := range defs {
		res.Metrics[d.name] = metricResult{Value: fig[d.name], Unit: d.unit}
	}
	return res, nil
}

// figures derives every metric from the run. Host figures are medians
// over the measured units that ran without the profiler; a campaign unit
// is one trial, and its per-slice figures add up each scenario's median.
func figures(r *run) map[string]float64 {
	fig := maps.Clone(r.layers)
	var plain, profiled [][]sample // by group
	for _, s := range r.samples {
		into := &plain
		if s.profiled {
			into = &profiled
		}
		for len(*into) <= s.group {
			*into = append(*into, nil)
		}
		(*into)[s.group] = append((*into)[s.group], s)
	}
	perIter := func(groups [][]sample, f func(sample) float64) float64 {
		total := 0.0
		for _, ss := range groups {
			total += median(column(ss, f))
		}
		return total
	}
	fig["setup_s"] = median(r.setupS)
	fig["host_rel"] = perIter(plain, sample.rel)
	fig["host.iter_s"] = perIter(plain, func(s sample) float64 { return s.hostS })
	fig["host.ref_s"] = perIter(plain, func(s sample) float64 { return s.refS })
	fig["allocs_per_iter"] = perIter(plain, func(s sample) float64 { return float64(s.allocs) })
	fig["alloc_mb_per_iter"] = perIter(plain, func(s sample) float64 { return float64(s.bytes) / mb })
	fig["retained_mb_per_iter"] = perIter(plain, func(s sample) float64 { return s.liveMB })
	fig["sim.goroutines_left"] = perIter(plain, func(s sample) float64 { return float64(s.leftGos) })
	fig["runtime.gc_cycles"] = perIter(plain, func(s sample) float64 { return float64(s.gcs) })
	fig["runtime.gc_cpu_s"] = perIter(plain, func(s sample) float64 { return s.gcCPU })
	fig["sim.ns_per_event"] = ratio(fig["host.iter_s"]*1e9, fig["sim.events"])

	fig["machine.sips_sends"] = fig["sips.sends"]
	fig["machine.mem_reads"] = fig["mem.reads"]
	fig["machine.mem_writes"] = fig["mem.writes"]
	fig["machine.firewall_grants"] = fig["firewall.grants"]
	fig["machine.firewall_revocations"] = fig["firewall.revocations"]
	fig["wax.hints_applied"] = fig["cell.wax_hints_applied"]
	fig["wax.hint_accept_ratio"] = ratio(fig["wax.hints_applied"], fig["wax.hints_applied"]+fig["cell.wax_hints_rejected"])
	fig["rpc.retry_ratio"] = ratio(fig["rpc.retries"], fig["rpc.calls"])
	fig["vm.remote_ratio"] = ratio(fig["vm.remote_faults"], fig["vm.faults"])

	if tr := r.tr; tr != nil {
		fig["host.trace_overhead"] = ratio(perIter(profiled, sample.rel), fig["host_rel"]) - 1
		fig["core.boot_s"] = median(tr.durations("boot"))
		fig["core.check_s"] = median(tr.durations("check"))
		fig["workload.verify_s"] = median(tr.durations("verify"))
		analyze := 0.0
		if spans := tr.durations("analyze"); len(spans) > r.warmup {
			for _, d := range spans[r.warmup:] { // warm-up trials come first
				analyze += d
			}
		}
		fig["forensic.analyze_s"] = analyze / float64(r.units) // per slice
	}
	return fig
}
