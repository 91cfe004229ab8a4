package main

import (
	"fmt"
	"math/rand"
	"runtime"
	"time"

	"repro/internal/core"
	"repro/internal/faultinject"
	"repro/internal/forensic"
	"repro/internal/sim"
	"repro/internal/stats"
	"repro/internal/trace"
	"repro/internal/wax"
	"repro/internal/workload"
)

// Hivebench's seeds: --seed 0 reproduces the inputs BENCH_hive.json was
// measured on, and --seed n offsets the pmake and frontend seeds by n.
// Both keep the amount of simulated work: pmake's seed only tags file
// contents, and the frontend's reshapes its Poisson arrival stream.
const (
	pmakeBootSeed    = 1995 // core.DefaultConfig().Seed, the t72 pmake hive
	frontendBootSeed = 6137 // hivebench frontend sweep, 1x point
)

// campaignSlice is trial 0 of each scenario the campaign workload runs:
// between them they drive detection, agreement and recovery, careful
// reads, firewall revocation, rpc retry and dedup, reboot and join. The
// trials keep faultinject's own seeds, because where a fault lands sets
// how much a trial simulates: across trial seeds this slice's work varies
// by a fifth (CrashLoop's allocations by 2x), which would bury any
// host-cost change. --seed orders the slice instead, which keeps the work
// but moves each trial onto a different heap: with the leak piling up, a
// trial runs on top of whatever ran before it. MsgDrop, the
// largest allocator, always closes a slice: the process's peak RSS is
// reached while the last trial runs on top of everything leaked before it,
// and with MsgDrop last that sum does not depend on the order.
var campaignSlice = []faultinject.Scenario{
	faultinject.NodeFailProcCreate,
	faultinject.CorruptAddrMap,
	faultinject.DoubleFault,
	faultinject.CoordinatorDeath,
	faultinject.CrashLoop,
	faultinject.SurgeFault,
	faultinject.MsgDrop,
}

// run is one benchmark process: the workload's fixed unit sequence and
// everything measured on it.
type run struct {
	seed   int64
	warmup int // units run first and not measured
	units  int // measured units (campaign: slices of every scenario)
	tiny   bool
	tr     *tracer // nil in untraced runs

	setupS  []float64                    // each set-up boot, host seconds
	samples []sample                     // measured units, in order (campaign: trial by trial)
	det     map[int][]map[string]float64 // each measured unit's deterministic figures, by group
	layers  map[string]float64           // deterministic figures of one unit (campaign: one slice)

	attempted, failed int
	failures          []string
}

func (r *run) fail(format string, args ...any) {
	r.failures = append(r.failures, fmt.Sprintf(format, args...))
}

// profileUnit reports whether measured unit i runs under the CPU profiler:
// in traced runs every other unit does, so the untraced ones between them
// measure what tracing costs.
func (r *run) profileUnit(i int) bool { return r.tr != nil && i%2 == 1 }

// boot boots one 4-cell hive as set-up and records its host time. Each
// unit boots right before it, outside its timing, so the set-up boots
// spread over the whole run and their median does not hinge on what the
// machine was doing in one instant.
func (r *run) boot(seed int64) *core.Hive {
	var h *core.Hive
	runtime.GC() // so no collection of earlier garbage lands in the boot
	r.tr.do("boot", func() {
		t0 := time.Now()
		h = workload.BootHiveWith(4, seed, nil)
		r.setupS = append(r.setupS, time.Since(t0).Seconds())
	})
	return h
}

// unit runs one unit through the measurement protocol; warm-up units are
// run the same way and dropped.
func (r *run) unit(i, group int, body func()) {
	measured := i >= r.warmup
	s, err := measure(r.tr, measured && r.profileUnit(i-r.warmup), body)
	if err != nil {
		r.fail("%v", err)
	}
	s.group = group
	if measured {
		r.samples = append(r.samples, s)
	}
}

// checkDet requires a measured unit's deterministic figures to equal
// those of the first unit of its group.
func (r *run) checkDet(what string, group int, det map[string]float64) {
	if r.det == nil {
		r.det = map[int][]map[string]float64{}
	}
	if prev := r.det[group]; len(prev) > 0 {
		for k, v := range det {
			if prev[0][k] != v {
				r.fail("%s: %s = %v, first unit had %v", what, k, v, prev[0][k])
			}
		}
	}
	r.det[group] = append(r.det[group], det)
}

// --- pmake -----------------------------------------------------------

func pmakeConfig(seed int64, tiny bool) workload.PmakeConfig {
	cfg := workload.DefaultPmake()
	cfg.Seed += uint64(seed)
	if tiny {
		cfg.Files, cfg.NamespaceOps, cfg.CompileCPU = 2, 100, 100*sim.Millisecond
	}
	return cfg
}

// runPmake is the closed-loop make: 4 compiles at a time on a 4-cell
// hive, run to completion, then its outputs and the cross-cell kernel
// invariants are checked.
func runPmake(r *run) {
	cfg := pmakeConfig(r.seed, r.tiny)
	for i := 0; i < r.warmup+r.units; i++ {
		r.tr.begin("iteration")
		h := r.boot(pmakeBootSeed + r.seed)
		var res *workload.Result
		var bad int
		var inv []string
		r.unit(i, 0, func() {
			r.tr.do("run", func() { res = workload.RunPmake(h, cfg, 120*sim.Second) })
			r.tr.do("verify", func() { bad, _ = workload.VerifyOutputs(h, res) })
			r.tr.do("check", func() { inv = h.CheckInvariants() })
		})
		r.tr.end()
		if i < r.warmup {
			continue
		}
		r.attempted++
		ok := res.Done && len(res.Errors) == 0 && bad == 0 && len(inv) == 0
		if !ok {
			r.failed++
			r.fail("pmake iteration %d: done=%v errors=%v bad outputs=%d invariant violations=%v",
				i, res.Done, res.Errors, bad, inv)
		}
		layers := hiveLayers(h)
		layers["virtual_s"] = res.Elapsed.Seconds()
		r.checkDet("pmake", 0, layers)
		r.layers = layers
	}
}

// --- frontend --------------------------------------------------------

func frontendConfig(seed int64, tiny bool) workload.FrontendConfig {
	cfg := workload.DefaultFrontend()
	cfg.Seed += uint64(seed)
	if tiny {
		cfg.Users, cfg.Tenants, cfg.Duration = 5_000, 8, 300*sim.Millisecond
		cfg.BurstAt, cfg.BurstLen = 100*sim.Millisecond, 100*sim.Millisecond
	}
	return cfg
}

// runFrontend is the open-loop frontend under Wax: every arrival is timed
// from when it was due, so generator lateness shows as latency and shed
// arrivals.
func runFrontend(r *run) {
	cfg := frontendConfig(r.seed, r.tiny)
	for i := 0; i < r.warmup+r.units; i++ {
		r.tr.begin("iteration")
		h := r.boot(frontendBootSeed + r.seed)
		var res *workload.Result
		var fe *workload.FrontendResult
		var sup *wax.Supervisor
		r.unit(i, 0, func() {
			r.tr.do("run", func() {
				sup = wax.Supervise(h)
				res, fe = workload.RunFrontend(h, cfg, 60*sim.Second)
				sup.Stop()
			})
		})
		r.tr.end()
		if i < r.warmup {
			continue
		}
		r.attempted++
		drained := res.Done && fe.Lost == 0 // Lost = Issued - Completed
		if !drained || fe.ForkErrs != 0 || len(res.Errors) != 0 {
			r.failed++
			r.fail("frontend iteration %d: done=%v issued=%d completed=%d lost=%d fork errors=%d errors=%v",
				i, res.Done, fe.Issued, fe.Completed, fe.Lost, fe.ForkErrs, res.Errors)
		}
		layers := hiveLayers(h)
		layers["wax.policy_rounds"] = float64(sup.Cur.Metrics.Counter("wax.policy_rounds").Value())
		layers["wax.redirects"] = float64(fe.Redirects)
		layers["workload.shed"] = float64(fe.Shed)
		layers["virtual_s"] = res.Elapsed.Seconds()
		layers["workload.goodput_per_s"] = fe.GoodputPerSec
		layers["workload.p99_ms"] = fe.Latency.P99 / 1000
		layers["workload.slo_miss_ratio"] = ratio(float64(fe.Offered-fe.Good), float64(fe.Offered))
		r.checkDet("frontend", 0, layers)
		r.layers = layers
	}
}

// hiveLayers sums every cell's layer registries, plus the machine's, and
// counts the hive's trace. Counters add up by name; histograms merge by
// name across cells and report their p99.
func hiveLayers(h *core.Hive) map[string]float64 {
	out := map[string]float64{"sim.events": float64(h.Eng.Dispatched())}
	hists := map[string]*stats.Histogram{}
	add := func(reg *stats.Registry) {
		for _, name := range reg.CounterNames() {
			out[name] += float64(reg.Counter(name).Value())
		}
		for _, name := range reg.HistNames() {
			if hists[name] == nil {
				hists[name] = &stats.Histogram{}
			}
			hists[name].Merge(reg.Hist(name))
		}
	}
	add(h.M.Metrics)
	for _, c := range h.Cells {
		for _, reg := range []*stats.Registry{c.EP.Metrics, c.VM.Metrics, c.FS.Metrics, c.COW.Metrics,
			c.Procs.Metrics, c.Sched.Metrics, c.Mon.Metrics, c.Metrics} {
			add(reg)
		}
	}
	for name, hist := range hists {
		out[name+".p99"] = hist.Quantile(0.99)
	}
	out["rpc.call_p99_us"] = out["rpc.call_us.p99"]
	out["vm.fault_p99_us"] = out["vm.fault_us.p99"]
	out["vm.faults"] = out["vm.fault_hits"] + out["vm.fault_misses"]
	out["vm.remote_faults"] = out["vm.imports"]
	out["membership.round_restarts"] = float64(len(h.Trace.Filter(trace.RoundRestart)))
	out["careful.aborts"] = float64(len(h.Trace.Filter(trace.CarefulAbort)))
	out["trace.events_kept"] = float64(len(h.Trace.Merged()))
	out["trace.dropped"] = float64(h.Trace.TotalDropped())
	return out
}

// --- campaign --------------------------------------------------------

// runCampaign runs the slice one trial at a time, each with event capture
// and a forensic audit that must agree with the harness. Trials boot their
// own hives inside the unit, so set-up times a standalone boot before each
// trial. The warm-up trial is always the slice's first, cheapest scenario.
func runCampaign(r *run) {
	last := len(campaignSlice) - 1
	order := append(rand.New(rand.NewSource(r.seed)).Perm(last), last)
	if r.tiny {
		order = []int{0}
	}
	unit := 0
	runTrial := func(k int) {
		s := campaignSlice[k]
		var tr *faultinject.TrialResult
		var rep *forensic.Report
		r.tr.begin("trial")
		r.boot(pmakeBootSeed + r.seed)
		r.unit(unit, k, func() {
			r.tr.do("run", func() {
				tr = faultinject.RunTrialOpts(s, 0, faultinject.TrialOpts{KeepEvents: true, TraceCap: 1 << 16})
			})
			r.tr.do("analyze", func() { rep = forensic.Analyze(tr.Events, tr.Dropped) })
		})
		r.tr.end()
		unit++
		if unit <= r.warmup {
			return
		}
		r.attempted++
		agree := rep.Audit.Detected == tr.Detected && rep.Audit.Contained == tr.Contained
		if !tr.OK() || !agree {
			r.failed++
			r.fail("campaign %v: ok=%v forensic agrees=%v notes=%q", s, tr.OK(), agree, tr.Notes)
		}
		det := traceLayers(tr.Events, tr.Dropped)
		det["faultinject.detect_ms"] = tr.DetectMs
		det["faultinject.recovery_ms"] = tr.RecoveryMs
		if agree {
			det["forensic.agree"] = 1
		}
		r.checkDet(s.String(), k, det)
	}
	for w := 0; w < r.warmup; w++ {
		runTrial(0)
	}
	for n := 0; n < r.units; n++ {
		for _, k := range order {
			runTrial(k)
		}
	}

	// One slice's figures: counts summed over its trials, and detection and
	// recovery averaged over the trials that inject a fault into a cell.
	layers := map[string]float64{}
	var detect, recovery, faulted float64
	for k := range campaignSlice { // in slice order, so the sums are too
		units, ok := r.det[k]
		if !ok {
			continue
		}
		det := units[0]
		for name, v := range det {
			layers[name] += v
		}
		if det["faultinject.injected"] > 0 {
			faulted++
			detect += det["faultinject.detect_ms"]
			recovery += det["faultinject.recovery_ms"]
		}
	}
	layers["faultinject.detect_ms"] = ratio(detect, faulted)
	layers["faultinject.recovery_ms"] = ratio(recovery, faulted)
	layers["forensic.agree_ratio"] = ratio(layers["forensic.agree"], float64(len(r.det)))
	r.layers = layers
}

// traceLayers counts one trial's captured trace by kind: a trial does not
// return its hive, so its layer figures come from the events it recorded.
// The rings keep the newest events, so counts cover what was kept
// (trace.dropped says how much was not).
func traceLayers(events []trace.Event, dropped []trace.DropCount) map[string]float64 {
	out := map[string]float64{}
	kinds := map[trace.Kind]string{
		trace.SIPS: "sips.sends", trace.FirewallGrant: "firewall.grants", trace.FirewallRevoke: "firewall.revocations",
		trace.RPCSend: "rpc.calls", trace.RPCRetry: "rpc.retries", trace.RPCTimeout: "rpc.timeouts",
		trace.FaultBegin: "vm.faults", trace.Hint: "membership.hints", trace.RoundRestart: "membership.round_restarts",
		trace.CarefulAbort: "careful.aborts", trace.Inject: "faultinject.injected",
	}
	var last sim.Time
	for _, e := range events {
		if name, ok := kinds[e.Kind]; ok {
			out[name]++
		}
		switch {
		case e.Kind == trace.FaultBegin && e.A != int64(e.Cell):
			out["vm.remote_faults"]++ // 4 cells on the 4-node machine: node i is cell i
		case e.Kind == trace.PhaseBegin && e.S == "recovery:detect":
			out["membership.rounds"]++
		case e.Kind == trace.WaxHint && e.B == 1:
			out["cell.wax_hints_applied"]++
		case e.Kind == trace.WaxHint:
			out["cell.wax_hints_rejected"]++
		}
		if e.At > last {
			last = e.At
		}
	}
	for _, d := range dropped {
		out["trace.dropped"] += float64(d.Total())
	}
	out["trace.events_kept"] = float64(len(events))
	out["virtual_s"] = last.Seconds()
	return out
}

func ratio(a, b float64) float64 {
	if b == 0 {
		return 0
	}
	return a / b
}
