package harness

import (
	"fmt"

	"repro/internal/core"
	"repro/internal/faultinject"
	"repro/internal/machine"
	"repro/internal/membership"
	"repro/internal/parallel"
	"repro/internal/proc"
	"repro/internal/rpc"
	"repro/internal/sim"
	"repro/internal/smpos"
	"repro/internal/stats"
	"repro/internal/vm"
)

// Table74Row is one fault-injection scenario's aggregate.
type Table74Row = faultinject.CampaignRow

// RunTable74 executes the §7.4 campaign. scale ∈ (0,1] shrinks the trial
// counts proportionally for quick runs (1.0 = the paper's 49+20 trials).
func RunTable74(scale float64) []*Table74Row {
	scenarios := []faultinject.Scenario{
		faultinject.NodeFailProcCreate,
		faultinject.NodeFailCOWSearch,
		faultinject.NodeFailRandom,
		faultinject.CorruptAddrMap,
		faultinject.CorruptCOWTree,
	}
	// Flatten the campaign to (scenario, trial) units so the worker pool
	// load-balances across scenario boundaries; aggregate per scenario
	// afterwards in trial order (identical at any worker count).
	counts := make([]int, len(scenarios))
	total := 0
	for i, s := range scenarios {
		n := int(float64(s.PaperTests())*scale + 0.5)
		if n < 1 {
			n = 1
		}
		counts[i] = n
		total += n
	}
	trials := parallel.Map(parallel.Default(), total, func(i int) *faultinject.TrialResult {
		for si, n := range counts {
			if i < n {
				return faultinject.RunTrial(scenarios[si], i)
			}
			i -= n
		}
		panic("unreachable")
	})
	var rows []*Table74Row
	off := 0
	for si, s := range scenarios {
		rows = append(rows, faultinject.Aggregate(s, trials[off:off+counts[si]]))
		off += counts[si]
	}
	return rows
}

// RunRebootLoop executes the availability-loop campaign: the three reboot
// scenarios that close the fault → reboot → rejoin → full-capacity loop.
// scale ∈ (0,1] shrinks the trial counts for quick runs. The aggregates
// carry time-to-restored-full-capacity (AvgRestore/P99Restore) and the p99
// workload-op latency measured while the loop ran (AvgLoopP99).
func RunRebootLoop(scale float64) []*faultinject.CampaignRow {
	scenarios := []faultinject.Scenario{
		faultinject.FaultDuringReintegration,
		faultinject.CrashLoop,
		faultinject.RollingReboot,
	}
	counts := make([]int, len(scenarios))
	total := 0
	for i, s := range scenarios {
		n := int(float64(s.DefaultTests())*scale + 0.5)
		if n < 1 {
			n = 1
		}
		counts[i] = n
		total += n
	}
	trials := parallel.Map(parallel.Default(), total, func(i int) *faultinject.TrialResult {
		for si, n := range counts {
			if i < n {
				return faultinject.RunTrial(scenarios[si], i)
			}
			i -= n
		}
		panic("unreachable")
	})
	var rows []*faultinject.CampaignRow
	off := 0
	for si, s := range scenarios {
		rows = append(rows, faultinject.Aggregate(s, trials[off:off+counts[si]]))
		off += counts[si]
	}
	return rows
}

// FormatRebootLoop renders the availability-loop campaign table.
func FormatRebootLoop(rows []*faultinject.CampaignRow) string {
	tb := stats.NewTable("availability loop — reboot, rejoin, restore",
		"scenario", "trials", "all ok", "avg restore (ms)", "p99 restore (ms)", "loop p99 op (ms)")
	for _, r := range rows {
		restore, p99 := FormatMs(r.AvgRestore), FormatMs(r.P99Restore)
		if r.AvgRestore == 0 {
			// The bounded crash loop never restores; the row carries only
			// the during-loop latency.
			restore, p99 = "—", "—"
		}
		tb.AddRow(r.Name, fmt.Sprintf("%d", r.Tests), fmt.Sprint(r.AllOK),
			restore, p99, FormatMs(r.AvgLoopP99))
	}
	return tb.String()
}

// Hardware81 exercises every Table 8.1 hardware feature and reports which
// are functional.
type Hardware81 struct {
	Firewall    bool
	FaultModel  bool
	RemapRegion bool
	SIPS        bool
	Cutoff      bool
}

// RunHardware81 executes the feature self-tests.
func RunHardware81() *Hardware81 {
	out := &Hardware81{}
	h := twoCell()
	m := h.M
	runOn(h, 0, func(p *proc.Process, t *sim.Task) {
		proc0 := h.Cells[0].Sched.Procs[0]
		// Generate SIPS traffic (a ping RPC) before checking the counter.
		vet1(h.Cells[0].EP.Call(t, proc0, 1, membership.ProcPing, nil, rpc.CallOpts{}))
		lo1, _ := m.NodePages(1)
		// Firewall: remote write denied, local allowed.
		errRemote := m.WritePage(t, proc0, lo1, 1)
		lo0, _ := m.NodePages(0)
		errLocal := m.WritePage(t, proc0, lo0, 1)
		out.Firewall = errRemote != nil && errLocal == nil
		// Remap region: same architectural page, node-private frames.
		out.RemapRegion = m.RemapTranslate(m.Procs[0], 0) != m.RemapTranslate(m.Procs[1], 0)
		// SIPS: delivered earlier throughout boot; check the counter.
		out.SIPS = m.Metrics.Counter("sips.sends").Value() > 0
	})
	// Fault model: failed node gives bus errors, not stalls.
	m.Nodes[1].FailStop()
	runOn(h, 0, func(p *proc.Process, t *sim.Task) {
		proc0 := h.Cells[0].Sched.Procs[0]
		lo1, _ := m.NodePages(1)
		_, _, err := m.ReadPage(t, proc0, lo1)
		out.FaultModel = err != nil
	})
	// Cutoff.
	h2 := twoCell()
	h2.Cells[1].Panic("test")
	out.Cutoff = h2.M.Nodes[1].CutOff()
	return out
}

// Scalability runs the §1 scalability ablation: kernel-intensive load on a
// shared-everything SMP OS vs the multicellular Hive, at growing CPU
// counts. Returned map: cpus -> (smpOps, hiveOps).
type ScalabilityPoint struct {
	CPUs    int
	SMPOps  int64
	HiveOps int64
}

// RunScalability executes the ablation. Each (cpu count, OS design) probe
// is an independent boot, so the 2×len(cpuCounts) units fan out across the
// process-wide parallel runner.
func RunScalability(cpuCounts []int) []ScalabilityPoint {
	const (
		opService = 80 * sim.Microsecond
		burst     = 150 * sim.Microsecond
		duration  = 300 * sim.Millisecond
		procsPer  = 3
	)
	ops := parallel.Map(parallel.Default(), 2*len(cpuCounts), func(i int) int64 {
		n := cpuCounts[i/2]
		if i%2 == 0 {
			sys := smpos.Boot(n, smpos.DefaultConfig())
			return sys.ThroughputProbe(procsPer*n, opService, burst, duration)
		}
		cfg := core.DefaultConfig()
		cfg.Machine.Nodes = n
		cfg.Cells = n
		cfg.Mounts = nil
		h := core.Boot(cfg)
		return smpos.HiveThroughputProbe(h, procsPer, opService, burst, duration,
			smpos.DefaultConfig().LockedFraction)
	})
	var out []ScalabilityPoint
	for i, n := range cpuCounts {
		out = append(out, ScalabilityPoint{CPUs: n, SMPOps: ops[2*i], HiveOps: ops[2*i+1]})
	}
	return out
}

// AgreementComparison contrasts oracle and voting agreement (an ablation
// on the paper's §4.3 choice to defer the real protocol).
type AgreementComparison struct {
	OracleDetectMs float64
	VoteDetectMs   float64
	VoteOK         bool
}

// RunAgreementComparison fails one cell under each mode.
func RunAgreementComparison() *AgreementComparison {
	out := &AgreementComparison{}
	run := func(mode membership.AgreementMode) (float64, bool) {
		cfg := core.DefaultConfig()
		cfg.Machine.MemPerNodeMB = 8
		cfg.Agreement = mode
		h := core.Boot(cfg)
		h.Run(50 * sim.Millisecond)
		at := h.Eng.Now()
		h.Cells[2].FailHardware()
		ok := h.RunUntil(func() bool { return h.Coord.LiveCount() == 3 }, h.Eng.Now()+2*sim.Second)
		return (h.Coord.LastDetectAt - at).Millis(), ok
	}
	out.OracleDetectMs, _ = run(membership.Oracle)
	out.VoteDetectMs, out.VoteOK = run(membership.Vote)
	return out
}

// DetectionPoint is one point of the §4.3 tradeoff curve (DetectionCurve):
// a clock-check period and the mean detection latency, the window of
// vulnerability, it yields.
type DetectionPoint struct {
	CheckEveryMs float64
	DetectMs     float64
}

// RunDetectionSweepAt measures detection latency across injection phases
// with an explicit clock-check period (in ticks; 0 selects the default) —
// the real §4.3 frequency/vulnerability curve. Trials are independent
// boots and run on the process-wide parallel runner.
func RunDetectionSweepAt(checkEvery, trials int) (avg, max float64) {
	ds := parallel.Map(parallel.Default(), trials, func(i int) float64 {
		cfg := core.DefaultConfig()
		cfg.Machine.MemPerNodeMB = 4
		cfg.Seed = int64(31 + i*17)
		cfg.ClockCheckEvery = checkEvery
		h := core.Boot(cfg)
		h.Run(sim.Time(20+i*7) * sim.Millisecond)
		at := h.Eng.Now()
		h.Cells[1].FailHardware()
		h.RunUntil(func() bool { return h.Coord.LiveCount() == 3 }, h.Eng.Now()+2*sim.Second)
		return (h.Coord.LastDetectAt - at).Millis()
	})
	var sum float64
	for _, d := range ds {
		sum += d
		if d > max {
			max = d
		}
	}
	return sum / float64(trials), max
}

// DetectionCurve sweeps check periods and returns (periodMs, avgDetectMs)
// pairs — the vulnerability-window curve of §4.3.
func DetectionCurve(trials int) []DetectionPoint {
	var out []DetectionPoint
	for _, every := range []int{1, 2, 5, 10} {
		avg, _ := RunDetectionSweepAt(every, trials)
		out = append(out, DetectionPoint{
			CheckEveryMs: float64(every) * membership.TickInterval.Millis(),
			DetectMs:     avg,
		})
	}
	return out
}

// SIPSvsIPI measures the §6 hardware-support argument: a null round trip
// over SIPS vs the same exchange layered on bare interprocessor interrupts,
// where the receiver must poll one producer-consumer queue per sender in
// shared memory and the queue data ping-pongs between caches.
type SIPSvsIPI struct {
	SIPSUs float64
	IPIUs  float64
}

// RunSIPSvsIPI executes the measurement.
func RunSIPSvsIPI() *SIPSvsIPI {
	out := &SIPSvsIPI{}
	h := twoCell()
	m := h.M
	runOn(h, 0, func(p *proc.Process, t *sim.Task) {
		proc0 := h.Cells[0].Sched.Procs[0]
		const n = 64

		// SIPS round trip: the null RPC.
		start := t.Now()
		for i := 0; i < n; i++ {
			vet1(h.Cells[0].EP.Call(t, proc0, 1, membership.ProcPing, nil, rpc.CallOpts{}))
		}
		out.SIPSUs = (t.Now() - start).Micros() / n

		// IPI round trip: launch + queue write (remote misses for the
		// ping-ponging queue line), bare IPI, receiver polls per-sender
		// queues (modelled inside SendIPI), then the reverse path.
		start = t.Now()
		for i := 0; i < n; i++ {
			done := &sim.Future{}
			proc0.Use(t, rpc.ClientSendStub)
			m.RemoteMiss(t, proc0) // enqueue request into the shared queue
			m.SendIPI(t, proc0, 1, func() {
				// The receiver found the request after its poll; it
				// enqueues the reply (another ping-ponging line) and
				// fires the reply IPI.
				h.Eng.After(m.Cfg.UncachedNs+m.Cfg.MissNs+m.Cfg.IPINs, func() {
					// The client's reply interrupt polls its own
					// per-sender queues.
					m.Procs[0].Interrupt(m.Cfg.MissNs*sim.Time(m.Cfg.Nodes), func() {
						done.Set(nil, nil)
					})
				})
			})
			done.Wait(t)
			m.RemoteMiss(t, proc0) // read the reply line
			proc0.Use(t, rpc.ClientRecvStub)
		}
		out.IPIUs = (t.Now() - start).Micros() / n
	})
	return out
}

// COWLookupComparison is the §5.3 ablation: the shared-memory COW search
// (careful reference protocol) vs the conventional RPC walk. The paper
// concludes the RPC approach "would be simpler and probably just as fast";
// this measures both, for a hit in a cross-cell tree.
type COWLookupComparison struct {
	SharedMemUs float64
	RPCUs       float64
	TouchSMUs   float64 // end-to-end Touch incl. page binding
	TouchRPCUs  float64
}

// RunCOWLookupComparison executes the measurement.
func RunCOWLookupComparison() *COWLookupComparison {
	out := &COWLookupComparison{}
	h := twoCell()
	// Parent on cell 0 writes two pages, forks a child leaf to cell 1.
	runOn(h, 0, func(p *proc.Process, t *sim.Task) {
		if err := p.TouchAnon(t, 7, true); err != nil {
			return
		}
		if err := p.TouchAnon(t, 8, true); err != nil {
			return
		}
		_, childLeaf, err := h.Cells[0].COW.Fork(t, p.Leaf, 1)
		if err != nil {
			return
		}
		// Measure on cell 1 via a dedicated process there.
		done := false
		h.Cells[1].Procs.Spawn("measure", 801, func(cp *proc.Process, ct *sim.Task) {
			defer func() { done = true }()
			const n = 64
			mg := h.Cells[1].COW
			start := ct.Now()
			for i := 0; i < n; i++ {
				vet2(mg.LookupVia(ct, 0 /* SharedMemory */, childLeaf, 7))
			}
			out.SharedMemUs = (ct.Now() - start).Micros() / n
			start = ct.Now()
			for i := 0; i < n; i++ {
				vet2(mg.LookupVia(ct, 1 /* RPCWalk */, childLeaf, 7))
			}
			out.RPCUs = (ct.Now() - start).Micros() / n

			// End-to-end Touch (lookup + first bind + access) per mode,
			// on distinct pages so both pay the import RPC.
			start = ct.Now()
			if pf, err := mg.Touch(ct, childLeaf, 7, false); err == nil {
				out.TouchSMUs = (ct.Now() - start).Micros()
				pf.Refs++ // hold the bind out of the other measurement
				h.Cells[1].VM.Unref(ct, pf)
			}
			mg.Mode = 1 // RPCWalk
			start = ct.Now()
			if pf, err := mg.Touch(ct, childLeaf, 8, false); err == nil {
				out.TouchRPCUs = (ct.Now() - start).Micros()
				pf.Refs++
				h.Cells[1].VM.Unref(ct, pf)
			}
			mg.Mode = 0
		})
		for !done {
			t.Sleep(sim.Millisecond)
		}
	})
	return out
}

// FormatTable74 renders the campaign as Table 7.4.
func FormatTable74(rows []*Table74Row) string {
	tb := stats.NewTable("Table 7.4 — fault injection results",
		"scenario", "tests", "contained", "avg detect (ms)", "max detect (ms)", "avg recovery (ms)")
	for _, r := range rows {
		tb.AddRow(r.Scenario.String(), fmt.Sprint(r.Tests), fmt.Sprint(r.AllOK),
			fmt.Sprintf("%.1f", r.AvgDetect), fmt.Sprintf("%.1f", r.MaxDetect),
			fmt.Sprintf("%.1f", r.AvgRecov))
	}
	return tb.String()
}

// RunFirewallGranularity measures the §4.2 representation ablation: with a
// page write-shared between two cells, how many wild writes from the other
// cells does each firewall design block?
func RunFirewallGranularity() (bitVector, singleBit int64) {
	run := func(mode machine.FirewallMode) int64 {
		e := sim.NewEngine(17)
		cfg := machine.DefaultConfig()
		cfg.Nodes = 8
		cfg.MemPerNodeMB = 1
		cfg.FirewallMode = mode
		m := machine.New(e, cfg)
		lo, _ := m.NodePages(0)
		var blocked int64
		e.Go("t", func(t *sim.Task) {
			// Pages 0..63 of node 0, each write-shared with cell 1.
			for p := machine.PageNum(0); p < 64; p++ {
				m.GrantWrite(t, m.Procs[0], lo+p, m.NodeProcMask(1))
			}
			// Wild writes from every *other* node.
			for n := 2; n < 8; n++ {
				for p := machine.PageNum(0); p < 64; p++ {
					if !m.WildWrite(m.Procs[n], lo+p) {
						blocked++
					}
				}
			}
		})
		e.Run(0)
		return blocked
	}
	return run(machine.FirewallBitVector), run(machine.FirewallSingleBit)
}

// CCNOW runs the §8 CC-NOW direction: the same Hive on a machine whose
// remote memory is reached over a local-area network (microseconds, not
// hundreds of nanoseconds). Fault containment must be unaffected; remote
// operation latency stretches with the interconnect.
type CCNOW struct {
	FaultLocalUs    float64 // page fault, local (unchanged)
	FaultRemoteUs   float64 // page fault to the data home over the NOW link
	DetectMs        float64 // failure detection latency
	Contained       bool
	RemoteLatencyUs float64 // the configured NOW link latency
}

// RunCCNOW executes the experiment with a 5 µs remote memory latency.
func RunCCNOW() *CCNOW {
	out := &CCNOW{RemoteLatencyUs: 5}
	cfg := core.DefaultConfig()
	cfg.Machine.Nodes = 2
	cfg.Cells = 2
	cfg.Machine.RemoteMissNs = 5 * sim.Microsecond
	cfg.Mounts = nil
	cfg.Seed = 23
	h := core.Boot(cfg)

	runOn(h, 1, func(p *proc.Process, t *sim.Task) {
		hd := vet1(h.Cells[1].FS.Create(t, "/now/file"))
		vet(h.Cells[1].FS.Write(t, hd, 64, 3))
	})
	runOn(h, 0, func(p *proc.Process, t *sim.Task) {
		key := fileKey(h, 1, "/now/file")
		// Local baseline.
		hl := vet1(h.Cells[0].FS.Create(t, "/l"))
		vet(h.Cells[0].FS.Write(t, hl, 1, 4))
		lpl := vm.LogicalPage{Obj: vm.ObjID{Kind: vm.FileObj, Home: 0, Num: fileKey(h, 0, "/l")}}
		pf, _ := h.Cells[0].VM.Fault(t, lpl, false)
		start := t.Now()
		for i := 0; i < 32; i++ {
			pf2, _ := h.Cells[0].VM.Fault(t, lpl, false)
			h.Cells[0].VM.Unref(t, pf2)
		}
		out.FaultLocalUs = (t.Now() - start).Micros() / 32
		h.Cells[0].VM.Unref(t, pf)
		// Remote over the NOW link.
		start = t.Now()
		for off := int64(0); off < 32; off++ {
			lp := vm.LogicalPage{Obj: vm.ObjID{Kind: vm.FileObj, Home: 1, Num: key}, Off: off}
			rpf, err := h.Cells[0].VM.Fault(t, lp, false)
			if err != nil {
				continue
			}
			rpf.Refs++
			h.Cells[0].VM.Unref(t, rpf)
		}
		out.FaultRemoteUs = (t.Now() - start).Micros() / 32
	})

	// Containment across the NOW link.
	at := h.Eng.Now()
	h.Cells[1].FailHardware()
	out.Contained = h.RunUntil(func() bool { return h.Coord.LiveCount() == 1 }, h.Eng.Now()+2*sim.Second)
	out.DetectMs = (h.Coord.LastDetectAt - at).Millis()
	return out
}
