// Package harness regenerates every table and figure of the paper's
// evaluation (§4-§8) from the simulation. Each driver runs the relevant
// workload or microbenchmark and returns the measured values, all from
// virtual time and event counts, never the wall clock: the tests assert
// on them, and cmd/hivebench prints them next to the paper's numbers and
// records every value it prints as a metric that BENCH_hive.json pins
// exactly. The fault campaigns, the frontend sweep and the scaling suite
// also come with a renderer for their tables.
package harness

import (
	"fmt"

	"repro/internal/core"
	"repro/internal/fs"
	"repro/internal/machine"
	"repro/internal/membership"
	"repro/internal/parallel"
	"repro/internal/proc"
	"repro/internal/rpc"
	"repro/internal/sim"
	"repro/internal/stats"
	"repro/internal/vm"
	"repro/internal/workload"
)

// twoCell boots the microbenchmark machine: two processors, two cells
// (Table 7.3's measurement configuration).
func twoCell() *core.Hive {
	cfg := core.DefaultConfig()
	cfg.Machine.Nodes = 2
	cfg.Cells = 2
	cfg.Mounts = []fs.Mount{{Prefix: "/warm", Cell: 1}, {Prefix: "/shared", Cell: 1}}
	cfg.Seed = 7
	return core.Boot(cfg)
}

// runOn spawns fn as a process on the cell and drives the engine until it
// finishes.
func runOn(h *core.Hive, cell int, fn func(p *proc.Process, t *sim.Task)) {
	done := false
	h.Cells[cell].Procs.Spawn("bench", 800, func(p *proc.Process, t *sim.Task) {
		defer func() { done = true }()
		fn(p, t)
	})
	h.RunUntil(func() bool { return done }, h.Eng.Now()+120*sim.Second)
}

// Careful41 measures §4.1: the careful-reference clock read vs the RPC
// alternative.
type Careful41 struct {
	CarefulReadUs float64 // paper: 1.16 µs
	MissShareUs   float64 // paper: 0.7 µs of it is the cache miss
	NullRPCUs     float64 // paper: ≥7.2 µs
}

// RunCareful41 executes the measurement.
func RunCareful41() *Careful41 {
	h := twoCell()
	defer h.Eng.Stop()
	out := &Careful41{MissShareUs: h.Cfg.Machine.MissNs.Micros()}
	runOn(h, 0, func(p *proc.Process, t *sim.Task) {
		c := h.Cells[0]
		const n = 64
		start := t.Now()
		for i := 0; i < n; i++ {
			ctx := c.Reader.On(t, c.Sched.Procs[0], 1)
			ctx.ReadClock(h.Cells[1].Nodes[0])
			ctx.Off()
		}
		out.CarefulReadUs = (t.Now() - start).Micros() / n

		// The null RPC is the membership ping service, registered on
		// every cell.
		start = t.Now()
		for i := 0; i < n; i++ {
			vet1(c.EP.Call(t, c.Sched.Procs[0], 1, membership.ProcPing, nil, rpc.CallOpts{}))
		}
		out.NullRPCUs = (t.Now() - start).Micros() / n
	})
	return out
}

// RPC6 measures §6: null, practical, oversize, and queued RPC latencies.
type RPC6 struct {
	NullUs     float64 // paper: 7.2
	RealUs     float64 // paper: 9.6 (RPC component of common requests)
	OversizeUs float64 // Table 5.2's 17.3 µs RPC component
	QueuedUs   float64 // paper: 34
}

// RunRPC6 executes the measurement.
func RunRPC6() *RPC6 {
	h := twoCell()
	defer h.Eng.Stop()
	out := &RPC6{}
	// A queued-only echo service on cell 1.
	const echoQ rpc.ProcID = 900
	h.Cells[1].EP.Register(echoQ, "bench.echoq", nil,
		func(t *sim.Task, req *rpc.Request) (any, error) { return req.Args, nil })
	runOn(h, 0, func(p *proc.Process, t *sim.Task) {
		c := h.Cells[0]
		const n = 64
		measure := func(opts rpc.CallOpts, procID rpc.ProcID) float64 {
			start := t.Now()
			for i := 0; i < n; i++ {
				vet1(c.EP.Call(t, c.Sched.Procs[0], 1, procID, nil, opts))
			}
			return (t.Now() - start).Micros() / n
		}
		out.NullUs = measure(rpc.CallOpts{}, membership.ProcPing)
		out.RealUs = measure(rpc.CallOpts{DataBytes: 64}, membership.ProcPing)
		out.OversizeUs = measure(rpc.CallOpts{DataBytes: 512}, membership.ProcPing)
		out.QueuedUs = measure(rpc.CallOpts{}, echoQ)
	})
	return out
}

// Table52 measures the remote page-fault path and its breakdown.
type Table52 struct {
	LocalUs    float64 // paper: 6.9
	RemoteUs   float64 // paper: 50.7
	Components []Component
}

// Component is one row of Table 5.2's breakdown: its label and its cost
// in µs.
type Component struct {
	Label string
	Us    float64
}

// RunTable52 executes the measurement: 1024 faults that hit in the data
// home page cache, as in the paper.
func RunTable52() *Table52 {
	h := twoCell()
	defer h.Eng.Stop()
	out := &Table52{}
	// Data home (cell 1) creates and caches the file pages.
	const npages = 1024
	runOn(h, 1, func(p *proc.Process, t *sim.Task) {
		hd := vet1(h.Cells[1].FS.Create(t, "/shared"))
		vet(h.Cells[1].FS.Write(t, hd, npages, 5))
	})
	runOn(h, 0, func(p *proc.Process, t *sim.Task) {
		key := fileKey(h, 1, "/shared")
		// Local baseline: fault the same page of a local file.
		hdl := vet1(h.Cells[0].FS.Create(t, "/local"))
		vet(h.Cells[0].FS.Write(t, hdl, 1, 6))
		lpl := vm.LogicalPage{Obj: vm.ObjID{Kind: vm.FileObj, Home: 0, Num: fileKey(h, 0, "/local")}}
		pf, _ := h.Cells[0].VM.Fault(t, lpl, false)
		start := t.Now()
		const reps = 256
		for i := 0; i < reps; i++ {
			pf2, _ := h.Cells[0].VM.Fault(t, lpl, false)
			h.Cells[0].VM.Unref(t, pf2)
		}
		out.LocalUs = (t.Now() - start).Micros() / reps
		h.Cells[0].VM.Unref(t, pf)

		// Remote: 1024 distinct pages, all hitting the data home cache.
		start = t.Now()
		for off := int64(0); off < npages; off++ {
			lp := vm.LogicalPage{Obj: vm.ObjID{Kind: vm.FileObj, Home: 1, Num: key}, Off: off}
			rpf, err := h.Cells[0].VM.Fault(t, lp, false)
			if err != nil {
				continue
			}
			rpf.Refs++ // hold: avoid release RPCs inside the timing loop
			h.Cells[0].VM.Unref(t, rpf)
		}
		out.RemoteUs = (t.Now() - start).Micros() / npages
	})
	// Reconstruct the component view from the calibrated constants (the
	// same decomposition Table 5.2 reports).
	out.Components = []Component{
		{"client: file system", vm.FSClientCost.Micros()},
		{"client: locking overhead", vm.LockingCost.Micros()},
		{"client: miscellaneous VM", vm.MiscVMClient.Micros()},
		{"client: import page", vm.ImportCost.Micros()},
		{"data home: miscellaneous VM", vm.MiscVMDataHome.Micros()},
		{"data home: export page", vm.ExportCost.Micros()},
		{"RPC: stubs and subsystem", (rpc.ClientSendStub + rpc.ClientRecvStub + rpc.ServerDispatch + rpc.ServerReply + rpc.ExtraStubReal).Micros()},
		{"RPC: hardware message and interrupts", (2*(500+700+300) + rpc.IntrEntryExit + rpc.ExtraHWReal).Micros()},
		{"RPC: arg/result copy through shared memory", rpc.CopySharedMem.Micros()},
		{"RPC: allocate/free arg and result memory", rpc.AllocFreeArgMem.Micros()},
	}
	return out
}

// ComponentTotal sums the breakdown's rows in order (µs).
func (t *Table52) ComponentTotal() float64 {
	var total float64
	for _, c := range t.Components {
		total += c.Us
	}
	return total
}

// fileKey resolves a path to its FileID at its home cell.
func fileKey(h *core.Hive, home int, path string) uint64 {
	var id uint64
	runOn(h, home, func(p *proc.Process, t *sim.Task) {
		if hd, err := h.Cells[home].FS.Open(t, path); err == nil {
			id = uint64(hd.Key.ID)
		}
	})
	return id
}

// Table73 measures local vs remote kernel operation latency.
type Table73 struct {
	Read4MBLocalMs, Read4MBRemoteMs   float64 // paper: 65.0 / 76.2
	Write4MBLocalMs, Write4MBRemoteMs float64 // paper: 83.7 / 87.3
	OpenLocalUs, OpenRemoteUs         float64 // paper: 148 / 580
	FaultLocalUs, FaultRemoteUs       float64 // paper: 6.9 / 50.7
}

// RunTable73 executes the microbenchmarks on a two-processor two-cell
// system with a warm file cache, as in the paper.
func RunTable73() *Table73 {
	h := twoCell()
	defer h.Eng.Stop()
	out := &Table73{}
	const npages = 1024 // 4 MB
	runOn(h, 1, func(p *proc.Process, t *sim.Task) {
		fsys := h.Cells[1].FS
		hd := vet1(fsys.Create(t, "/warm/remote"))
		vet(fsys.Write(t, hd, npages, 2))
		hd2 := vet1(fsys.Create(t, "/warm/rw"))
		vet(fsys.Write(t, hd2, npages, 3))
	})
	runOn(h, 0, func(p *proc.Process, t *sim.Task) {
		fsys := h.Cells[0].FS
		// Local 4 MB read/write on cell 0's own files.
		hl := vet1(fsys.Create(t, "/l/file"))
		start := t.Now()
		vet(fsys.Write(t, hl, npages, 4))
		out.Write4MBLocalMs = (t.Now() - start).Millis()
		hl.Pos = 0
		start = t.Now()
		vet1(fsys.Read(t, hl, npages))
		out.Read4MBLocalMs = (t.Now() - start).Millis()

		// Remote read (cache-warm at the data home).
		hr := vet1(fsys.Open(t, "/warm/remote"))
		start = t.Now()
		vet1(fsys.Read(t, hr, npages))
		out.Read4MBRemoteMs = (t.Now() - start).Millis()

		// Remote write/extend.
		hw := vet1(fsys.Create(t, "/warm/newobj"))
		start = t.Now()
		vet(fsys.Write(t, hw, npages, 5))
		out.Write4MBRemoteMs = (t.Now() - start).Millis()

		// Opens (3-component paths as in the calibration).
		vet1(fsys.Create(t, "/l/sub/file2"))
		start = t.Now()
		const n = 32
		for i := 0; i < n; i++ {
			vet1(fsys.Open(t, "/l/sub/file2"))
		}
		out.OpenLocalUs = (t.Now() - start).Micros() / n
	})
	// Create the remote open target, then measure remote opens.
	runOn(h, 1, func(p *proc.Process, t *sim.Task) {
		vet1(h.Cells[1].FS.Create(t, "/warm/sub/x"))
	})
	runOn(h, 0, func(p *proc.Process, t *sim.Task) {
		start := t.Now()
		const n = 32
		for i := 0; i < n; i++ {
			vet1(h.Cells[0].FS.Open(t, "/warm/sub/x"))
		}
		out.OpenRemoteUs = (t.Now() - start).Micros() / n
	})
	t52 := RunTable52()
	out.FaultLocalUs = t52.LocalUs
	out.FaultRemoteUs = t52.RemoteUs
	return out
}

// Table72Row is one workload's timing across configurations.
type Table72Row struct {
	Workload    string
	IRIXSec     float64
	Slowdown1   float64 // percent vs IRIX
	Slowdown2   float64
	Slowdown4   float64
	RemoteNotes string
}

// RunTable72 executes the three workloads on IRIX and 1/2/4-cell Hive.
// The twelve (workload, system) configurations are independent boots, so
// they fan out across the process-wide parallel runner; slowdowns are then
// assembled from the ordered timings, identical at any worker count.
func RunTable72() []Table72Row {
	type runner func(h *core.Hive) *workload.Result
	workloads := []struct {
		name string
		run  runner
	}{
		{"ocean", func(h *core.Hive) *workload.Result {
			return workload.RunOcean(h, workload.DefaultOcean(), 120*sim.Second)
		}},
		{"raytrace", func(h *core.Hive) *workload.Result {
			return workload.RunRaytrace(h, workload.DefaultRaytrace(), 120*sim.Second)
		}},
		{"pmake", func(h *core.Hive) *workload.Result {
			return workload.RunPmake(h, workload.DefaultPmake(), 120*sim.Second)
		}},
	}
	systems := []int{0, 1, 2, 4} // 0 = the IRIX baseline
	elapsed := parallel.Map(parallel.Default(), len(workloads)*len(systems), func(i int) float64 {
		w := workloads[i/len(systems)]
		cells := systems[i%len(systems)]
		var h *core.Hive
		if cells > 0 {
			h = workload.BootHive(cells)
		} else {
			h = workload.BootIRIX()
		}
		defer h.Eng.Stop()
		return w.run(h).Elapsed.Seconds()
	})
	var rows []Table72Row
	for wi, w := range workloads {
		t := elapsed[wi*len(systems) : (wi+1)*len(systems)]
		base := t[0]
		rows = append(rows, Table72Row{
			Workload:  w.name,
			IRIXSec:   base,
			Slowdown1: (t[1]/base - 1) * 100,
			Slowdown2: (t[2]/base - 1) * 100,
			Slowdown4: (t[3]/base - 1) * 100,
		})
	}
	return rows
}

// Firewall42 measures §4.2: the firewall check's latency cost and the
// firewall management policy's remotely-writable page populations.
type Firewall42 struct {
	WriteMissOverheadPct float64 // paper: +6.3 % (pmake) remote write miss
	PmakeAvgWritable     float64 // paper: ≈15 pages/cell (max 42, /tmp server)
	PmakeMaxWritable     float64
	OceanAvgWritable     float64 // paper: ≈550 pages/cell
	PmakeUserPages       float64 // paper: ≈6000 user pages per cell
}

// RunFirewall42 executes the measurement.
func RunFirewall42() *Firewall42 {
	out := &Firewall42{}

	// Write-miss latency with and without the firewall check.
	measure := func(enabled bool) sim.Time {
		e := sim.NewEngine(3)
		cfg := machine.DefaultConfig()
		cfg.Nodes = 2
		cfg.MemPerNodeMB = 1
		cfg.FirewallEnabled = enabled
		m := machine.New(e, cfg)
		lo, _ := m.NodePages(0)
		var d sim.Time
		e.Go("w", func(t *sim.Task) {
			if enabled {
				m.GrantWrite(t, m.Procs[0], lo, m.NodeProcMask(1))
			}
			start := t.Now()
			for i := 0; i < 64; i++ {
				m.WritePage(t, m.Procs[1], lo, uint64(i))
			}
			d = (t.Now() - start) / 64
		})
		e.Run(0)
		return d
	}
	with, without := measure(true), measure(false)
	out.WriteMissOverheadPct = (float64(with)/float64(without) - 1) * 100

	// pmake: sample remotely-writable pages per cell every 20 ms.
	h := workload.BootHive(4)
	defer h.Eng.Stop()
	sampler := make([]*stats.Sampler, 4)
	for i := range sampler {
		cell := h.Cells[i]
		sampler[i] = &stats.Sampler{Interval: 20 * sim.Millisecond}
		sampler[i].Start(h.Eng, func() float64 { return float64(cell.VM.RemotelyWritablePages()) })
	}
	workload.RunPmake(h, workload.DefaultPmake(), 120*sim.Second)
	var sum, max float64
	for i, s := range sampler {
		s.Stop()
		sum += s.Mean()
		if s.Max() > max {
			max = s.Max()
		}
		_ = i
	}
	out.PmakeAvgWritable = sum / 4
	out.PmakeMaxWritable = max
	var up float64
	for _, c := range h.Cells {
		up += float64(c.VM.UserPages())
	}
	out.PmakeUserPages = up / 4

	// ocean: sample during the run.
	h2 := workload.BootHive(4)
	defer h2.Eng.Stop()
	sampler2 := make([]*stats.Sampler, 4)
	for i := range sampler2 {
		cell := h2.Cells[i]
		sampler2[i] = &stats.Sampler{Interval: 20 * sim.Millisecond}
		sampler2[i].Start(h2.Eng, func() float64 { return float64(cell.VM.RemotelyWritablePages()) })
	}
	workload.RunOcean(h2, workload.DefaultOcean(), 120*sim.Second)
	var sum2 float64
	for _, s := range sampler2 {
		s.Stop()
		sum2 += s.Mean()
	}
	out.OceanAvgWritable = sum2 / 4
	return out
}

// PmakeFaultTraffic reproduces the §5.2 fault-traffic analysis.
type PmakeFaultTraffic struct {
	Faults1Cell  int64 // paper: 8935 page-cache faults
	Faults4Cell  int64
	Remote4Cell  int64   // paper: 4946 remote
	FaultMs1Cell float64 // paper: 117 ms cumulative
	FaultMs4Cell float64 // paper: 455 ms cumulative
}

// RunPmakeFaultTraffic executes it.
func RunPmakeFaultTraffic() *PmakeFaultTraffic {
	out := &PmakeFaultTraffic{}
	h1 := workload.BootHive(1)
	defer h1.Eng.Stop()
	r1 := workload.RunPmake(h1, workload.DefaultPmake(), 120*sim.Second)
	out.Faults1Cell = r1.FaultHits
	out.FaultMs1Cell = float64(r1.FaultHits) * 6.9 / 1000
	h4 := workload.BootHive(4)
	defer h4.Eng.Stop()
	r4 := workload.RunPmake(h4, workload.DefaultPmake(), 120*sim.Second)
	out.Faults4Cell = r4.FaultHits
	out.Remote4Cell = r4.RemoteFaults
	local := float64(r4.FaultHits - r4.RemoteFaults)
	out.FaultMs4Cell = (local*6.9 + float64(r4.RemoteFaults)*50.7) / 1000
	return out
}

// formatUs formats a microsecond value.
func formatUs(v float64) string { return fmt.Sprintf("%.1f µs", v) }

// formatMs formats a millisecond value.
func formatMs(v float64) string { return fmt.Sprintf("%.1f ms", v) }
