package workload

import (
	"fmt"

	"repro/internal/core"
	"repro/internal/proc"
	"repro/internal/sim"
	"repro/internal/vm"
)

// PmakeConfig parameterizes the parallel-make generator. Defaults are
// calibrated so that on the paper's 4-CPU machine IRIX completes in
// ≈5.77 s and the per-job kernel-interaction profile matches §5.2
// (≈810 page-cache faults per compile, ≈55 % remote on four cells).
type PmakeConfig struct {
	Files    int // compilation units (11 files of GnuChess 3.1)
	Parallel int // concurrent jobs (make -j4)

	CompileCPU   sim.Time // pure user-mode compute per job
	Chunks       int      // compute is split into this many bursts
	SharedPages  int      // compiler text + headers faulted per job (first-touch)
	AnonPages    int      // private anonymous pages touched per job
	HdrOpens     int      // header/source opens per job
	SrcPages     int      // source pages read per job
	OutPages     int      // object-file pages written per job
	TmpMapPages  int      // /tmp temp-file pages write-mapped per job (§4.2)
	Tag          string   // file-name namespace ("chess" by default)
	NamespaceOps int      // stat-like probes on the shared tree per job (-I search)

	Seed uint64
	// InjectHook, when set, is called from the job's own task as each job
	// starts (the §7.4 "during process creation" trigger point).
	InjectHook func(job int)
}

// DefaultPmake returns the calibrated configuration.
func DefaultPmake() PmakeConfig {
	return PmakeConfig{
		Files:        11,
		Parallel:     4,
		CompileCPU:   1680 * sim.Millisecond,
		Chunks:       16,
		SharedPages:  590,
		AnonPages:    222,
		HdrOpens:     12,
		SrcPages:     90,
		OutPages:     50,
		TmpMapPages:  12,
		NamespaceOps: 2600,
		Tag:          "chess",
		Seed:         0x9A4E,
	}
}

// RunPmake executes the parallel make on the hive and blocks (in simulated
// time) until it completes or maxTime passes.
func RunPmake(h *core.Hive, cfg PmakeConfig, maxTime sim.Time) *Result {
	if cfg.Tag == "" {
		cfg.Tag = "chess"
	}
	res := &Result{Name: "pmake", Cells: len(h.Cells)}
	h0, m0, i0 := snapshotFaults(h)

	cells := len(h.Cells)
	srcHome := mountHome(h, "/usr") // the shared source tree's cell
	drv := driverCell(h)            // make driver: lowest live cell

	// Every path a job names more than once is built once per run: the
	// headers, the object files, and the temp-file probes (one for each
	// third stat probe, indexed by probe/3).
	hdrPaths := make([]string, cfg.HdrOpens)
	for j := range hdrPaths {
		hdrPaths[j] = fmt.Sprintf("/usr/include/h%d.h", j)
	}
	objPaths := make([]string, cfg.Files)
	for i := range objPaths {
		objPaths[i] = fmt.Sprintf("/tmp/%s%d.o", cfg.Tag, i)
	}
	tmpProbes := make([]string, 0, (cfg.NamespaceOps+1)/3)
	for s := 2; s < cfg.NamespaceOps; s += 3 {
		tmpProbes = append(tmpProbes, fmt.Sprintf("/tmp/cc%d.s", s))
	}

	// Build the shared tree: sources, headers, compiler text. Warm the
	// data home's cache (the paper warms the file cache before runs).
	setupDone := false
	h.Cells[srcHome].Procs.Spawn("pmake.setup", 100, func(p *proc.Process, t *sim.Task) {
		fsys := h.Cells[srcHome].FS
		mk := func(path string, pages int) bool {
			hd, err := fsys.Create(t, path)
			if err != nil {
				res.AddError("setup create %s: %v", path, err)
				return false
			}
			if err := fsys.Write(t, hd, pages, cfg.Seed); err != nil {
				res.AddError("setup write %s: %v", path, err)
				return false
			}
			fsys.Close(t, hd)
			return true
		}
		for i := 0; i < cfg.Files; i++ {
			if !mk(fmt.Sprintf("/usr/src/%s%d.c", cfg.Tag, i), cfg.SrcPages) {
				return
			}
		}
		for _, path := range hdrPaths {
			if !mk(path, 2) {
				return
			}
		}
		if !mk("/usr/bin/cc", cfg.SharedPages) {
			return
		}
		setupDone = true
	})
	if !h.RunUntil(func() bool { return setupDone }, h.Now()+20*sim.Second) {
		res.AddError("setup never finished")
		return res
	}

	// The make coordinator runs on the driver cell (the lowest live cell,
	// cell 0 on a healthy hive) and keeps Parallel jobs in flight,
	// spreading them round-robin across cells (the single-system image's
	// load balancing).
	ccKey := mustKey(h, srcHome, "/usr/bin/cc")
	start := h.Now()
	res.Started = start
	jobsDone := 0
	coordinatorDone := false

	jobBody := func(job int) proc.Body {
		return func(p *proc.Process, t *sim.Task) {
			if cfg.InjectHook != nil {
				cfg.InjectHook(job)
			}
			cell := h.Cells[p.Cell]
			pt := cell.Procs
			pt.Exec(t, p)

			// Header search and dependency checks: stat probes over the
			// shared source tree and the /tmp target directory (make
			// re-stats targets), the namespace traffic that dominates
			// compilation's kernel time.
			for s := 0; s < cfg.NamespaceOps; s++ {
				var path string
				switch s % 3 {
				case 0:
					path = hdrPaths[s%cfg.HdrOpens]
				case 1:
					path = objPaths[s%cfg.Files] // target check
				case 2:
					path = tmpProbes[s/3] // temp-file probe
				}
				if _, err := cell.FS.Stat(t, path); err != nil {
					return // server cell died mid-run
				}
			}

			// Open and read the source and headers.
			src, err := cell.FS.Open(t, fmt.Sprintf("/usr/src/%s%d.c", cfg.Tag, job))
			if err != nil {
				return
			}
			if _, err := cell.FS.Read(t, src, cfg.SrcPages); err != nil {
				return
			}
			for _, path := range hdrPaths {
				hd, err := cell.FS.Open(t, path)
				if err != nil {
					return
				}
				cell.FS.Close(t, hd)
			}

			// Write-map a temp file on the /tmp server for compiler
			// intermediates: these mappings are what opens the
			// firewall and produces the §4.2 remotely-writable page
			// population (avg ≈15/cell, max on the /tmp server).
			tmpF, err := cell.FS.Create(t, fmt.Sprintf("/tmp/%scc%d.tmp", cfg.Tag, job))
			if err != nil {
				return
			}
			for off := int64(0); off < int64(cfg.TmpMapPages); off++ {
				lp := vm.LogicalPage{Obj: vm.ObjID{Kind: vm.FileObj,
					Home: tmpF.Key.Home, Num: uint64(tmpF.Key.ID)}, Off: off}
				pf, err := p.MapShared(t, lp, true)
				if err != nil {
					return
				}
				cell.EP.M.WritePage(t, cell.Sched.Procs[0], pf.Frame, uint64(job)<<32|uint64(off))
			}

			// Compile: compute interleaved with first-touch faults on
			// the compiler text (shared, homed on cell 0) and private
			// anonymous pages.
			perChunkShared := cfg.SharedPages / cfg.Chunks
			perChunkAnon := cfg.AnonPages / cfg.Chunks
			var refs []*vm.Pfdat
			for ch := 0; ch < cfg.Chunks; ch++ {
				p.Compute(t, cfg.CompileCPU/sim.Time(cfg.Chunks))
				for k := 0; k < perChunkShared; k++ {
					off := int64(ch*perChunkShared + k)
					lp := vm.LogicalPage{Obj: vm.ObjID{Kind: vm.FileObj, Home: srcHome, Num: uint64(ccKey)}, Off: off}
					pf, err := cell.VM.Fault(t, lp, false)
					if err != nil {
						res.AddError("job %d: load /usr/bin/cc page %d: %v", job, off, err)
						return
					}
					refs = append(refs, pf)
				}
				for k := 0; k < perChunkAnon; k++ {
					if err := p.TouchAnon(t, int64(ch*perChunkAnon+k), true); err != nil {
						return
					}
				}
			}

			// Write the object file to /tmp (the file-server cell).
			out, err := cell.FS.Create(t, objPaths[job])
			if err != nil {
				return
			}
			if err := cell.FS.Write(t, out, cfg.OutPages, cfg.Seed+uint64(job)); err != nil {
				return
			}
			p.DependOn(out.Key.Home) // dirty data at the server
			cell.FS.Close(t, out)
			for _, pf := range refs {
				cell.VM.Unref(t, pf)
			}
		}
	}

	var makeProc *proc.Process
	makeProc = h.Cells[drv].Procs.Spawn("make", 101, func(p *proc.Process, t *sim.Task) {
		inFlight := 0
		next := 0
		pids := map[int]int{} // job -> pid (on job's cell)
		cellOf := map[int]int{}
		launch := func(job int) {
			// Place the job on the next live cell (the single-system
			// image does not schedule onto failed cells).
			target := job % cells
			for i := 0; i < cells && h.Cells[target].Failed(); i++ {
				target = (target + 1) % cells
			}
			pid, err := h.Cells[drv].Procs.Fork(t, p, target, fmt.Sprintf("cc%d", job), jobBody(job))
			if err != nil {
				res.AddError("fork job %d: %v", job, err)
				return
			}
			pids[job] = pid
			cellOf[job] = target
			inFlight++
		}
		for next < cfg.Files || inFlight > 0 {
			for inFlight < cfg.Parallel && next < cfg.Files {
				launch(next)
				next++
			}
			// Wait for any job to finish (poll at make's granularity).
			// Jobs are scanned in launch order, not map order: Get()
			// touches the scheduler, so the poll sequence is part of
			// the simulation's event order.
			t.Sleep(5 * sim.Millisecond)
			for job := 0; job < next; job++ {
				pid, ok := pids[job]
				if !ok {
					continue
				}
				tbl := h.Cells[cellOf[job]].Procs
				if tbl == nil {
					continue
				}
				if _, alive := tbl.Get(pid); !alive {
					delete(pids, job)
					inFlight--
					jobsDone++
				}
			}
			if h.Cells[drv].Failed() {
				return
			}
		}
		coordinatorDone = true
	})

	deadline := h.Now() + maxTime
	// The coordinator may be killed by recovery if a cell it forked to
	// fails — pmake used that cell's resources, so it is a legitimate
	// casualty (§2). The run ends either way.
	h.RunUntil(func() bool { return coordinatorDone || makeProc.Exited() }, deadline)
	res.Done = coordinatorDone
	if !coordinatorDone && makeProc.Exited() {
		res.AddError("make coordinator killed (depended on a failed cell)")
	}
	res.Elapsed = h.Now() - start
	for i := 0; i < cfg.Files; i++ {
		res.Outputs = append(res.Outputs, OutputFile{
			Path:  objPaths[i],
			Pages: cfg.OutPages,
			Seed:  cfg.Seed + uint64(i),
			Home:  tmpHome(h),
		})
	}
	res.finishStats(h, h0, m0, i0)
	return res
}

// tmpHome returns the cell serving /tmp.
func tmpHome(h *core.Hive) int { return mountHome(h, "/tmp") }

// mountHome returns the cell serving a mount prefix (cell 0 by default).
func mountHome(h *core.Hive, prefix string) int {
	for _, m := range h.Cfg.Mounts {
		if m.Prefix == prefix {
			return m.Cell
		}
	}
	return 0
}

// driverCell returns the lowest live cell — where workload drivers run.
// On a healthy hive this is cell 0; post-fault checks must not drive from
// a dead cell.
func driverCell(h *core.Hive) int {
	for _, c := range h.Cells {
		if !c.Failed() {
			return c.ID
		}
	}
	return 0
}

// mustKey resolves a path to its file ID at the data home (setup helper).
func mustKey(h *core.Hive, home int, path string) uint64 {
	var id uint64
	done := false
	h.Cells[home].Procs.Spawn("resolve", 102, func(p *proc.Process, t *sim.Task) {
		hd, err := h.Cells[home].FS.Open(t, path)
		if err == nil {
			id = uint64(hd.Key.ID)
		}
		done = true
	})
	h.RunUntil(func() bool { return done }, h.Now()+sim.Second)
	return id
}
