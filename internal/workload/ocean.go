package workload

import (
	"repro/internal/core"
	"repro/internal/cow"
	"repro/internal/kmem"
	"repro/internal/proc"
	"repro/internal/sim"
	"repro/internal/vm"
)

// OceanConfig parameterizes the SPLASH-2 ocean generator: a spanning
// parallel application (one thread per CPU) whose threads write-share the
// data segment. Each thread owns a grid partition placed in its cell's
// memory; every thread maps every partition writable, which is what makes
// ≈550 pages per cell remotely writable in the §4.2 firewall study.
type OceanConfig struct {
	Threads    int      // one per CPU (4)
	GridPages  int      // total data segment pages (130×130 grid + arrays)
	Iterations int      // outer time steps
	StepCPU    sim.Time // compute per thread per step
	Boundary   int      // neighbour-partition pages written per step
	InitPages  int      // input file pages read during initialization
	Seed       uint64
}

// DefaultOcean returns the calibrated configuration (IRIX ≈6.07 s).
func DefaultOcean() OceanConfig {
	return OceanConfig{
		Threads:    4,
		GridPages:  2200,
		Iterations: 30,
		StepCPU:    201 * sim.Millisecond,
		Boundary:   32,
		InitPages:  64,
		Seed:       0x0CEA,
	}
}

// RunOcean executes the workload and blocks until completion or maxTime.
func RunOcean(h *core.Hive, cfg OceanConfig, maxTime sim.Time) *Result {
	res := &Result{Name: "ocean", Cells: len(h.Cells)}
	h0, m0, i0 := snapshotFaults(h)

	// Input file on cell 0, cache warmed by setup.
	setupDone := false
	h.Cells[0].Procs.Spawn("ocean.setup", 200, func(p *proc.Process, t *sim.Task) {
		hd, err := h.Cells[0].FS.Create(t, "/data/ocean.in")
		if err != nil {
			res.AddError("setup create: %v", err)
		} else {
			if werr := h.Cells[0].FS.Write(t, hd, cfg.InitPages, cfg.Seed); werr != nil {
				res.AddError("setup write: %v", werr)
			}
			h.Cells[0].FS.Close(t, hd)
		}
		setupDone = true
	})
	if !h.RunUntil(func() bool { return setupDone }, h.Now()+20*sim.Second) {
		res.AddError("setup never finished")
		return res
	}

	// One thread per CPU, spread over the cells (a spanning task).
	var tables []*proc.Table
	for i := 0; i < cfg.Threads; i++ {
		tables = append(tables, h.Cells[i%len(h.Cells)].Procs)
	}
	part := cfg.GridPages / cfg.Threads
	leaves := make([]kmem.Addr, cfg.Threads)
	ready := sim.NewBarrier(cfg.Threads)
	stepBar := sim.NewBarrier(cfg.Threads)
	// One completion slot per thread, written only by that thread and
	// summed by the driver loop.
	finished := make([]int, cfg.Threads)
	doneCount := func() int {
		n := 0
		for _, f := range finished {
			n += f
		}
		return n
	}

	start := h.Now()
	res.Started = start
	launched := false
	h.Cells[0].Procs.Spawn("ocean.main", 201, func(p *proc.Process, t *sim.Task) {
		_, err := h.Cells[0].Procs.SpawnSpanning("ocean", 202, tables,
			func(tp *proc.Process, tt *sim.Task) {
				defer func() { finished[tp.ThreadIndex()] = 1 }()
				idx := tp.ThreadIndex()
				cell := h.Cells[tp.Cell]

				// Initialization: thread 0 reads the input file.
				if idx == 0 {
					hd, err := cell.FS.Open(tt, "/data/ocean.in")
					if err == nil {
						// The warm-up read is advisory: if the input home
						// died mid-campaign the grid simply starts cold, so
						// a failure is counted rather than fatal.
						if _, rerr := cell.FS.Read(tt, hd, cfg.InitPages); rerr != nil {
							cell.Metrics.Counter("workload.ocean_input_read_errors").Inc()
						}
						cell.FS.Close(tt, hd)
					}
				}

				// Allocate this thread's partition locally.
				for off := 0; off < part; off++ {
					if err := tp.TouchAnon(tt, int64(off), true); err != nil {
						return
					}
				}
				leaves[idx] = tp.Leaf
				ready.Await(tt)

				// Map every partition writable (the write-shared
				// data segment: SVR4 maps the whole segment rw).
				for other := 0; other < cfg.Threads; other++ {
					if other == idx {
						continue
					}
					for off := 0; off < part; off++ {
						lp := cow.LP(leaves[other], int64(off))
						if _, err := tp.MapShared(tt, lp, true); err != nil {
							return
						}
					}
				}

				// Time steps: compute, write own partition and
				// neighbours' boundary pages, barrier.
				for it := 0; it < cfg.Iterations; it++ {
					tp.Compute(tt, cfg.StepCPU)
					for b := 0; b < cfg.Boundary; b++ {
						nb := (idx + 1) % cfg.Threads
						lp := cow.LP(leaves[nb], int64(b%part))
						pf, err := tp.MapShared(tt, lp, true)
						if err != nil {
							return
						}
						cell.EP.M.WritePage(tt, cell.Sched.Procs[0], pf.Frame,
							uint64(idx)<<32|uint64(it))
					}
					stepBar.Await(tt)
				}
			})
		if err != nil {
			res.AddError("spanning: %v", err)
		}
		launched = true
	})

	deadline := h.Now() + maxTime
	h.RunUntil(func() bool { return launched && doneCount() == cfg.Threads }, deadline)
	res.Done = doneCount() == cfg.Threads
	res.Elapsed = h.Now() - start
	res.finishStats(h, h0, m0, i0)
	return res
}

// OceanRemotelyWritablePages samples the §4.2 metric across cells.
func OceanRemotelyWritablePages(h *core.Hive) (perCell []int) {
	for _, c := range h.Cells {
		perCell = append(perCell, c.VM.RemotelyWritablePages())
	}
	return
}

// oceanLP is exported for tests needing a partition page id.
func oceanLP(leaf kmem.Addr, off int64) vm.LogicalPage { return cow.LP(leaf, off) }
