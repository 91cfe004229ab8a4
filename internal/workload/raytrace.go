package workload

import (
	"fmt"

	"repro/internal/core"
	"repro/internal/proc"
	"repro/internal/sim"
)

// RaytraceConfig parameterizes the SPLASH-2 raytrace generator: a parent
// builds the scene (a teapot) in anonymous memory, then forks one worker
// per CPU across the cells. Workers reach the read-shared scene through
// the distributed copy-on-write tree — the cross-cell traversal that the
// §7.4 "corrupt pointer in copy-on-write tree" and "node failure during
// copy-on-write search" injections target.
type RaytraceConfig struct {
	Workers    int      // one per CPU
	ScenePages int      // read-shared scene size
	Tiles      int      // work units per worker
	TileCPU    sim.Time // compute per tile
	TileReads  int      // scene pages consulted per tile
	Scratch    int      // tiles between fresh scratch-page allocations
	MainCell   int      // cell hosting the parent (scene data home)
	Seed       uint64
	// ForkHook fires from the parent's task as each worker forks (an
	// injection trigger).
	ForkHook func(worker int)
}

// DefaultRaytrace returns the calibrated configuration (IRIX ≈4.35 s).
func DefaultRaytrace() RaytraceConfig {
	return RaytraceConfig{
		Workers:    4,
		ScenePages: 500,
		Tiles:      64,
		TileCPU:    67 * sim.Millisecond,
		TileReads:  24,
		Scratch:    16,
		Seed:       0x7EA9,
	}
}

// RunRaytrace executes the workload and blocks until completion or maxTime.
func RunRaytrace(h *core.Hive, cfg RaytraceConfig, maxTime sim.Time) *Result {
	res := &Result{Name: "raytrace", Cells: len(h.Cells)}
	h0, m0, i0 := snapshotFaults(h)
	start := h.Now()
	res.Started = start

	// One completion slot per worker, written only by that worker and
	// summed by the driver loop.
	finished := make([]int, cfg.Workers)
	doneCount := func() int {
		n := 0
		for _, f := range finished {
			n += f
		}
		return n
	}
	parentDone := false
	main := cfg.MainCell % len(h.Cells)
	var mainProc *proc.Process
	mainProc = h.Cells[main].Procs.Spawn("rt.main", 300, func(p *proc.Process, t *sim.Task) {
		// Build the scene in the parent's anonymous memory (pre-fork,
		// so every child sees it through the COW tree).
		for off := 0; off < cfg.ScenePages; off++ {
			if err := p.TouchAnon(t, int64(off), true); err != nil {
				res.AddError("scene build: %v", err)
				return
			}
		}

		worker := func(w int) proc.Body {
			return func(wp *proc.Process, wt *sim.Task) {
				defer func() { finished[w] = 1 }()
				for tile := 0; tile < cfg.Tiles; tile++ {
					wp.Compute(wt, cfg.TileCPU)
					// Consult the scene: COW-tree lookups that
					// cross back to the parent's cell.
					base := (w*cfg.Tiles + tile) * cfg.TileReads
					for r := 0; r < cfg.TileReads; r++ {
						off := int64((base + r) % cfg.ScenePages)
						if err := wp.TouchAnon(wt, off, false); err != nil {
							return
						}
					}
					// Private scratch: mostly reuse, with a fresh
					// page every Scratch tiles (heap growth) —
					// the infrequent cold lookups that traverse
					// past the scene root in the COW tree.
					off := int64(cfg.ScenePages + tile/cfg.Scratch)
					if err := wp.TouchAnon(wt, off, true); err != nil {
						return
					}
				}
			}
		}

		pids := make(map[int]int)
		cellOf := make(map[int]int)
		for w := 0; w < cfg.Workers; w++ {
			if cfg.ForkHook != nil {
				cfg.ForkHook(w)
			}
			target := w % len(h.Cells)
			for i := 0; i < len(h.Cells) && h.Cells[target].Failed(); i++ {
				target = (target + 1) % len(h.Cells)
			}
			pid, err := h.Cells[main].Procs.Fork(t, p, target, fmt.Sprintf("rt%d", w), worker(w))
			if err != nil {
				res.AddError("fork worker %d: %v", w, err)
				continue
			}
			pids[w] = pid
			cellOf[w] = target
		}
		// Wait for every worker, local and remote (make-style polling
		// for the remote ones, which Wait cannot reach).
		for len(pids) > 0 {
			if h.Cells[main].Failed() {
				return
			}
			// Poll in worker order, not map order (see pmake).
			for w := 0; w < cfg.Workers; w++ {
				pid, ok := pids[w]
				if !ok {
					continue
				}
				if _, alive := h.Cells[cellOf[w]].Procs.Get(pid); !alive {
					delete(pids, w)
				}
			}
			if len(pids) > 0 {
				t.Sleep(5 * sim.Millisecond)
			}
		}
		parentDone = true
	})

	deadline := h.Now() + maxTime
	h.RunUntil(func() bool {
		// Completed, or aborted (the parent was killed by recovery as
		// a dependent of a failed cell).
		return (parentDone && doneCount() == cfg.Workers) || mainProc.Exited()
	}, deadline)
	res.Done = parentDone && doneCount() == cfg.Workers
	res.Elapsed = h.Now() - start
	res.finishStats(h, h0, m0, i0)
	return res
}
