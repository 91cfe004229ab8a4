// Package wax implements Wax, Hive's user-level resource management policy
// process (§3.2 of the paper). Wax is a multithreaded process spanning all
// cells: its threads build a global view of system state through shared
// memory and drive the per-cell resource policies of Table 3.4 — which
// cells the page allocator should borrow from, which cells the clock hand
// should free pages toward, and swap victim selection.
//
// Wax has no special privileges: each cell sanity-checks the hints it
// receives, and operations required for correctness go through RPCs, never
// through Wax — a damaged Wax can hurt performance but not correctness.
// Because Wax uses resources from every cell, it exits whenever any cell
// fails, and the recovery process starts a fresh incarnation that rebuilds
// its view from scratch.
package wax

import (
	"fmt"
	"sort"

	"repro/internal/core"
	"repro/internal/proc"
	"repro/internal/sim"
	"repro/internal/stats"
)

// Interval is how often Wax threads sample and apply policy.
const Interval = 50 * sim.Millisecond

// sampleCost models the shared-memory state scan one thread performs.
const sampleCost = 200 * sim.Microsecond

// cellState is one row of Wax's global view.
type cellState struct {
	FreePages int
	Borrowed  int
	Loaned    int
	Procs     int
	sampled   bool
}

// Wax is one incarnation of the policy process.
type Wax struct {
	h       *core.Hive
	view    []cellState
	mu      sim.Mutex // Wax threads synchronize with ordinary user locks
	threads []*proc.Process
	dead    bool

	Metrics *stats.Registry

	// Decisions (for tests and the ablation bench).
	AllocRetargets int
	PlaceRetargets int
	ClockHandKicks int
	SwapVictims    []int
}

// Start launches a Wax incarnation: one thread per live cell.
func Start(h *core.Hive) *Wax {
	w := &Wax{
		h: h, view: make([]cellState, len(h.Cells)),
		Metrics: stats.NewRegistry(),
	}
	for _, c := range h.LiveCells() {
		cell := c
		p := cell.Procs.Spawn("wax", waxGroup, func(p *proc.Process, t *sim.Task) {
			w.threadBody(cell.ID, p, t)
		})
		// Wax uses resources from all cells: it depends on every one
		// and dies with any of them.
		for _, other := range h.Cells {
			p.DependOn(other.ID)
		}
		w.threads = append(w.threads, p)
	}
	return w
}

// waxGroup is the process group of Wax threads.
const waxGroup = 999

// Stop terminates the incarnation.
func (w *Wax) Stop() {
	w.dead = true
	for _, p := range w.threads {
		if !p.Exited() {
			w.h.Cells[p.Cell].Procs.Kill(p)
		}
	}
}

// Alive reports whether every thread is still running.
func (w *Wax) Alive() bool {
	if w.dead {
		return false
	}
	for _, p := range w.threads {
		if p.Exited() {
			return false
		}
	}
	return true
}

// threadBody is one Wax thread: sample local state, synchronize through
// the shared view with an ordinary user mutex, and (on the lowest-numbered
// live thread) apply policy.
func (w *Wax) threadBody(cellID int, p *proc.Process, t *sim.Task) {
	for !w.dead {
		t.Sleep(Interval)
		if w.dead || w.h.Cells[cellID].Failed() {
			return
		}
		p.Compute(t, sampleCost)
		cell := w.h.Cells[cellID]
		w.mu.Lock(t)
		w.view[cellID] = cellState{
			FreePages: cell.VM.FreePages(),
			Borrowed:  cell.VM.BorrowedFrames(),
			Loaned:    cell.VM.LoanedFrames(),
			Procs:     cell.Procs.Live(),
			sampled:   true,
		}
		leader := w.isLeader(cellID)
		w.mu.Unlock(t)
		if leader {
			w.applyPolicy(t)
		}
	}
}

// isLeader picks the lowest live cell's thread as the policy applier.
func (w *Wax) isLeader(cellID int) bool {
	for _, c := range w.h.Cells {
		if !c.Failed() {
			return c.ID == cellID
		}
	}
	return false
}

// applyPolicy computes and pushes the Table 3.4 hints.
func (w *Wax) applyPolicy(t *sim.Task) {
	type fp struct{ cell, free int }
	var rows []fp
	total, n := 0, 0
	for id, st := range w.view {
		if !st.sampled || w.h.Cells[id].Failed() {
			continue
		}
		rows = append(rows, fp{id, st.FreePages})
		total += st.FreePages
		n++
	}
	if n < 2 {
		return
	}
	mean := total / n
	// Order richest-first with the cell id breaking free-page ties:
	// sort.Slice's order for equal keys is unspecified (and changed
	// across Go releases), which would make the borrow targets — and
	// everything downstream of the hints — vary run to run.
	sort.SliceStable(rows, func(i, j int) bool {
		if rows[i].free != rows[j].free {
			return rows[i].free > rows[j].free
		}
		return rows[i].cell < rows[j].cell
	})

	// Page allocator hint: cells under memory pressure should borrow
	// from the cells with the most free memory.
	var richest []int
	for _, r := range rows {
		if r.free > mean && len(richest) < 3 {
			richest = append(richest, r.cell)
		}
	}
	for _, r := range rows {
		cell := w.h.Cells[r.cell]
		if r.free < mean/2 {
			if cell.ApplyAllocTargets(richest) == nil {
				w.AllocRetargets++
			}
		} else {
			cell.ApplyAllocTargets(nil)
		}
	}

	// Placement hint: where a dispatcher should spill work whose natural
	// home is failed or saturated — the least-loaded live cells first,
	// process count (then cell id) breaking ties, self excluded per cell.
	// This is Table 3.4's process-placement policy made visible to the
	// frontend's open-loop dispatchers.
	loads := append([]fp(nil), rows...)
	for i := range loads {
		loads[i].free = w.view[loads[i].cell].Procs
	}
	sort.SliceStable(loads, func(i, j int) bool {
		if loads[i].free != loads[j].free {
			return loads[i].free < loads[j].free
		}
		return loads[i].cell < loads[j].cell
	})
	for _, r := range rows {
		var spill []int
		for _, l := range loads {
			if l.cell == r.cell {
				continue
			}
			spill = append(spill, l.cell)
			if len(spill) == 3 {
				break
			}
		}
		if w.h.Cells[r.cell].ApplyPlaceTargets(spill) == nil {
			w.PlaceRetargets++
		}
	}

	// Clock-hand hint: when a memory home is pressured, ask borrowers
	// to return its idle frames and steer every cell's page-out daemon
	// toward that home's pages.
	pressured := map[int]bool{}
	for _, r := range rows {
		if r.free < mean/2 {
			pressured[r.cell] = true
		}
	}
	for _, other := range w.h.LiveCells() {
		other.ClockHand.PressureHomes = pressured
	}
	for _, r := range rows {
		if pressured[r.cell] && w.view[r.cell].Loaned > 0 {
			for _, other := range w.h.LiveCells() {
				if other.ID == r.cell {
					continue
				}
				if other.ApplyClockHand(t, r.cell) {
					w.ClockHandKicks++
				}
			}
		}
	}

	// Swapper hint: on cells with heavy multiprogramming, nominate the
	// newest processes as swap candidates (recorded, not enacted — the
	// paper's workloads never swap).
	for _, r := range rows {
		if w.view[r.cell].Procs > 8 {
			w.SwapVictims = append(w.SwapVictims, r.cell)
		}
	}
	w.Metrics.Counter("wax.policy_rounds").Inc()
}

// Supervisor keeps a Wax incarnation alive across cell failures: when the
// current incarnation dies (any cell failure kills it), a new one is
// started from scratch once the system is out of recovery — the restart
// discipline of §3.2.
type Supervisor struct {
	h   *core.Hive
	Cur *Wax

	Restarts int
	stop     bool
}

// Supervise starts Wax and its restart loop.
func Supervise(h *core.Hive) *Supervisor {
	sup := &Supervisor{h: h, Cur: Start(h)}
	h.Eng.Go("wax.supervisor", func(t *sim.Task) {
		for !sup.stop {
			t.Sleep(20 * sim.Millisecond)
			if sup.stop {
				return
			}
			if sup.Cur.Alive() && len(sup.Cur.threads) == len(sup.h.LiveCells()) {
				// Alive alone is not enough: the live set can *grow* (a
				// rebooted cell rejoining) and an incarnation spanning
				// only the survivors would keep the rejoined cell out of
				// the allocation pool. Restart whenever the thread count
				// no longer matches the live set.
				continue
			}
			// Wait until no cell is mid-recovery before restarting.
			inRecovery := false
			for _, c := range sup.h.LiveCells() {
				if c.VM.InRecovery() {
					inRecovery = true
				}
			}
			if inRecovery || len(sup.h.LiveCells()) < 1 {
				continue
			}
			sup.Cur.Stop()
			sup.Cur = Start(sup.h)
			sup.Restarts++
		}
	})
	return sup
}

// Stop ends supervision and the current incarnation.
func (s *Supervisor) Stop() {
	s.stop = true
	if s.Cur != nil {
		s.Cur.Stop()
	}
}

// String summarizes the incarnation for diagnostics.
func (w *Wax) String() string {
	return fmt.Sprintf("wax{threads=%d retargets=%d clockhand=%d}",
		len(w.threads), w.AllocRetargets, w.ClockHandKicks)
}
