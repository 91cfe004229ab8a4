// Wax policy: demonstrates the user-level resource manager of §3.2. Wax
// threads span every cell, build a global view through shared memory, and
// steer the per-cell policies of Table 3.4. The example puts one cell
// under memory pressure, shows Wax retargeting its page allocator at the
// memory-rich cells, and then kills a cell to show Wax dying with it and
// being restarted from scratch by its supervisor.
package main

import (
	"fmt"

	hive "repro"
	"repro/internal/proc"
	"repro/internal/sim"
	"repro/internal/wax"
)

func main() {
	h := hive.BootCells(4)
	sup := wax.Supervise(h)
	h.Run(120 * sim.Millisecond)
	fmt.Printf("wax incarnation 1: %v (threads on all %d cells)\n", sup.Cur.Alive(), h.Coord.LiveCount())

	// Pressure: drain cell 0's free pool.
	drained := false
	h.Cells[0].Procs.Spawn("hog", 40, func(p *proc.Process, t *sim.Task) {
		v := h.Cells[0].VM
		for v.FreePages() > 0 {
			if _, err := v.AllocFrame(t); err != nil {
				break
			}
		}
		drained = true
	})
	h.RunUntil(func() bool { return drained }, 10*hive.Second)
	fmt.Printf("cell 0 free pages: %d (pressured)\n", h.Cells[0].VM.FreePages())

	// Wax notices within a policy interval or two.
	h.RunUntil(func() bool { return len(h.Cells[0].VM.AllocTargets) > 0 }, 2*hive.Second)
	fmt.Printf("wax set cell 0's allocation targets to cells %v (retargets so far: %d)\n",
		h.Cells[0].VM.AllocTargets, sup.Cur.AllocRetargets)

	// Borrow through the hinted target.
	borrowed := false
	h.Cells[0].Procs.Spawn("worker", 41, func(p *proc.Process, t *sim.Task) {
		f, err := h.Cells[0].VM.AllocFrame(t)
		if err == nil {
			fmt.Printf("allocation satisfied by a frame from cell %d\n",
				h.CellOfNode[h.M.HomeNode(f)])
			borrowed = true
		}
	})
	h.RunUntil(func() bool { return borrowed }, 10*hive.Second)

	// Hint sanity-checking: a bogus hint is refused by the cell.
	if err := h.Cells[1].ApplyAllocTargets([]int{1}); err != nil {
		fmt.Printf("cell 1 rejected a bad hint: %v\n", err)
	}

	// Kill a cell: Wax uses resources from all cells, so it dies, and
	// the supervisor starts a fresh incarnation over the survivors.
	first := sup.Cur
	fmt.Printf("\n[%v] cell 3 fails\n", h.Now())
	h.Cells[3].FailHardware()
	h.RunUntil(func() bool { return !first.Alive() }, 5*hive.Second)
	fmt.Println("wax incarnation 1 died with the cell (by design, §3.2)")
	h.RunUntil(func() bool { return h.Coord.LiveCount() == 3 }, 5*hive.Second)
	h.RunUntil(func() bool { return sup.Restarts > 0 && sup.Cur.Alive() }, 10*hive.Second)
	fmt.Printf("supervisor started incarnation 2 over %d live cells (restarts: %d)\n",
		h.Coord.LiveCount(), sup.Restarts)
	sup.Stop()
}
