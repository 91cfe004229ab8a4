// Parallel application: runs the ocean workload as a spanning task across
// all four cells and shows the two kinds of intercell memory sharing at
// work (§5): logical-level sharing (threads import each other's grid
// partitions, opening the firewall for write sharing) and physical-level
// sharing (a memory-pressured cell borrows page frames). It finishes with
// the §4.2 firewall population statistics.
package main

import (
	"fmt"

	hive "repro"
	"repro/internal/proc"
	"repro/internal/sim"
	"repro/internal/stats"
)

func main() {
	h := hive.BootCells(4)

	// Sample remotely-writable pages per cell every 20 ms, as the paper
	// did over 5.0 s of execution.
	samplers := make([]*stats.Sampler, 4)
	for i := range samplers {
		cell := h.Cells[i]
		samplers[i] = &stats.Sampler{Interval: 20 * sim.Millisecond}
		samplers[i].Start(h.Eng, func() float64 {
			return float64(cell.VM.RemotelyWritablePages())
		})
	}

	cfg := hive.DefaultOcean()
	res := hive.RunOcean(h, cfg, 60*hive.Second)
	fmt.Printf("ocean (%d threads, %d grid pages): %.3fs virtual, done=%v\n",
		cfg.Threads, cfg.GridPages, res.Elapsed.Seconds(), res.Done)
	fmt.Printf("remote page imports during the run: %d\n\n", res.RemoteFaults)

	fmt.Println("firewall population (remotely-writable pages per cell, 20 ms samples):")
	for i, s := range samplers {
		s.Stop()
		fmt.Printf("  cell %d: avg %.0f  max %.0f   (paper: ocean averaged 550)\n",
			i, s.Mean(), s.Max())
	}

	// Physical-level sharing: exhaust cell 0's free pool; the next
	// allocation borrows a frame from a peer's memory.
	fmt.Println("\nphysical-level sharing (frame loaning):")
	done := false
	h.Cells[0].Procs.Spawn("pressure", 30, func(p *proc.Process, t *sim.Task) {
		defer func() { done = true }()
		v := h.Cells[0].VM
		n := 0
		for v.FreePages() > 0 {
			if _, err := v.AllocFrame(t); err != nil {
				break
			}
			n++
		}
		fmt.Printf("  cell 0 exhausted its pool after %d local frames\n", n)
		f, err := v.AllocFrame(t)
		if err != nil {
			fmt.Println("  borrow failed:", err)
			return
		}
		fmt.Printf("  next frame %d borrowed from node %d (cell %d)\n",
			f, h.M.HomeNode(f), h.CellOfNode[h.M.HomeNode(f)])
		fmt.Printf("  cell 0 borrowed=%d, lender loaned=%d\n",
			v.BorrowedFrames(), h.Cells[h.CellOfNode[h.M.HomeNode(f)]].VM.LoanedFrames())
	})
	h.RunUntil(func() bool { return done }, 30*hive.Second)
}
