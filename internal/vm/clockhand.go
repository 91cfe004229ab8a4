package vm

import (
	"fmt"

	"repro/internal/machine"
	"repro/internal/sim"
)

// The clock-hand page-out daemon (§5.7, Table 3.4). Each cell runs one:
// when the free pool falls below the low watermark it sweeps the page
// cache with a clock hand, evicting unreferenced pages until the high
// watermark is restored. Dirty pages are written back through the
// writeback hook first (stable-write semantics). Wax steers the hand by
// naming pressured memory homes whose loaned frames should be freed first
// (ReturnUnusedBorrows handles the idle ones; the sweep prefers evicting
// pages held in their frames).

// Watermark defaults, as fractions of the paged pool.
const (
	defaultLowWaterFrac  = 0.06
	defaultHighWaterFrac = 0.12
	// ClockTickCost is charged per examined page.
	ClockTickCost sim.Time = 800
	// ClockInterval is the daemon's poll period.
	ClockInterval = 25 * sim.Millisecond
)

// ClockHand is the per-cell page-out daemon.
type ClockHand struct {
	v *VM
	// Writeback persists one dirty page before eviction, returning
	// false if it could not (the page is then skipped).
	Writeback func(t *sim.Task, lp LogicalPage) bool
	// PressureHomes, set by Wax, lists memory homes under pressure;
	// their pages are preferred eviction victims.
	PressureHomes map[int]bool

	LowWater  int
	HighWater int

	sweep   []machine.PageNum // clock order: stable, page-number sorted
	hand    int
	stopped bool
}

// StartClockHand launches the daemon for this VM.
func (v *VM) StartClockHand(writeback func(t *sim.Task, lp LogicalPage) bool) *ClockHand {
	total := v.numFrames()
	ch := &ClockHand{
		v:         v,
		Writeback: writeback,
		LowWater:  int(float64(total) * defaultLowWaterFrac),
		HighWater: int(float64(total) * defaultHighWaterFrac),
	}
	v.EP.Engine().Go(fmt.Sprintf("cell%d.clockhand", v.CellID), ch.loop)
	return ch
}

// Stop ends the daemon at its next wakeup.
func (ch *ClockHand) Stop() { ch.stopped = true }

func (ch *ClockHand) loop(t *sim.Task) {
	for !ch.stopped {
		t.Sleep(ClockInterval)
		if ch.stopped {
			return
		}
		if ch.v.InRecovery() || ch.v.FreePages() >= ch.LowWater {
			continue
		}
		ch.v.Lock.Lock(t)
		ch.Sweep(t, ch.HighWater)
		ch.v.Lock.Unlock(t)
	}
}

// Sweep evicts unreferenced cache pages until the free pool reaches target
// or a full revolution finds nothing more. It returns pages evicted. The
// caller holds v.Lock; Sweep releases it around each dirty page's
// write-back.
func (ch *ClockHand) Sweep(t *sim.Task, target int) int {
	v := ch.v
	ch.rebuild()
	evicted := 0
	// Two passes: pressured-home victims first (the Wax hint), then any.
	for pass := 0; pass < 2 && v.FreePages() < target; pass++ {
		preferOnly := pass == 0 && len(ch.PressureHomes) > 0
		if pass == 0 && !preferOnly {
			continue
		}
		for n := 0; n < len(ch.sweep) && v.FreePages() < target; n++ {
			ch.hand = (ch.hand + 1) % len(ch.sweep)
			f := ch.sweep[ch.hand]
			pf := v.pfdat(f)
			if !victim(pf) {
				continue
			}
			home := v.CellOfNode[v.M.HomeNode(f)]
			if preferOnly && !ch.PressureHomes[home] {
				continue
			}
			v.anyProc().Use(t, ClockTickCost)
			if pf.Dirty {
				if ch.Writeback == nil {
					continue
				}
				// The write-back waits on the disk, so it runs with the
				// lock released: the cell's export and fault services
				// need it meanwhile. The page may be referenced,
				// exported or replaced by then, so it is tested again.
				lp := pf.LP
				v.Lock.Unlock(t)
				ok := ch.Writeback(t, lp)
				v.Lock.Lock(t)
				if pf = v.pfdat(f); !ok || !victim(pf) || pf.LP != lp {
					continue
				}
			}
			if v.Evict(t, pf.LP) {
				evicted++
				v.Metrics.Counter("vm.clockhand_evictions").Inc()
			}
		}
	}
	return evicted
}

// victim is the sweep's test for a page it may evict: valid, and neither
// referenced, exported, kernel nor imported (imports are released by
// their users).
func victim(pf *Pfdat) bool {
	return pf != nil && pf.Valid && pf.Refs == 0 && !pf.Exported() && !pf.Kernel && pf.ImportedFrom < 0
}

// rebuild refreshes the sweep order if the frame population changed.
func (ch *ClockHand) rebuild() {
	if len(ch.sweep) == ch.v.numFrames() {
		return
	}
	ch.sweep = ch.v.sortedFrames()
	if ch.hand >= len(ch.sweep) {
		ch.hand = 0
	}
}
