package vm

import (
	"fmt"

	"repro/internal/sim"
)

// CC-NUMA page placement (§5.4/§5.5): physical-level sharing exists so
// "data pages [can] be placed where required for fast access". MigratePage
// moves a cached page's storage into a frame borrowed from the cell whose
// processes use it — after which the frame is simultaneously loaned out
// (from the user's point of view) and imported back (from ours), the §5.5
// interaction that reuses the preexisting pfdat.
//
// Note on fidelity: the paper's machine model (and ours, §7.2) charges a
// flat 700 ns for all L2 misses, so placement has no latency payoff inside
// the simulation; the mechanism is reproduced for completeness and for the
// allocation-policy experiments.

// MigrateCost is the copy + bookkeeping cost per migrated page.
const MigrateCost sim.Time = 12 * sim.Microsecond

// MigratePage moves the storage of a locally-cached page to a frame
// borrowed from target's memory. Restricted to pages with no current
// mappings or exports (migrating a shared page would require remapping
// every client).
func (v *VM) MigratePage(t *sim.Task, lp LogicalPage, target int) error {
	pf := v.hash.get(lp)
	if pf == nil {
		return fmt.Errorf("%w: %v not cached", ErrBadPage, lp)
	}
	if pf.Refs > 0 || pf.Exported() || pf.ImportedFrom >= 0 || pf.Kernel {
		return fmt.Errorf("%w: %v is in use or shared", ErrBadPage, lp)
	}
	if v.CellOfNode[v.M.HomeNode(pf.Frame)] == target {
		return nil // already there
	}

	newFrame, err := v.BorrowFrom(t, target)
	if err != nil {
		return err
	}
	// Copy the page contents into the new frame.
	tag, corrupt, err := v.M.ReadPage(t, v.proc(pf.Frame), pf.Frame)
	if err != nil {
		v.FreeFrame(t, newFrame)
		return err
	}
	v.anyProc().Use(t, MigrateCost)
	if err := v.M.WritePage(t, v.anyProc(), newFrame, tag); err != nil {
		v.FreeFrame(t, newFrame)
		return err
	}
	if corrupt {
		v.M.MarkCorrupt(newFrame)
	}

	// Rebind: the new frame's pfdat (created by the borrow) takes over
	// the logical page; the old frame returns to the pool, or to its
	// memory home if it was borrowed.
	oldFrame := pf.Frame
	npf := v.pfdat(newFrame)
	npf.LP = lp
	npf.Valid = true
	npf.Dirty = pf.Dirty
	v.hash.put(npf)

	pf.Valid = false
	pf.Dirty = false
	v.FreeFrame(t, oldFrame)
	v.Metrics.Counter("vm.pages_migrated").Inc()
	return nil
}

// RebalanceToward migrates up to n unshared cached pages (any object)
// into frames borrowed from target. This is the rejoin warm-up path: a
// freshly rebooted cell's memory is empty, and moving a slice of each
// survivor's page cache onto it re-stripes placement across full capacity.
// Returns pages moved.
func (v *VM) RebalanceToward(t *sim.Task, target, n int) int {
	moved := 0
	// A snapshot: each migration borrows a batch of frames, which this
	// sweep must not visit.
	for _, f := range v.sortedFrames() {
		if moved >= n {
			break
		}
		pf := v.pfdat(f)
		if pf == nil || !pf.Valid {
			continue
		}
		if v.MigratePage(t, pf.LP, target) == nil {
			moved++
		}
	}
	return moved
}
