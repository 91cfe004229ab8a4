package vm

import (
	"repro/internal/sim"
)

// Recovery (§4.3). The membership layer drives each cell through two
// phases separated by global barriers:
//
//   Phase 1 (before the first barrier): user processes are suspended, new
//   page faults are held up client-side, processor TLBs are flushed, and
//   all remote mappings are removed — guaranteeing a later access to a
//   discarded page faults and sends an RPC to the page's owner, where it
//   can be checked against the file generation number.
//
//   Phase 2 (between the barriers): each cell revokes every firewall write
//   permission it granted to other cells, preemptively discards all pages
//   that were writable by a failed cell (notifying the file system about
//   dirty ones), reclaims frames loaned to failed cells, and drops frames
//   borrowed from them.
//
// After the second barrier, RecoveryFinish releases held faults.

// TLBFlushCost is the per-processor cost of flushing the TLB and walking
// address spaces to remove remote mappings.
const TLBFlushCost sim.Time = 25 * sim.Microsecond

// RecoveryPhase1 holds up faults, flushes TLBs, and removes all remote
// mappings (imports). It runs before the cell joins the first barrier.
func (v *VM) RecoveryPhase1(t *sim.Task) {
	v.holdFaults = true
	for _, p := range v.procForNode {
		if !p.Halted() {
			p.Use(t, TLBFlushCost)
		}
	}
	// Remove every imported page: the extended pfdats go away and any
	// process holding a mapping will re-fault after recovery. Pages are
	// visited in logical-page order so the drop sequence (and the
	// resulting free-list order) is deterministic.
	for _, pf := range v.hash.sorted() {
		if pf.ImportedFrom >= 0 {
			pf.ImportedFrom = -1 // neutralize so stale Unref sends no RPC
			pf.ImpWritable = false
			pf.Valid = false
			v.hash.del(pf.LP)
			if pf.Extended {
				v.dropExtended(pf.Frame)
			}
			v.Metrics.Counter("vm.recovery_imports_dropped").Inc()
		}
	}
}

// RecoveryPhase2 revokes remote firewall grants, preemptively discards
// pages writable by the failed cell, and cleans up loans/borrows
// involving it. It runs between the two barriers and returns the number
// of pages discarded. failed is the cell the agreement round declared
// dead.
func (v *VM) RecoveryPhase2(t *sim.Task, failed int) (discarded int) {
	// 1. Local frames: revoke all remote write permission, discard pages
	// writable by a failed cell (the pessimistic assumption of §3.1: all
	// potentially damaged pages are treated as corrupted). Frames are
	// visited in page order so recovery is deterministic. The firewall
	// changes can block, but the regular table never changes, so it is
	// walked in place.
	for i := range v.regular {
		pf := &v.regular[i]
		f := pf.Frame
		doomed := pf.writable.has(failed)
		if pf.writable != 0 {
			v.M.SetFirewall(t, v.proc(f), f, v.homeMask(f))
		}
		v.forgetClients(pf, allCells)
		if doomed && pf.Valid {
			v.discardPage(pf)
			discarded++
		}
		// 2. Frames loaned to failed cells come back scrubbed: the
		// borrower could have written anything into them.
		if pf.LoanedTo == failed {
			v.setLoan(pf, -1)
			v.M.SetFirewall(t, v.proc(f), f, v.homeMask(f))
			v.M.ScrubPage(f, 0)
			if pf.Valid {
				v.discardPage(pf)
				discarded++
			}
			v.free = append(v.free, f)
			v.Metrics.Counter("vm.recovery_loans_reclaimed").Inc()
		}
	}

	// 3. Frames borrowed from failed cells are gone with their memory.
	// Only extended pfdats are borrowed.
	var deadFree []int
	for i, f := range v.free {
		if pf := v.pfdat(f); pf != nil && pf.BorrowedFrom == failed {
			deadFree = append(deadFree, i)
		}
	}
	for i := len(deadFree) - 1; i >= 0; i-- {
		idx := deadFree[i]
		v.dropExtended(v.free[idx])
		v.free = append(v.free[:idx], v.free[idx+1:]...)
	}
	for _, f := range v.extendedFrames() {
		pf := v.extended[f]
		if pf.BorrowedFrom == failed {
			// The page's data lived in failed memory: discard it.
			if pf.Valid {
				v.discardPage(pf)
				discarded++
			}
			v.dropExtended(f)
			v.Metrics.Counter("vm.recovery_borrows_lost").Inc()
		}
	}
	v.Metrics.Counter("vm.recovery_discards").Add(int64(discarded))
	return discarded
}

// discardPage removes a page from the cache, bumping the file generation if
// it was dirty (the data-loss record of §4.2).
func (v *VM) discardPage(pf *Pfdat) {
	if pf.Dirty && v.OnDiscardDirty != nil {
		v.OnDiscardDirty(pf.LP)
	}
	v.hash.del(pf.LP)
	pf.Valid = false
	pf.Dirty = false
	pf.Refs = 0
	if v.localFrame(pf.Frame) && pf.LoanedTo < 0 {
		v.M.ScrubPage(pf.Frame, 0)
		v.free = append(v.free, pf.Frame)
	}
}

// RecoveryFinish releases held-up faults after the second barrier.
func (v *VM) RecoveryFinish() {
	v.holdFaults = false
	v.faultCond.Broadcast()
}

// InRecovery reports whether faults are currently held.
func (v *VM) InRecovery() bool { return v.holdFaults }

// DropPeerState removes all sharing state involving cell c without RPCs;
// used when this cell learns c rebooted (reintegration) — stale references
// must not survive into c's next incarnation.
func (v *VM) DropPeerState(c int) {
	v.WalkFrames(func(pf *Pfdat) {
		v.forgetClients(pf, cellOf(c))
		if pf.LoanedTo == c {
			v.setLoan(pf, -1)
			v.M.ScrubPage(pf.Frame, 0)
			v.free = append(v.free, pf.Frame)
		}
	})
}
