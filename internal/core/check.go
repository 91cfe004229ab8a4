package core

import (
	"fmt"

	"repro/internal/machine"
	"repro/internal/vm"
)

// CheckInvariants audits the cross-cell consistency of the memory-sharing
// state machines — the fsck of the multicellular kernel. It returns one
// message per violation (empty = clean). Only live cells are audited;
// state referring to failed cells is exempt where recovery legitimately
// leaves it asymmetric.
//
// Invariants checked:
//
//  1. Hash/frames coherence: every page-cache entry is Valid, is found
//     under its own label and in no second slot, and its frame record
//     points back at the same pfdat; reference counts are non-negative.
//  2. Free-pool hygiene: free frames are not Valid, not loaned, and appear
//     at most once.
//  3. Ownership: every frame is controlled by exactly one live cell — its
//     home, or the borrower it is loaned to. No two cells claim a frame,
//     and a frame loaned to a live cell is tracked by that borrower.
//  4. Export/import symmetry: an import recorded at a live client has a
//     matching export record at the data home, and vice versa.
//  5. Firewall soundness: a local frame writable by a remote live cell is
//     either exported writable to that cell or loaned to it.
func (h *Hive) CheckInvariants() []string {
	var bad []string
	report := func(format string, args ...any) {
		bad = append(bad, fmt.Sprintf(format, args...))
	}
	live := func(c int) bool { return c >= 0 && c < len(h.Cells) && !h.Cells[c].Failed() }

	// controller[f] is the live cell controlling frame f, or -1.
	controller := make([]int, h.M.NumPages())
	for f := range controller {
		controller[f] = -1
	}
	// pages[c] is live cell c's page-cache hash in label order, shared
	// by invariants 1 and 4; inFree marks the frames of the free pool
	// being audited.
	pages := make([][]*vm.Pfdat, len(h.Cells))
	inFree := make([]bool, h.M.NumPages())
	for _, c := range h.LiveCells() {
		v := c.VM

		// 1. Hash/frames coherence. The hash is audited in label order
		// so the violation report is deterministic; a pfdat in two slots
		// sorts next to itself.
		pages[c.ID] = v.HashEntries()
		for i, pf := range pages[c.ID] {
			lp := pf.LP
			if !pf.Valid {
				report("cell%d: hash entry %v not Valid", c.ID, lp)
			}
			if got, _ := v.Lookup(lp); got != pf {
				report("cell%d: hash entry %v is not found under its own label", c.ID, lp)
			}
			if i > 0 && pages[c.ID][i-1] == pf {
				report("cell%d: hash entry %v sits in two slots", c.ID, lp)
			}
			if got, ok := v.PfdatFor(pf.Frame); !ok || got != pf {
				report("cell%d: frame %d record does not match hash entry %v", c.ID, pf.Frame, lp)
			}
			if pf.Refs < 0 {
				report("cell%d: %v has negative refs %d", c.ID, lp, pf.Refs)
			}
		}

		// 2. Free-pool hygiene. A number outside the machine (only a
		// corrupt pool holds one) is marked in a map instead.
		clear(inFree)
		var outside map[machine.PageNum]bool
		for _, f := range v.FreeList() {
			var twice bool
			if f >= 0 && int(f) < len(inFree) {
				twice, inFree[f] = inFree[f], true
			} else {
				if outside == nil {
					outside = map[machine.PageNum]bool{}
				}
				twice, outside[f] = outside[f], true
			}
			if twice {
				report("cell%d: frame %d appears twice in the free pool", c.ID, f)
			}
			pf, ok := v.PfdatFor(f)
			if !ok {
				report("cell%d: free frame %d has no pfdat", c.ID, f)
				continue
			}
			if pf.Valid {
				report("cell%d: free frame %d still bound to %v", c.ID, f, pf.LP)
			}
			if pf.LoanedTo >= 0 {
				report("cell%d: free frame %d is marked loaned to %d", c.ID, f, pf.LoanedTo)
			}
		}

		// 3. Ownership claims (resolved after the loop). The same walk
		// counts loans and borrows against the VM's counters.
		loaned, borrowed := 0, 0
		v.WalkFrames(func(pf *vm.Pfdat) {
			f := pf.Frame
			if pf.LoanedTo >= 0 {
				loaned++
			}
			if pf.BorrowedFrom >= 0 {
				borrowed++
			}
			owner := h.CellOfNode[h.M.HomeNode(f)]
			claims := owner == c.ID && pf.LoanedTo < 0 ||
				pf.BorrowedFrom >= 0 // borrower's claim
			if !claims {
				return
			}
			if prev := controller[f]; prev >= 0 && prev != c.ID {
				report("frame %d controlled by both cell%d and cell%d", f, prev, c.ID)
			}
			controller[f] = c.ID
		})
		if n := v.LoanedFrames(); n != loaned {
			report("cell%d: loaned count %d, table has %d", c.ID, n, loaned)
		}
		if n := v.BorrowedFrames(); n != borrowed {
			report("cell%d: borrowed count %d, table has %d", c.ID, n, borrowed)
		}
	}

	// 4. Export/import symmetry among live cells.
	for _, c := range h.LiveCells() {
		for _, pf := range pages[c.ID] {
			lp := pf.LP
			if pf.ImportedFrom >= 0 && live(pf.ImportedFrom) {
				home := h.Cells[pf.ImportedFrom].VM
				hpf, ok := home.Lookup(lp)
				if !ok || !hpf.ExportedTo(c.ID) {
					report("cell%d imports %v from cell%d, which has no export record",
						c.ID, lp, pf.ImportedFrom)
				}
			}
			for _, client := range pf.ExportClients() {
				if !live(client) {
					report("cell%d still exports %v to dead cell%d", c.ID, lp, client)
					continue
				}
				cpf, ok := h.Cells[client].VM.Lookup(lp)
				if !ok || cpf.ImportedFrom != c.ID {
					report("cell%d exports %v to cell%d, which has no import record",
						c.ID, lp, client)
				}
			}
		}
	}

	// 5. Firewall soundness for live cells' local frames (and the loan
	// half of invariant 3).
	masks := make([]uint64, len(h.Cells))
	for i, c := range h.Cells {
		for _, n := range c.Nodes {
			masks[i] |= h.M.NodeProcMask(n)
		}
	}
	for _, c := range h.LiveCells() {
		c.VM.WalkFrames(func(pf *vm.Pfdat) {
			f := pf.Frame
			if h.CellOfNode[h.M.HomeNode(f)] != c.ID {
				return
			}
			// The other half of invariant 3: a loan the borrower has
			// forgotten leaves the frame controlled by no live cell.
			if b := pf.LoanedTo; b >= 0 && live(b) {
				if bpf, ok := h.Cells[b].VM.PfdatFor(f); !ok || bpf.BorrowedFrom != c.ID {
					report("cell%d frame %d loaned to cell%d, which does not track it", c.ID, f, b)
				}
			}
			fw := h.M.Firewall(f)
			for other := range h.Cells {
				if other == c.ID || !live(other) {
					continue
				}
				if fw&masks[other] == 0 {
					continue // not writable by that cell
				}
				if !pf.WritableBy(other) && pf.LoanedTo != other {
					// A loaned frame is controlled by its borrower
					// (invariant 3): the borrower may cache one of its own
					// pages in it and export that page writable — the write
					// permission is then justified by the borrower's pfdat,
					// not the home's. Reachable since the rejoin warm-up
					// migrates a file server's cache into borrowed frames.
					if b := pf.LoanedTo; b >= 0 && live(b) {
						if bpf, ok := h.Cells[b].VM.PfdatFor(f); ok && bpf.WritableBy(other) {
							continue
						}
					}
					report("cell%d frame %d writable by cell%d without export or loan",
						c.ID, f, other)
				}
			}
		})
	}
	return bad
}
