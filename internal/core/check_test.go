// check_test.go — one seeded corruption per CheckInvariants class. Each
// test builds healthy cross-cell sharing (audit silent), then mutates one
// piece of kernel state through the shared pfdat pointers and demands the
// auditor name the violation. The checker is the harness's corruption
// oracle; a class it cannot see is a containment failure the campaign
// would silently miss.
package core

import (
	"fmt"
	"strings"
	"testing"

	"repro/internal/machine"
	"repro/internal/proc"
	"repro/internal/sim"
	"repro/internal/vm"
)

// newSharingHive boots a hive, has a process on cell 0 import a file page
// served by cell 1 (writable), and returns the hive plus cell 0's imported
// pfdat. The audit must be silent at this baseline.
func newSharingHive(t *testing.T) (*Hive, *vm.Pfdat) {
	t.Helper()
	h := Boot(testConfig())
	var imported *vm.Pfdat
	done := false
	h.Cells[0].Procs.Spawn("driver", 1, func(p *proc.Process, tk *sim.Task) {
		hd, err := h.Cells[1].FS.Create(tk, "/shared/f")
		if err != nil {
			t.Errorf("create: %v", err)
			return
		}
		if err := h.Cells[1].FS.Write(tk, hd, 4, 3); err != nil {
			t.Errorf("write: %v", err)
			return
		}
		lp := vm.LogicalPage{Obj: vm.ObjID{Kind: vm.FileObj, Home: 1, Num: uint64(hd.Key.ID)}}
		imported, err = p.MapShared(tk, lp, true)
		if err != nil {
			t.Errorf("map: %v", err)
			return
		}
		done = true
		for {
			p.Compute(tk, 10*sim.Millisecond) // keep the mapping referenced
		}
	})
	if !h.RunUntil(func() bool { return done }, sim.Second) {
		t.Fatal("sharing setup never finished")
	}
	if imported == nil || imported.ImportedFrom != 1 {
		t.Fatalf("no import established: %+v", imported)
	}
	if bad := h.CheckInvariants(); len(bad) != 0 {
		t.Fatalf("audit not silent on healthy sharing:\n%s", joinLines(bad))
	}
	return h, imported
}

// expectViolation asserts the audit reports at least one violation
// containing want.
func expectViolation(t *testing.T, h *Hive, want string) {
	t.Helper()
	bad := h.CheckInvariants()
	for _, msg := range bad {
		if strings.Contains(msg, want) {
			return
		}
	}
	t.Fatalf("audit missed the seeded corruption: want %q in:\n%s", want, joinLines(bad))
}

func TestCheckCatchesNegativeRefs(t *testing.T) {
	// Class 1, hash/frames coherence: a reference count driven below zero.
	h, pf := newSharingHive(t)
	pf.Refs = -1
	expectViolation(t, h, "negative refs")
}

func TestCheckCatchesFreeFrameStillBound(t *testing.T) {
	// Class 2, free-pool hygiene: a frame both free and bound to a page.
	h, _ := newSharingHive(t)
	free := h.Cells[0].VM.FreeList()
	if len(free) == 0 {
		t.Fatal("no free frames")
	}
	pf, ok := h.Cells[0].VM.PfdatFor(free[0])
	if !ok {
		t.Fatalf("free frame %d has no pfdat", free[0])
	}
	pf.Valid = true
	expectViolation(t, h, "still bound")
}

func TestCheckCatchesFrameFreedTwice(t *testing.T) {
	// Class 2, free-pool hygiene: a frame freed while already free, and a
	// number past the machine's last frame freed twice.
	h, _ := newSharingHive(t)
	v := h.Cells[0].VM
	free := v.FreeList()
	if len(free) == 0 {
		t.Fatal("no free frames")
	}
	past := machine.PageNum(h.M.NumPages() + 7)
	v.FreeFrame(nil, free[0])
	v.FreeFrame(nil, past)
	v.FreeFrame(nil, past)
	expectViolation(t, h, fmt.Sprintf("cell0: frame %d appears twice in the free pool", free[0]))
	expectViolation(t, h, fmt.Sprintf("cell0: frame %d appears twice in the free pool", past))
	expectViolation(t, h, fmt.Sprintf("cell0: free frame %d has no pfdat", past))
}

func TestCheckCatchesDoubleOwnership(t *testing.T) {
	// Class 3, ownership: cell 0 claims to have borrowed the frame that
	// cell 1 still controls as its unloaned home.
	h, pf := newSharingHive(t)
	pf.BorrowedFrom = 1
	expectViolation(t, h, "controlled by both")
}

func TestCheckCatchesLoanTheBorrowerForgot(t *testing.T) {
	// Class 3, ownership: cell 1 records a loan to cell 2 of a frame that
	// cell 2 does not track, so no live cell controls it.
	h, pf := newSharingHive(t)
	home, ok := h.Cells[1].VM.PfdatFor(pf.Frame)
	if !ok {
		t.Fatalf("data home has no pfdat for frame %d", pf.Frame)
	}
	home.LoanedTo = 2
	expectViolation(t, h, "which does not track it")
}

func TestCheckCatchesImportWithoutExport(t *testing.T) {
	// Class 4, export/import symmetry: the import record names a home that
	// never exported the page.
	h, pf := newSharingHive(t)
	pf.ImportedFrom = 2
	expectViolation(t, h, "no export record")
}

func TestCheckCatchesFirewallOpenWithoutGrant(t *testing.T) {
	// Class 5, firewall soundness: a local frame writable by a remote cell
	// that holds neither an export nor a loan.
	h, _ := newSharingHive(t)
	free := h.Cells[0].VM.FreeList()
	if len(free) == 0 {
		t.Fatal("no free frames")
	}
	frame := free[0]
	mask := uint64(0)
	for _, n := range h.Cells[2].Nodes {
		mask |= h.M.NodeProcMask(n)
	}
	done := false
	h.Cells[0].Procs.Spawn("opener", 2, func(p *proc.Process, tk *sim.Task) {
		if err := h.M.GrantWrite(tk, h.M.Procs[0], frame, mask); err != nil {
			t.Errorf("grant: %v", err)
			return
		}
		done = true
	})
	if !h.RunUntil(func() bool { return done }, sim.Second) {
		t.Fatal("grant never ran")
	}
	expectViolation(t, h, "without export or loan")
}

func TestCheckCatchesLoanCountDrift(t *testing.T) {
	// Class 3, ownership: the VM's loaned count must match its frames. A
	// loan recorded behind the counter's back shows as drift.
	h, pf := newSharingHive(t)
	home, ok := h.Cells[1].VM.PfdatFor(pf.Frame)
	if !ok {
		t.Fatalf("data home has no pfdat for frame %d", pf.Frame)
	}
	home.LoanedTo = 0
	expectViolation(t, h, "cell1: loaned count 0, table has 1")
}

func TestCheckCatchesRelabelledPfdat(t *testing.T) {
	// Class 1, hash/frames coherence: the imported pfdat is relabelled in
	// place, so the hash files it where its old label hashes.
	h, pf := newSharingHive(t)
	pf.LP.Off += 5
	expectViolation(t, h, pf.LP.String())
}
