// Package vm implements Hive's per-cell virtual memory system (§5 of the
// paper): the IRIX-derived pfdat page cache, extended pfdats, logical-level
// memory sharing (export/import/release), physical-level sharing
// (loan/borrow/return of page frames), the firewall management policy, and
// the preemptive-discard bookkeeping the wild-write defense depends on.
package vm

import (
	"errors"
	"fmt"
	"sort"
	"strings"

	"repro/internal/machine"
	"repro/internal/rpc"
	"repro/internal/sim"
)

// ObjKind distinguishes the two owners of logical pages.
type ObjKind uint8

const (
	// FileObj pages belong to a file; the tag names the file.
	FileObj ObjKind = iota
	// AnonObj pages are anonymous (backed by swap); the tag names a
	// copy-on-write tree node.
	AnonObj
)

// ObjID is the tag component of a logical page id (§5.1): the object —
// file or copy-on-write node — to which the page belongs.
type ObjID struct {
	Kind ObjKind
	Home int    // data home cell for the object
	Num  uint64 // file number or COW node address
}

// LogicalPage is a logical page id: object tag plus page offset (§5.1).
type LogicalPage struct {
	Obj ObjID
	Off int64 // page offset within the object
}

// Less is a total order over logical pages, used wherever a pfdat map
// must be iterated deterministically.
func (lp LogicalPage) Less(o LogicalPage) bool {
	if lp.Obj.Kind != o.Obj.Kind {
		return lp.Obj.Kind < o.Obj.Kind
	}
	if lp.Obj.Home != o.Obj.Home {
		return lp.Obj.Home < o.Obj.Home
	}
	if lp.Obj.Num != o.Obj.Num {
		return lp.Obj.Num < o.Obj.Num
	}
	return lp.Off < o.Off
}

// SortedPages returns m's keys in LogicalPage.Less order, so callers
// can sweep a pfdat map without leaking Go's random map order into
// simulation state.
func SortedPages(m map[LogicalPage]*Pfdat) []LogicalPage {
	out := make([]LogicalPage, 0, len(m))
	for lp := range m {
		out = append(out, lp)
	}
	sort.SliceStable(out, func(i, j int) bool { return out[i].Less(out[j]) })
	return out
}

// String formats the logical page id for diagnostics.
func (lp LogicalPage) String() string {
	k := "file"
	if lp.Obj.Kind == AnonObj {
		k = "anon"
	}
	return fmt.Sprintf("%s(home=%d,%d)+%d", k, lp.Obj.Home, lp.Obj.Num, lp.Off)
}

// Pfdat is a page frame data structure (§5.1): the kernel record binding a
// logical page id to a physical frame. Regular pfdats describe local
// frames; extended pfdats are allocated dynamically for remote frames a
// cell has imported (logical level) or borrowed (physical level).
type Pfdat struct {
	Frame machine.PageNum
	LP    LogicalPage
	Valid bool // bound to a logical page and present in the hash
	Dirty bool // modified with respect to backing store

	// Extended marks a dynamically allocated pfdat for a remote frame.
	Extended bool

	// Logical-level sharing state (data home side).
	exports  map[int]int  // client cell -> reference count
	writable map[int]bool // client cells granted firewall write access

	// Logical-level sharing state (client side).
	ImportedFrom int  // data home cell, or -1
	ImpWritable  bool // this cell requested write access

	// Physical-level sharing state. The two state machines use separate
	// storage so a frame can be loaned out and imported back at once
	// (§5.5).
	LoanedTo     int // memory home side: borrowing cell, or -1
	BorrowedFrom int // data home side: memory home cell, or -1

	// Refs counts local mappings/uses; the page cannot be freed or its
	// import released while nonzero.
	Refs int

	// Kernel marks frames reserved for kernel text/data: never granted
	// remote write access and never loaned.
	Kernel bool
}

func newPfdat(frame machine.PageNum) *Pfdat {
	return &Pfdat{Frame: frame, ImportedFrom: -1, LoanedTo: -1, BorrowedFrom: -1}
}

// Exported reports whether any client cell currently imports this page.
func (p *Pfdat) Exported() bool { return len(p.exports) > 0 }

// ExportedTo reports whether the given cell imports this page.
func (p *Pfdat) ExportedTo(cell int) bool { return p.exports[cell] > 0 }

// WritableBy reports whether the given cell has write access to the page.
func (p *Pfdat) WritableBy(cell int) bool { return p.writable[cell] }

// ExportClients returns the client cells importing this page, ascending
// — the deterministic iteration order for auditing and recovery sweeps.
func (p *Pfdat) ExportClients() []int {
	out := make([]int, 0, len(p.exports))
	for c := range p.exports {
		out = append(out, c)
	}
	sort.Ints(out)
	return out
}

// Errors returned by the VM layer.
var (
	// ErrNoMemory means no acceptable frame could be allocated.
	ErrNoMemory = errors.New("vm: out of memory")
	// ErrDiscarded means the page was preemptively discarded after a
	// cell failure and the caller's generation is stale (§4.2).
	ErrDiscarded = errors.New("vm: page discarded after cell failure")
	// ErrBadPage is a sanity-check failure on an RPC argument.
	ErrBadPage = errors.New("vm: bad page argument")
	// ErrRecovering means the operation arrived while recovery holds
	// faults up (§4.3 double barrier).
	ErrRecovering = errors.New("vm: cell in recovery")
)

// IsRecovering reports whether err indicates the callee was in recovery;
// error identity does not survive the RPC boundary, so match the message
// too.
func IsRecovering(err error) bool {
	return err != nil &&
		(errors.Is(err, ErrRecovering) || strings.Contains(err.Error(), ErrRecovering.Error()))
}

// RPC procedure numbers used by the VM subsystem (range 100-119).
const (
	ProcExport   rpc.ProcID = 100 + iota // page-fault service: export a page
	ProcRelease                          // drop an export reference
	ProcBorrow                           // borrow free frames
	ProcReturn                           // return borrowed frames
	ProcFirewall                         // change firewall on a loaned frame
)

// Cost components (ns) calibrated from Table 5.2 of the paper. The local
// page-fault path totals 6.9 µs; the remote path's client cell spends
// 28.0 µs (file system 9.0, locking 5.5, miscellaneous VM 8.7, import 4.8)
// and the data home 5.4 µs (miscellaneous VM 3.4, export 2.0); RPC costs
// (17.3 µs) are charged by the rpc package.
const (
	LocalFaultLookup sim.Time = 3200 // hash lookup + pfdat checks
	LocalFaultMap    sim.Time = 3700 // TLB/page-table insertion
	FSClientCost     sim.Time = 9000 // client-side file system work
	LockingCost      sim.Time = 5500 // client-side locking overhead
	MiscVMClient     sim.Time = 8700 // client-side miscellaneous VM
	ImportCost       sim.Time = 4800 // allocate extended pfdat + hash insert
	ExportCost       sim.Time = 2000 // record client, firewall bookkeeping
	MiscVMDataHome   sim.Time = 3400 // data-home miscellaneous VM
	BorrowCost       sim.Time = 6000 // borrow bookkeeping per batch
	ReleaseCost      sim.Time = 2500 // free extended pfdat
)
