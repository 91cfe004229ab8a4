// Package vm implements Hive's per-cell virtual memory system (§5 of the
// paper): the IRIX-derived pfdat page cache, extended pfdats, logical-level
// memory sharing (export/import/release), physical-level sharing
// (loan/borrow/return of page frames), the firewall management policy, and
// the preemptive-discard bookkeeping the wild-write defense depends on.
package vm

import (
	"cmp"
	"errors"
	"fmt"
	"math/bits"
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

// compare is a total order over logical pages, used wherever the pfdat
// hash must be iterated deterministically.
func (lp LogicalPage) compare(o LogicalPage) int {
	if c := cmp.Compare(lp.Obj.Kind, o.Obj.Kind); c != 0 {
		return c
	}
	if c := cmp.Compare(lp.Obj.Home, o.Obj.Home); c != 0 {
		return c
	}
	if c := cmp.Compare(lp.Obj.Num, o.Obj.Num); c != 0 {
		return c
	}
	return cmp.Compare(lp.Off, o.Off)
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
//
// Each cell keeps one regular pfdat per local frame for its whole life, so
// the struct's size sizes every boot's tables: the five flags sit
// together after LP, and the data home's export bookkeeping is two cell
// sets, keeping a Pfdat at 96 bytes.
type Pfdat struct {
	Frame machine.PageNum
	LP    LogicalPage
	Valid bool // bound to a logical page and present in the hash
	Dirty bool // modified with respect to backing store

	// Extended marks a dynamically allocated pfdat for a remote frame.
	Extended bool

	// ImpWritable is client-side logical-level sharing state: this cell
	// requested write access to the page it imported.
	ImpWritable bool

	// Kernel marks frames reserved for kernel text/data: never granted
	// remote write access and never loaned.
	Kernel bool

	// Logical-level sharing state (data home side): the client cells
	// importing the page, and those granted firewall write access. A
	// client that imports the page more than once has its count past one
	// in VM.extraExports.
	exports, writable cellSet

	// Logical-level sharing state (client side).
	ImportedFrom int // data home cell, or -1

	// Physical-level sharing state. The two state machines use separate
	// storage so a frame can be loaned out and imported back at once
	// (§5.5).
	LoanedTo     int // memory home side: borrowing cell, or -1
	BorrowedFrom int // data home side: memory home cell, or -1

	// Refs counts local mappings/uses; the page cannot be freed or its
	// import released while nonzero.
	Refs int
}

func newPfdat(frame machine.PageNum) *Pfdat {
	return &Pfdat{Frame: frame, ImportedFrom: -1, LoanedTo: -1, BorrowedFrom: -1}
}

// cellSet is a set of cell IDs, one bit per cell: a hive has at most 64
// cells.
type cellSet uint64

// allCells holds every cell.
const allCells = ^cellSet(0)

// cellOf returns the set of cell c alone. It panics on a cell outside
// [0, 64): callers pass cell IDs a validator or the kernel's own tables
// produced, so such a cell is a bug.
func cellOf(c int) cellSet {
	if uint(c) >= 64 {
		panic(fmt.Sprintf("vm: cell %d outside a 64-cell set", c))
	}
	return 1 << c
}

// has reports whether cell c is in the set.
func (s cellSet) has(c int) bool { return uint(c) < 64 && s&(1<<c) != 0 }

// Exported reports whether any client cell currently imports this page.
func (p *Pfdat) Exported() bool { return p.exports != 0 }

// ExportedTo reports whether the given cell imports this page.
func (p *Pfdat) ExportedTo(cell int) bool { return p.exports.has(cell) }

// WritableBy reports whether the given cell has write access to the page.
func (p *Pfdat) WritableBy(cell int) bool { return p.writable.has(cell) }

// ExportClients returns the client cells importing this page, ascending
// — the deterministic iteration order for auditing and recovery sweeps.
func (p *Pfdat) ExportClients() []int {
	out := make([]int, 0, bits.OnesCount64(uint64(p.exports)))
	for s := uint64(p.exports); s != 0; s &= s - 1 {
		out = append(out, bits.TrailingZeros64(s))
	}
	return out
}

// exportRef names one client's imports of the page in one frame: the key
// of an export count past one.
type exportRef struct {
	frame  machine.PageNum
	client int
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
