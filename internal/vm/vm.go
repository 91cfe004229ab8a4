package vm

import (
	"fmt"

	"repro/internal/machine"
	"repro/internal/rpc"
	"repro/internal/sim"
	"repro/internal/stats"
	"repro/internal/trace"
)

// Resolver locates a logical page that missed in the pfdat hash: the file
// system for file pages, the copy-on-write manager for anonymous pages
// (§5.7: they provide naming and location transparency). ResolvePage runs
// in task context and may block (disk reads, RPCs); on success the page is
// in the hash.
type Resolver interface {
	ResolvePage(t *sim.Task, lp LogicalPage, write bool) (*Pfdat, error)
}

// VM is one cell's virtual memory system.
type VM struct {
	CellID int
	M      *machine.Machine
	EP     *rpc.Endpoint

	// NodeIDs the cell owns; CellOfNode maps any node to its owning cell.
	NodeIDs    []int
	CellOfNode []int

	// Lock is the cell's memory lock. Interrupt-level services only test
	// it (lock) and fall back to the queued path when busy (§4.3 explains
	// why fault service must avoid blocking locks).
	Lock sim.Mutex

	hash pageHash
	// regular holds the cell's regular pfdats (§5.1), one per local
	// frame, indexed by frame - firstFrame. It is built once at boot and
	// never resized, so its pointers are stable. A cell's nodes are
	// consecutive, so its local frames are one range.
	regular    []Pfdat
	firstFrame machine.PageNum
	// extended holds the pfdats of remote frames, allocated on demand:
	// frames borrowed from a memory home and pages imported from a data
	// home. There are a few hundred at most.
	extended  map[machine.PageNum]*Pfdat
	free      []machine.PageNum
	resolvers map[ObjKind]Resolver

	// extraExports counts a client's imports of a page past the first,
	// which the page's export set records (Pfdat.exports). No workload
	// exports a page twice to one client, so it stays empty and is made
	// on first use. It lives here, not in each Pfdat, so that the
	// regular tables every boot allocates do not grow.
	extraExports map[exportRef]int

	// borrowed and loaned count the pfdats with BorrowedFrom >= 0 and
	// LoanedTo >= 0. They change only where those fields change
	// (setLoan, addExtended, dropExtended), so reading them costs O(1);
	// CheckInvariants compares them against a walk.
	borrowed, loaned int

	// procForNode holds the first processor of each of the cell's nodes,
	// indexed by node - NodeIDs[0].
	procForNode []*machine.Processor

	// recovery state
	holdFaults bool
	faultCond  *sim.Cond

	// OnDiscardDirty tells the file system a dirty page was preemptively
	// discarded so it can bump the file's generation number (§4.2).
	OnDiscardDirty func(lp LogicalPage)

	// AllocTargets, set by Wax, orders remote cells to borrow frames
	// from when local memory runs out (Table 3.4: page allocator policy).
	AllocTargets []int

	// BorrowBatch is how many frames one borrow RPC requests.
	BorrowBatch int

	// Tracer records this cell's fault spans (nil no-ops).
	Tracer *trace.Tracer

	Metrics   *stats.Registry
	histFault *stats.Histogram // fault service latency (µs), hits and misses
	// Counters of the fault path, looked up on first use.
	faultHits, faultMisses *stats.Counter

	// maskOfCell caches each cell's firewall processor mask (built lazily
	// from CellOfNode, which never changes after boot).
	maskOfCell []uint64
}

// New creates the VM for cell cellID owning the given nodes, which must be
// consecutive. kernelPages frames per node are reserved for the kernel
// (never shared, never loaned); the rest form the paged-memory free pool.
func New(m *machine.Machine, ep *rpc.Endpoint, cellID int, nodeIDs []int, cellOfNode []int, kernelPages int) *VM {
	v := &VM{
		CellID:      cellID,
		M:           m,
		EP:          ep,
		NodeIDs:     nodeIDs,
		CellOfNode:  cellOfNode,
		extended:    make(map[machine.PageNum]*Pfdat),
		resolvers:   make(map[ObjKind]Resolver),
		BorrowBatch: 16,
		Metrics:     stats.NewRegistry(),
	}
	v.histFault = v.Metrics.Hist("vm.fault_us")
	v.faultCond = &sim.Cond{M: &v.Lock}
	v.firstFrame, _ = m.NodePages(nodeIDs[0])
	v.regular = make([]Pfdat, len(nodeIDs)*m.PagesPerNode)
	for i, n := range nodeIDs {
		if n != nodeIDs[0]+i {
			panic(fmt.Sprintf("vm: cell %d nodes %v are not consecutive", cellID, nodeIDs))
		}
		v.procForNode = append(v.procForNode, m.Nodes[n].Procs[0])
		lo, hi := m.NodePages(n)
		for p := lo; p < hi; p++ {
			pf := &v.regular[p-v.firstFrame]
			*pf = *newPfdat(p)
			if int(p-lo) < kernelPages {
				pf.Kernel = true
			} else {
				v.free = append(v.free, p)
			}
		}
	}
	v.registerServices()
	return v
}

// SetResolver installs the page resolver for an object kind.
func (v *VM) SetResolver(k ObjKind, r Resolver) { v.resolvers[k] = r }

// lock takes the memory lock for task t. In interrupt context (t nil) it
// takes nothing and reports false if the lock is held: the service would
// block, so it returns rpc.ErrQueue.
func (v *VM) lock(t *sim.Task) bool {
	if t == nil {
		return !v.Lock.Locked()
	}
	v.Lock.Lock(t)
	return true
}

// unlock releases what lock took.
func (v *VM) unlock(t *sim.Task) {
	if t != nil {
		v.Lock.Unlock(t)
	}
}

// Lookup returns the pfdat for lp if present in the hash (no timing).
func (v *VM) Lookup(lp LogicalPage) (*Pfdat, bool) {
	pf := v.hash.get(lp)
	return pf, pf != nil
}

// PfdatFor returns the pfdat for a frame this cell knows about; any other
// number, in the machine or not, gives nil, false.
func (v *VM) PfdatFor(frame machine.PageNum) (*Pfdat, bool) {
	pf := v.pfdat(frame)
	return pf, pf != nil
}

// FreePages returns the current free-pool size.
func (v *VM) FreePages() int { return len(v.free) }

// frameExists reports whether a frame number another cell sent names a
// real frame of the machine.
func (v *VM) frameExists(f machine.PageNum) bool {
	return f >= 0 && int(f) < v.M.NumPages()
}

// localFrame reports whether the frame's memory home is this cell.
func (v *VM) localFrame(p machine.PageNum) bool {
	return uint(p-v.firstFrame) < uint(len(v.regular))
}

// proc returns the processor used for VM work on the frame's home node, or
// any of the cell's processors for remote frames.
func (v *VM) proc(frame machine.PageNum) *machine.Processor {
	if i := uint(v.M.HomeNode(frame) - v.NodeIDs[0]); i < uint(len(v.procForNode)) {
		return v.procForNode[i]
	}
	return v.anyProc()
}

func (v *VM) anyProc() *machine.Processor {
	for _, p := range v.procForNode {
		if !p.Halted() {
			return p
		}
	}
	return v.procForNode[0]
}

// Fault services a page fault by a process on this cell for logical page
// lp. A hit in the local pfdat hash costs 6.9 µs; a miss invokes the
// object's resolver (file system or COW manager), which may go remote —
// the 50.7 µs path broken down in Table 5.2. The returned pfdat has its
// reference count incremented; the caller owns one reference.
func (v *VM) Fault(t *sim.Task, lp LogicalPage, write bool) (*Pfdat, error) {
	proc := v.anyProc()
	start := t.Now()
	span := v.Tracer.NextSpan()
	v.Tracer.EmitSpan(start, trace.FaultBegin, span, int64(lp.Obj.Home), lp.Off, "")
	for {
		// Faults are held up client-side while recovery runs (§4.3).
		if v.holdFaults {
			v.Lock.Lock(t)
			for v.holdFaults {
				v.faultCond.Wait(t)
			}
			v.Lock.Unlock(t)
		}

		proc.Use(t, LocalFaultLookup)
		pf := v.hash.get(lp)
		if pf != nil && (!write || v.writableHere(pf)) {
			// Hit: 6.9 µs total.
			proc.Use(t, LocalFaultMap)
			pf.Refs++
			v.Metrics.Cached(&v.faultHits, "vm.fault_hits").Inc()
			v.Tracer.EmitSpan(t.Now(), trace.FaultEnd, span, 1, 0, "")
			v.histFault.ObserveTime(t.Now() - start)
			return pf, nil
		}

		// Miss (or write upgrade): client-side VM + locking costs.
		v.Metrics.Cached(&v.faultMisses, "vm.fault_misses").Inc()
		proc.Use(t, MiscVMClient-LocalFaultLookup+LockingCost)
		v.Lock.Lock(t)
		res := v.resolvers[lp.Obj.Kind]
		if res == nil {
			v.Lock.Unlock(t)
			v.Tracer.EmitSpan(t.Now(), trace.FaultEnd, span, 0, 0, "")
			return nil, fmt.Errorf("%w: no resolver for %v", ErrBadPage, lp)
		}
		v.Lock.Unlock(t)
		pf, err := res.ResolvePage(t, lp, write)
		if IsRecovering(err) {
			t.Sleep(sim.Millisecond)
			continue
		}
		if err != nil {
			v.Tracer.EmitSpan(t.Now(), trace.FaultEnd, span, 0, 0, "")
			return nil, err
		}
		// Mapping cost on the miss path is folded into MiscVMClient,
		// keeping the client-side total at Table 5.2's 28.0 µs.
		pf.Refs++
		v.Tracer.EmitSpan(t.Now(), trace.FaultEnd, span, 0, 0, "")
		v.histFault.ObserveTime(t.Now() - start)
		return pf, nil
	}
}

// writableHere reports whether the page, as currently cached, satisfies a
// write fault from this cell.
func (v *VM) writableHere(pf *Pfdat) bool {
	if pf.ImportedFrom >= 0 {
		return pf.ImpWritable
	}
	return true // locally owned pages are writable by the owner
}

// Unref drops one reference to a pfdat. When the last local reference to an
// imported page is dropped the import is released back to the data home
// (§5.2: release frees the extended pfdat and RPCs the data home).
func (v *VM) Unref(t *sim.Task, pf *Pfdat) {
	if pf.Refs <= 0 {
		panic("vm: unref of unreferenced pfdat")
	}
	pf.Refs--
	if pf.Refs == 0 && pf.ImportedFrom >= 0 && pf.BorrowedFrom < 0 && !v.localFrame(pf.Frame) {
		v.Release(t, pf)
	}
}

// InsertLocal binds a local frame to a logical page and enters it in the
// hash: the data-home side of page-cache population (file reads, COW page
// creation). The caller must have allocated the frame.
func (v *VM) InsertLocal(lp LogicalPage, frame machine.PageNum, dirty bool) *Pfdat {
	pf := v.pfdat(frame)
	if pf == nil {
		// Borrowed frame in use as data home: pfdat exists from borrow.
		pf = newPfdat(frame)
		v.addExtended(pf)
	}
	pf.LP = lp
	pf.Valid = true
	pf.Dirty = dirty
	v.hash.put(pf)
	return pf
}

// Evict removes an unreferenced page from the hash and frees its frame.
// Dirty pages are the caller's responsibility to write back first.
func (v *VM) Evict(t *sim.Task, lp LogicalPage) bool {
	pf := v.hash.get(lp)
	if pf == nil || pf.Refs > 0 || pf.Exported() {
		return false
	}
	v.hash.del(lp)
	pf.Valid = false
	pf.Dirty = false
	v.FreeFrame(t, pf.Frame)
	return true
}

// HashEntries returns the pfdats in the pfdat hash ordered by label
// (invariant auditing).
func (v *VM) HashEntries() []*Pfdat { return v.hash.sorted() }

// FreeList returns a copy of the free pool (invariant auditing).
func (v *VM) FreeList() []machine.PageNum {
	return append([]machine.PageNum(nil), v.free...)
}

// Metrics helpers used by the §4.2 firewall study.

// RemotelyWritablePages counts this cell's local frames currently writable
// by any remote cell — the quantity sampled every 20 ms in the paper.
func (v *VM) RemotelyWritablePages() int {
	n := 0
	for i := range v.regular {
		if v.regular[i].writable != 0 {
			n++
		}
	}
	return n
}

// UserPages counts local frames currently bound to logical pages.
func (v *VM) UserPages() int {
	n := 0
	for i := range v.regular {
		if v.regular[i].Valid {
			n++
		}
	}
	return n
}
