// Package cow implements the distributed copy-on-write trees that manage
// anonymous (swap-backed) pages, following §5.3 of the paper. The tree
// structure is the IRIX/Mach design: an anonymous page is recorded at the
// leaf node current when it was written; forking splits the leaf into two
// new leaves (one for parent, one for child); a faulting process searches
// up the tree for the copy made by the nearest ancestor.
//
// In Hive the parent and child may be on different cells, so tree pointers
// cross cell boundaries. The paper's experiment: keep the tree intact and
// let lookups traverse remote nodes with the careful reference protocol —
// the interior nodes are never modified by readers, so no wild-write
// vulnerability is created. Nodes live in kmem arenas so remote traversal
// is exposed to garbage pointers, stale tags, and bus errors, exactly as
// the §7.4 fault injections require.
package cow

import (
	"errors"
	"fmt"

	"repro/internal/careful"
	"repro/internal/disk"
	"repro/internal/kmem"
	"repro/internal/machine"
	"repro/internal/rpc"
	"repro/internal/sim"
	"repro/internal/stats"
	"repro/internal/vm"
)

// TagNode is the allocator type tag for COW tree nodes (§4.1: checked by
// the careful reference protocol on every remote node visit).
const TagNode kmem.TypeTag = 0xC07E

// MaxEntries bounds the anonymous pages recorded per node.
const MaxEntries = 4096

// Node word layout.
const (
	wordParent = 0 // parent node address (kmem.Addr), 0 at the root
	wordCount  = 1 // number of page entries
	wordPages  = 2 // entries: one word per entry, the page offset
	nodeWords  = wordPages + MaxEntries
)

// MaxDepth bounds upward traversals (loop defense).
const MaxDepth = 64

// Traversal costs (ns): local node visits are cache work; remote visits go
// through the careful reference protocol which charges itself.
const localVisit sim.Time = 300

// Errors.
var (
	// ErrTreeDamaged is returned when the careful protocol rejected a
	// remote node during the search.
	ErrTreeDamaged = errors.New("cow: tree damaged (careful reference failed)")
	// ErrNodeFull means a leaf exceeded MaxEntries.
	ErrNodeFull = errors.New("cow: leaf node full")
	// ErrBadArgs is a server-side sanity rejection.
	ErrBadArgs = errors.New("cow: bad request arguments")
)

// RPC procedure numbers (range 140-159).
const (
	// ProcMakeLeaf asks a cell to allocate a leaf node for a forked
	// child process migrating there.
	ProcMakeLeaf rpc.ProcID = 140 + iota
)

// Manager is one cell's COW tree manager.
type Manager struct {
	CellID  int
	M       *machine.Machine
	EP      *rpc.Endpoint
	VM      *vm.VM
	Space   *kmem.Space
	Reader  *careful.Reader
	Metrics *stats.Registry

	// Swap backing (see swap.go).
	swapDisk  *disk.Drive
	swapBase  int64
	swapMap   map[swapKey]uint64
	swapSlots map[swapKey]int64

	// OnLocalDamage is invoked when this cell's own kernel data fails a
	// consistency check during a local traversal — the kernel has
	// detected its own corruption and panics (§4.1: cells normally
	// panic on internal corruption; only *remote* reads are careful).
	OnLocalDamage func(reason string)

	// Counters of the touch path, looked up on first use.
	remoteVisits, zeroFills, copies *stats.Counter
}

func (mg *Manager) localDamage(reason string) {
	mg.Metrics.Counter("cow.local_damage").Inc()
	if mg.OnLocalDamage != nil {
		mg.OnLocalDamage(reason)
	}
}

// New creates the manager and registers it as the VM's anonymous-page
// resolver and its RPC services.
func New(m *machine.Machine, ep *rpc.Endpoint, v *vm.VM, space *kmem.Space, reader *careful.Reader, cellID int) *Manager {
	mg := &Manager{
		CellID: cellID, M: m, EP: ep, VM: v, Space: space, Reader: reader,
		Metrics: stats.NewRegistry(),
	}
	v.SetResolver(vm.AnonObj, mg)
	mg.registerServices()
	mg.registerLookupService()
	return mg
}

func (mg *Manager) arena() *kmem.Arena { return mg.Space.Arena(mg.CellID) }

func (mg *Manager) proc() *machine.Processor {
	for _, p := range mg.EP.Procs {
		if !p.Halted() {
			return p
		}
	}
	return mg.EP.Procs[0]
}

// NewRoot allocates a fresh tree root/leaf for a new address space.
func (mg *Manager) NewRoot() kmem.Addr {
	return mg.arena().Alloc(TagNode, nodeWords)
}

// Fork splits leaf into two new leaves — one stays with the parent process
// (on this cell), the other belongs to the child on childCell (allocated
// there by RPC when remote, keeping every process's leaf local to it).
// Pages recorded in the old leaf (now interior) are visible to both.
func (mg *Manager) Fork(t *sim.Task, leaf kmem.Addr, childCell int) (parentLeaf, childLeaf kmem.Addr, err error) {
	parentLeaf = mg.arena().Alloc(TagNode, nodeWords)
	mg.arena().WriteWord(parentLeaf, wordParent, uint64(leaf))
	if childCell == mg.CellID {
		childLeaf = mg.arena().Alloc(TagNode, nodeWords)
		mg.arena().WriteWord(childLeaf, wordParent, uint64(leaf))
		return parentLeaf, childLeaf, nil
	}
	res, _, err := mg.EP.Call(t, mg.proc(), childCell, ProcMakeLeaf,
		&makeLeafArgs{Parent: leaf}, rpc.CallOpts{DataBytes: 16})
	if err != nil {
		mg.arena().Free(parentLeaf)
		return 0, 0, err
	}
	childLeaf, err = validateMakeLeafReply(res, childCell)
	if err != nil {
		mg.arena().Free(parentLeaf)
		return 0, 0, err
	}
	mg.Metrics.Counter("cow.remote_forks").Inc()
	return parentLeaf, childLeaf, nil
}

// validateMakeLeafReply vets a makeleaf reply before the leaf address a
// peer chose becomes a process's address-space root: the reply must be
// well-formed and the leaf must live on the cell we asked — a corrupt
// peer must not hand back a pointer into a third cell's tree.
func validateMakeLeafReply(res any, childCell int) (kmem.Addr, error) {
	rep, ok := res.(*makeLeafReply)
	if !ok || rep.Leaf.Cell() != childCell {
		return 0, ErrBadArgs
	}
	return rep.Leaf, nil
}

// Record registers an anonymous page at the given local leaf (a process
// wrote a copy-on-write page; the new copy belongs to its current leaf).
func (mg *Manager) Record(leaf kmem.Addr, off int64) error {
	a := mg.arena()
	count, _ := a.ReadWord(leaf, wordCount)
	if int(count) >= MaxEntries {
		return ErrNodeFull
	}
	a.WriteWord(leaf, wordPages+int(count), uint64(off))
	a.WriteWord(leaf, wordCount, count+1)
	return nil
}

// LP builds the logical page id for an anonymous page recorded at node:
// the node's owning cell is the data home (§5.3).
func LP(node kmem.Addr, off int64) vm.LogicalPage {
	return vm.LogicalPage{
		Obj: vm.ObjID{Kind: vm.AnonObj, Home: node.Cell(), Num: uint64(node)},
		Off: off,
	}
}

// Lookup searches from leaf up the tree for the node holding page off.
// Local nodes are read directly; remote nodes through the careful reference
// protocol (§5.3). found=false means the page was never written by any
// ancestor (zero-fill at the caller's leaf).
//
// Damage attribution follows pointer provenance: a bad pointer read from
// one of this cell's own nodes means *our* kernel data is corrupt (panic);
// a bad pointer supplied by a remote cell's node is evidence against that
// cell — the reader survives and raises a hint against the supplier, not
// against whatever innocent cell the wild pointer happens to address.
func (mg *Manager) Lookup(t *sim.Task, leaf kmem.Addr, off int64) (node kmem.Addr, found bool, err error) {
	cur := leaf
	supplier := mg.CellID  // the process table supplied the leaf pointer
	var snapBuf [16]uint64 // a remote node's copy, when it fits
	fail := func(e error) error {
		if supplier == mg.CellID {
			mg.localDamage(e.Error())
		} else if mg.Reader.HintSink != nil {
			mg.Reader.HintSink(supplier, "supplied bad COW pointer: "+e.Error())
		}
		return e
	}
	for depth := 0; depth < MaxDepth && cur != kmem.NilAddr; depth++ {
		if cur.Cell() == mg.CellID {
			// Node in our own memory: direct reads, but trust the
			// contents only as far as the pointer's supplier.
			mg.proc().Use(t, localVisit)
			hit, parent, err := mg.scanNode(cur, off)
			if err != nil {
				return 0, false, fail(err)
			}
			if hit {
				return cur, true, nil
			}
			supplier = mg.CellID
			cur = parent
			continue
		}

		// Remote node: careful reference protocol (§4.1).
		mg.Metrics.Cached(&mg.remoteVisits, "cow.remote_visits").Inc()
		ctx := mg.Reader.On(t, mg.proc(), cur.Cell())
		var hit, badCount bool
		var next kmem.Addr
		if ctx.CheckAddr(cur) && ctx.CheckTag(cur, TagNode) {
			// Copy the header and entries to local memory before
			// sanity checks (protocol step 3): a small node into
			// snapBuf, a larger one into a slice of its own.
			count := ctx.ReadWord(cur, wordCount)
			if count <= MaxEntries {
				var dst []uint64
				if n := wordPages + int(count); n <= len(snapBuf) {
					dst = snapBuf[:n]
				} else {
					dst = make([]uint64, n)
				}
				snap := ctx.CopyObject(cur, dst)
				if snap != nil {
					for i := 0; i < int(count); i++ {
						if int64(snap[wordPages+i]) == off {
							hit = true
							break
						}
					}
					next = kmem.Addr(snap[wordParent])
				}
			} else {
				badCount = true // garbage count: consistency failure
			}
		}
		if cerr := ctx.Off(); cerr != nil {
			if errors.Is(cerr, careful.ErrBusError) {
				// The target node/cell failed mid-read. That is the
				// machine fault model at work, not corruption: the
				// careful window already raised the hint; survive.
				return 0, false, fmt.Errorf("%w: careful read of %v: %v",
					ErrTreeDamaged, cur, cerr)
			}
			// Consistency failure: fail() assigns provenance blame.
			return 0, false, fail(fmt.Errorf("%w: careful read of %v: %v", ErrTreeDamaged, cur, cerr))
		}
		if badCount {
			supplierWas := supplier
			supplier = cur.Cell() // the node itself is the bad data
			e := fail(fmt.Errorf("%w: node %v count fails sanity check", ErrTreeDamaged, cur))
			supplier = supplierWas
			return 0, false, e
		}
		if hit {
			return cur, true, nil
		}
		supplier = cur.Cell()
		cur = next
	}
	if cur != kmem.NilAddr {
		return 0, false, fail(fmt.Errorf("%w: traversal exceeded depth bound at %v", ErrTreeDamaged, cur))
	}
	return 0, false, nil
}

// scanNode reads one node of this cell's own arena: it checks the type
// tag and the entry count, scans the entries for off, and returns the
// parent pointer when off is not there. An error names the check the node
// failed.
func (mg *Manager) scanNode(cur kmem.Addr, off int64) (found bool, parent kmem.Addr, err error) {
	a := mg.arena()
	tag, terr := a.TagAt(cur)
	if terr != nil || tag != TagNode {
		return false, 0, fmt.Errorf("%w: node %v bad tag", ErrTreeDamaged, cur)
	}
	count, _ := a.ReadWord(cur, wordCount)
	if int(count) > MaxEntries {
		return false, 0, fmt.Errorf("%w: node %v bad count %d", ErrTreeDamaged, cur, count)
	}
	for i := 0; i < int(count); i++ {
		if v, _ := a.ReadWord(cur, wordPages+i); int64(v) == off {
			return true, 0, nil
		}
	}
	p, _ := a.ReadWord(cur, wordParent)
	return false, kmem.Addr(p), nil
}

// Touch services a process's access to anonymous page off from its leaf:
// it finds the page (or zero-fills at the leaf), performs copy-on-write for
// writes to ancestor pages, and returns the pfdat the process maps. The
// caller must Unref it when unmapping.
func (mg *Manager) Touch(t *sim.Task, leaf kmem.Addr, off int64, write bool) (*vm.Pfdat, error) {
	node, found, err := mg.Lookup(t, leaf, off)
	if err != nil {
		return nil, err
	}
	if !found {
		// Never written: materialize a zero page at the local leaf.
		if err := mg.Record(leaf, off); err != nil {
			return nil, err
		}
		mg.Metrics.Cached(&mg.zeroFills, "cow.zero_fills").Inc()
		return mg.VM.Fault(t, LP(leaf, off), write)
	}
	if write && node != leaf {
		// Copy-on-write: read the ancestor's copy, write a new page
		// at our leaf.
		src, err := mg.VM.Fault(t, LP(node, off), false)
		if err != nil {
			return nil, err
		}
		tag, _, rerr := mg.M.ReadPage(t, mg.proc(), src.Frame)
		mg.VM.Unref(t, src)
		if rerr != nil {
			return nil, rerr
		}
		if err := mg.Record(leaf, off); err != nil {
			return nil, err
		}
		dst, err := mg.VM.Fault(t, LP(leaf, off), true)
		if err != nil {
			return nil, err
		}
		if err := mg.M.WritePage(t, mg.proc(), dst.Frame, tag); err != nil {
			mg.VM.Unref(t, dst)
			return nil, err
		}
		mg.Metrics.Cached(&mg.copies, "cow.copies").Inc()
		return dst, nil
	}
	return mg.VM.Fault(t, LP(node, off), write)
}

// ResolvePage implements vm.Resolver for anonymous pages: the data home
// (the node's owner) materializes the page; clients import it — the same
// export/import machinery as file pages (§5.3).
func (mg *Manager) ResolvePage(t *sim.Task, lp vm.LogicalPage, write bool) (*vm.Pfdat, error) {
	if lp.Obj.Home == mg.CellID {
		if pf, ok := mg.VM.Lookup(lp); ok {
			return pf, nil
		}
		// Materialize: from swap if the page was evicted there, else
		// zero-filled (tag 0).
		frame, err := mg.VM.AllocFrame(t)
		if err != nil {
			return nil, err
		}
		tag, _ := mg.swapIn(t, lp)
		if err := mg.M.WritePage(t, mg.proc(), frame, tag); err != nil {
			return nil, err
		}
		return mg.VM.InsertLocal(lp, frame, false), nil
	}
	mg.proc().Use(t, vm.FSClientCost)
	return mg.VM.ImportRemote(t, lp, write)
}

// auditOff is a page offset no node ever records (offsets are
// non-negative), so a Lookup with it walks and validates a node's entire
// ancestor chain without matching anything.
const auditOff int64 = -1

// Audit runs the cell's kernel consistency check over the copy-on-write
// forest: every live node in the local arena has its full ancestor chain
// walked with the same checks as a lookup — type tag, entry count, the
// depth bound that catches pointer cycles, and careful remote reads for
// chains that cross cells. This is the paper's aggressive failure
// detection: damage a workload never happens to touch again must still be
// found, and a cell that finds its own kernel data damaged panics
// (OnLocalDamage fires per damaged chain). Returns the damaged-chain
// count.
func (mg *Manager) Audit(t *sim.Task) int {
	var nodes []kmem.Addr
	mg.arena().EachTagged(TagNode, func(a kmem.Addr) { nodes = append(nodes, a) })
	damaged := 0
	for _, n := range nodes {
		if _, _, err := mg.Lookup(t, n, auditOff); err != nil {
			damaged++
		}
	}
	return damaged
}

// CorruptParent overwrites a node's parent pointer — the §7.4 software
// fault injection for the copy-on-write tree.
func (mg *Manager) CorruptParent(node kmem.Addr, val uint64) bool {
	return mg.Space.Arena(node.Cell()).CorruptWord(node, wordParent, val)
}

// makeLeafArgs / makeLeafReply drive ProcMakeLeaf.
type makeLeafArgs struct {
	Parent kmem.Addr
}
type makeLeafReply struct {
	Leaf kmem.Addr
}

// validateMakeLeafArgs vets a makeleaf request before the parent address
// it carries is written into this cell's arena: the request must be
// well-formed and the parent must belong to the calling cell — a corrupt
// peer must not be able to graft a leaf under a third cell's tree.
func validateMakeLeafArgs(req *rpc.Request) (*makeLeafArgs, error) {
	args, ok := req.Args.(*makeLeafArgs)
	if !ok || args.Parent == kmem.NilAddr {
		return nil, ErrBadArgs
	}
	if args.Parent.Cell() != req.From {
		return nil, ErrBadArgs
	}
	return args, nil
}

func (mg *Manager) registerServices() {
	mg.EP.Register(ProcMakeLeaf, "cow.makeleaf",
		func(_ *sim.Task, req *rpc.Request) (any, sim.Time, error) {
			args, err := validateMakeLeafArgs(req)
			if err != nil {
				return nil, 0, err
			}
			leaf := mg.arena().Alloc(TagNode, nodeWords)
			mg.arena().WriteWord(leaf, wordParent, uint64(args.Parent))
			return &makeLeafReply{Leaf: leaf}, 2000, nil
		})
}
