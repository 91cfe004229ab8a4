// Package proc implements the UNIX process abstraction over the cells:
// process tables, fork/exec/exit, process groups, forks across cell
// boundaries, and spanning tasks — the extension (§3.2) that lets a single
// parallel process run threads on multiple cells at the same time.
package proc

import (
	"errors"
	"fmt"
	"sort"

	"repro/internal/cow"
	"repro/internal/fs"
	"repro/internal/kmem"
	"repro/internal/rpc"
	"repro/internal/sched"
	"repro/internal/sim"
	"repro/internal/stats"
	"repro/internal/vm"
)

// Costs (ns) for process lifecycle operations, in line with mid-90s UNIX.
const (
	ForkCost = 700 * sim.Microsecond // process duplication
	ExecCost = 2 * sim.Millisecond   // image setup, warm cache
	ExitCost = 300 * sim.Microsecond
)

// RPC procedure numbers (range 160-179). The values are explicit: trace
// events record them, so a deleted procedure must not renumber the rest.
const (
	ProcSpawn     rpc.ProcID = 160 // create a process on another cell
	ProcSpawnExec rpc.ProcID = 162 // create a detached fresh-image process
)

// Errors.
var (
	ErrNoProcess = errors.New("proc: no such process")
	ErrBadArgs   = errors.New("proc: bad request arguments")
)

// Body is the simulated program a process runs.
type Body func(p *Process, t *sim.Task)

// Process is one UNIX process (or one thread of a spanning task).
type Process struct {
	PID    int
	Cell   int
	Group  int
	Name   string
	Task   *sim.Task
	Leaf   kmem.Addr // copy-on-write tree leaf (always local, §5.3)
	Parent int

	// Deps tracks the cells whose resources this process depends on;
	// recovery kills dependents of a failed cell (fault containment's
	// proportional-damage definition, §2).
	Deps Cells

	// Span links threads of a spanning task (shared logical process).
	Span *Span

	exited   bool
	exitCode int
	killed   bool

	table *Table
	refs  []*vm.Pfdat // live page references to drop at exit

	// mapped caches established mappings (the page-table/TLB analogue):
	// a touch of a mapped page costs a memory access, not a kernel
	// fault, and does not consult the COW tree again.
	mapped map[vm.LogicalPage]*vm.Pfdat
	anonAt map[int64]*vm.Pfdat
}

// Cells is a set of cell IDs, one bit per cell; a hive has at most 64
// cells (core.MaxCells).
type Cells uint64

// Add puts cell c in the set. It panics on a cell outside [0, 64): cell
// IDs come from the kernel's own tables, so such a cell is a bug.
func (s *Cells) Add(c int) {
	if c < 0 || c >= 64 {
		panic(fmt.Sprintf("proc: cell %d outside a 64-cell set", c))
	}
	*s |= 1 << c
}

// Has reports whether cell c is in the set.
func (s Cells) Has(c int) bool { return c >= 0 && c < 64 && s&(1<<c) != 0 }

// Span is the shared state of a spanning task: one component process per
// cell.
type Span struct {
	ID      int
	Threads []*Process
}

// Table is one cell's process table.
type Table struct {
	CellID int
	EP     *rpc.Endpoint
	Sched  *sched.Scheduler
	FS     *fs.FS
	COW    *cow.Manager
	VM     *vm.VM

	Cells   int // total cells, for PID striding
	procs   map[int]*Process
	nextPID int
	nextSpn int
	Metrics *stats.Registry

	// Counters of the process life cycle, looked up on first use.
	spawned, exited *stats.Counter
}

// NewTable builds a cell's process table and registers its RPC services.
func NewTable(cellID, cells int, ep *rpc.Endpoint, s *sched.Scheduler, f *fs.FS, c *cow.Manager, v *vm.VM) *Table {
	pt := &Table{
		CellID: cellID, Cells: cells, EP: ep, Sched: s, FS: f, COW: c, VM: v,
		procs:   make(map[int]*Process),
		nextPID: cellID + cells, // stride PIDs by cell for global uniqueness
		Metrics: stats.NewRegistry(),
	}
	pt.registerServices()
	return pt
}

// Live returns the number of live processes on this cell.
func (pt *Table) Live() int { return len(pt.procs) }

// Get finds a local process.
func (pt *Table) Get(pid int) (*Process, bool) {
	p, ok := pt.procs[pid]
	return p, ok
}

// Each visits every live local process in PID order.
func (pt *Table) Each(fn func(*Process)) {
	pids := make([]int, 0, len(pt.procs))
	for pid := range pt.procs {
		pids = append(pids, pid)
	}
	sort.Ints(pids)
	for _, pid := range pids {
		if p, ok := pt.procs[pid]; ok {
			fn(p)
		}
	}
}

// Spawn creates a fresh process (no COW inheritance) running body.
func (pt *Table) Spawn(name string, group int, body Body) *Process {
	return pt.spawn(name, group, 0, pt.COW.NewRoot(), body)
}

func (pt *Table) spawn(name string, group, parent int, leaf kmem.Addr, body Body) *Process {
	p := &Process{
		PID: pt.nextPID, Cell: pt.CellID, Group: group, Name: name,
		Leaf: leaf, Parent: parent,
		table: pt,
	}
	p.Deps.Add(pt.CellID)
	pt.nextPID += pt.Cells
	pt.procs[p.PID] = p
	pt.Metrics.Cached(&pt.spawned, "proc.spawned").Inc()
	p.Task = pt.EP.Engine().Go(fmt.Sprintf("cell%d.%s.%d", pt.CellID, name, p.PID), func(t *sim.Task) {
		t.Data = p
		defer pt.reap(p)
		body(p, t)
	})
	return p
}

// reap finalizes a process: drop page references and
// asynchronously release imports whose last mapping went away (so the data
// home revokes any write permission, per the §4.2 policy: "write
// permission remains granted as long as any process on that cell has the
// page mapped").
func (pt *Table) reap(p *Process) {
	p.exited = true
	var release []*vm.Pfdat
	for _, pf := range p.refs {
		if pf.Refs > 0 {
			pf.Refs-- // bare deref; RPC-free (the task may be dying)
		}
		if pf.Refs == 0 && pf.ImportedFrom >= 0 {
			release = append(release, pf)
		}
	}
	p.refs = nil
	if len(release) > 0 {
		pt.EP.Engine().Go(fmt.Sprintf("cell%d.unmap.%d", pt.CellID, p.PID), func(t *sim.Task) {
			for _, pf := range release {
				if pf.Refs == 0 && pf.ImportedFrom >= 0 && pf.Valid {
					pt.VM.Release(t, pf)
				}
			}
		})
	}
	delete(pt.procs, p.PID)
	pt.Metrics.Cached(&pt.exited, "proc.exited").Inc()
}

// Fork creates a child of p running body on targetCell (possibly remote:
// the single-system image's cross-cell fork). The parent pays ForkCost; the
// child's COW leaf is split per §5.3.
func (pt *Table) Fork(t *sim.Task, p *Process, targetCell int, name string, body Body) (int, error) {
	pt.Sched.System(t, ForkCost)
	newParentLeaf, childLeaf, err := pt.COW.Fork(t, p.Leaf, targetCell)
	if err != nil {
		return 0, err
	}
	p.Leaf = newParentLeaf
	if targetCell == pt.CellID {
		child := pt.spawn(name, p.Group, p.PID, childLeaf, body)
		return child.PID, nil
	}
	res, _, err := pt.EP.Call(t, pt.Sched.Procs[0], targetCell, ProcSpawn,
		&spawnArgs{Name: name, Group: p.Group, Parent: p.PID, Leaf: childLeaf, Body: body},
		rpc.CallOpts{DataBytes: 192})
	if err != nil {
		return 0, err
	}
	pid, err := validateSpawnReply(res)
	if err != nil {
		return 0, err
	}
	p.Deps.Add(targetCell)
	pt.Metrics.Counter("proc.remote_forks").Inc()
	return pid, nil
}

// ForkExec creates a child on targetCell running body with a fresh
// address space — fork immediately followed by exec. Because the child
// shares no pages with the parent, the parent's COW leaf is not split
// (a dispatcher's tree stays shallow no matter how many children it
// creates) and the parent takes no fault dependency on the child's
// cell: only resources actually shared propagate faults (§2). The child
// still records the usual dependency on its parent's cell. This is the
// dispatch primitive for open-loop frontends that must survive the
// death of cells they route work to.
func (pt *Table) ForkExec(t *sim.Task, p *Process, targetCell int, name string, body Body) (int, error) {
	pt.Sched.System(t, ForkCost+ExecCost)
	if targetCell == pt.CellID {
		child := pt.spawn(name, p.Group, p.PID, pt.COW.NewRoot(), body)
		return child.PID, nil
	}
	res, _, err := pt.EP.Call(t, pt.Sched.Procs[0], targetCell, ProcSpawnExec,
		&spawnExecArgs{Name: name, Group: p.Group, Parent: p.PID, Body: body},
		rpc.CallOpts{DataBytes: 192})
	if err != nil {
		return 0, err
	}
	pid, err := validateSpawnReply(res)
	if err != nil {
		return 0, err
	}
	pt.Metrics.Counter("proc.remote_forks").Inc()
	return pid, nil
}

// validateSpawnReply vets a remote fork's reply. The child PID is an
// opaque token the child's cell allocated, so shape is all the parent
// can check; the PID is only ever used as a key back to that cell.
func validateSpawnReply(res any) (int, error) {
	rep, ok := res.(*spawnReply)
	if !ok {
		return 0, ErrBadArgs
	}
	return rep.PID, nil
}

// Exec charges the image-activation cost (text pages are warm in the
// unified page cache for the paper's workloads).
func (pt *Table) Exec(t *sim.Task, p *Process) {
	pt.Sched.System(t, ExecCost)
	pt.Metrics.Counter("proc.execs").Inc()
}

// Kill terminates a local process immediately.
func (pt *Table) Kill(p *Process) {
	if p.exited || p.killed {
		return
	}
	p.killed = true
	pt.Metrics.Counter("proc.killed").Inc()
	p.Task.Kill()
}

// KillAll terminates every local process (cell panic), in PID order so
// teardown is deterministic.
func (pt *Table) KillAll() {
	pt.Each(func(p *Process) { pt.Kill(p) })
}

// KillDependents kills local processes that depend on the failed cell —
// the recovery step that bounds damage to users of the failed resources.
func (pt *Table) KillDependents(failed int) int {
	n := 0
	pt.Each(func(p *Process) {
		if p.Deps.Has(failed) {
			pt.Kill(p)
			n++
		}
	})
	pt.Metrics.Counter("proc.killed_dependents").Add(int64(n))
	return n
}

// Process-side convenience operations, used by workload bodies.

// Compute runs user-mode CPU work.
func (p *Process) Compute(t *sim.Task, d sim.Time) { p.table.Sched.Compute(t, d) }

// TouchAnon accesses anonymous page off of p's address space (write or
// read). A mapped page costs one memory access; an unmapped one takes the
// COW fault path and enters the mapping cache.
func (p *Process) TouchAnon(t *sim.Task, off int64, write bool) error {
	proc := p.table.Sched.Procs[0]
	if pf, ok := p.anonAt[off]; ok && pf.Valid {
		return p.access(t, pf, off, write)
	}
	pf, err := p.table.COW.Touch(t, p.Leaf, off, write)
	if err != nil {
		return err
	}
	if p.anonAt == nil {
		p.anonAt = make(map[int64]*vm.Pfdat)
	}
	p.anonAt[off] = pf
	p.refs = append(p.refs, pf)
	if home := pf.ImportedFrom; home >= 0 {
		p.Deps.Add(home)
	}
	if write {
		return p.table.EP.M.WritePage(t, proc, pf.Frame,
			uint64(p.PID)<<32|uint64(off)|1)
	}
	_, _, err = p.table.EP.M.ReadPage(t, proc, pf.Frame)
	return err
}

func (p *Process) access(t *sim.Task, pf *vm.Pfdat, off int64, write bool) error {
	proc := p.table.Sched.Procs[0]
	if write {
		return p.table.EP.M.WritePage(t, proc, pf.Frame,
			uint64(p.PID)<<32|uint64(off)|1)
	}
	_, _, err := p.table.EP.M.ReadPage(t, proc, pf.Frame)
	return err
}

// MapShared faults a page of another thread's (or any) anonymous object
// into this process, the write-shared data segment pattern of ocean.
// Mapped pages are cached like TouchAnon's.
func (p *Process) MapShared(t *sim.Task, lp vm.LogicalPage, write bool) (*vm.Pfdat, error) {
	if pf, ok := p.mapped[lp]; ok && pf.Valid && (!write || pf.ImportedFrom < 0 || pf.ImpWritable) {
		return pf, nil
	}
	pf, err := p.table.VM.Fault(t, lp, write)
	if err != nil {
		return nil, err
	}
	if p.mapped == nil {
		p.mapped = make(map[vm.LogicalPage]*vm.Pfdat)
	}
	p.mapped[lp] = pf
	p.refs = append(p.refs, pf)
	if lp.Obj.Home != p.Cell {
		p.Deps.Add(lp.Obj.Home)
	}
	return pf, nil
}

// DependOn records an explicit dependency (e.g. on a file server cell that
// holds dirty data for this process).
func (p *Process) DependOn(cell int) { p.Deps.Add(cell) }

// Exited reports whether the process has finished.
func (p *Process) Exited() bool { return p.exited }

// spawnArgs/spawnReply are the RPC wire types.
type spawnArgs struct {
	Name   string
	Group  int
	Parent int
	Leaf   kmem.Addr
	Body   Body
}
type spawnReply struct {
	PID int
}

// spawnExecArgs drives ProcSpawnExec: no leaf crosses the wire — the
// child's fresh address space is rooted on its own cell.
type spawnExecArgs struct {
	Name   string
	Group  int
	Parent int
	Body   Body
}

// validateSpawnArgs vets a spawn request from another cell before the
// leaf address it names enters this cell's process table: the request
// must be well-formed and the leaf must be local (every process's leaf
// is local to it, §5.3). Anything a corrupt peer could forge is checked
// here, at the trust boundary.
func (pt *Table) validateSpawnArgs(raw any) (*spawnArgs, error) {
	args, ok := raw.(*spawnArgs)
	if !ok || args.Body == nil || args.Name == "" {
		return nil, ErrBadArgs
	}
	if args.Leaf.Cell() != pt.CellID {
		return nil, fmt.Errorf("%w: leaf on cell %d", ErrBadArgs, args.Leaf.Cell())
	}
	return args, nil
}

// validateSpawnExecArgs vets a detached-spawn request from another cell.
// No leaf crosses this boundary (the child's address space is rooted
// locally), so shape is the whole attack surface.
func validateSpawnExecArgs(raw any) (*spawnExecArgs, error) {
	args, ok := raw.(*spawnExecArgs)
	if !ok || args.Body == nil || args.Name == "" {
		return nil, ErrBadArgs
	}
	return args, nil
}

func (pt *Table) registerServices() {
	pt.EP.Register(ProcSpawn, "proc.spawn",
		func(t *sim.Task, req *rpc.Request) (any, sim.Time, error) {
			args, err := pt.validateSpawnArgs(req.Args)
			if err != nil {
				return nil, 0, err
			}
			pt.Sched.System(t, ForkCost/2)
			p := pt.spawn(args.Name, args.Group, args.Parent, args.Leaf, args.Body)
			p.Deps.Add(req.From) // child depends on its parent's cell tree
			return &spawnReply{PID: p.PID}, 0, nil
		}, rpc.Queued())

	pt.EP.Register(ProcSpawnExec, "proc.spawnexec",
		func(t *sim.Task, req *rpc.Request) (any, sim.Time, error) {
			args, err := validateSpawnExecArgs(req.Args)
			if err != nil {
				return nil, 0, err
			}
			pt.Sched.System(t, ForkCost/2+ExecCost)
			p := pt.spawn(args.Name, args.Group, args.Parent, pt.COW.NewRoot(), args.Body)
			p.Deps.Add(req.From) // child depends on its parent's cell
			return &spawnReply{PID: p.PID}, 0, nil
		}, rpc.Queued())
}

// Spanning tasks (§3.2 extension).

// SpawnSpanning creates a spanning task with one thread per listed cell,
// all in the same group, each running body with its thread index in
// p.Span. Thread 0 runs on cells[0]'s table (which must be this table's
// cell). Returns the span.
func (pt *Table) SpawnSpanning(name string, group int, tables []*Table, body Body) (*Span, error) {
	if len(tables) == 0 || tables[0].CellID != pt.CellID {
		return nil, ErrBadArgs
	}
	pt.nextSpn++
	span := &Span{ID: pt.nextSpn}
	for _, tbl := range tables {
		p := tbl.spawn(name, group, 0, tbl.COW.NewRoot(), body)
		p.Span = span
		// Every thread depends on every member cell: the whole task
		// dies if any member cell fails (§2: large applications that
		// use the whole system get no reliability benefit).
		span.Threads = append(span.Threads, p)
	}
	for _, p := range span.Threads {
		for _, q := range span.Threads {
			p.Deps.Add(q.Cell)
		}
	}
	pt.Metrics.Counter("proc.spanning_tasks").Inc()
	return span, nil
}

// ThreadIndex returns p's index within its span (-1 if not spanning).
func (p *Process) ThreadIndex() int {
	if p.Span == nil {
		return -1
	}
	for i, q := range p.Span.Threads {
		if q == p {
			return i
		}
	}
	return -1
}
