// Package core assembles the Hive multicellular kernel — the paper's
// primary contribution. A Hive is an internal distributed system of
// independent kernels (cells), each owning a range of nodes of the FLASH
// machine and running its own virtual memory system, file system,
// copy-on-write manager, process table, scheduler, RPC endpoint, and
// failure monitor. The cells cooperate to present a single-system image
// while containing the effects of hardware and software faults to the cell
// where they occur.
package core

import (
	"fmt"

	"repro/internal/careful"
	"repro/internal/cow"
	"repro/internal/fs"
	"repro/internal/kmem"
	"repro/internal/machine"
	"repro/internal/membership"
	"repro/internal/proc"
	"repro/internal/rpc"
	"repro/internal/sched"
	"repro/internal/sim"
	"repro/internal/stats"
	"repro/internal/trace"
	"repro/internal/vm"
)

// MaxCells is the largest supported cell count. The bound comes from the
// FLASH firewall: write permission is a 64-bit processor vector per page
// (§4.2), so at most 64 distinct processors — and hence 64 single-node
// cells — can be told apart by the containment hardware.
const MaxCells = 64

// Config describes a Hive boot.
type Config struct {
	Machine machine.Config
	// Cells is the number of cells; the machine's nodes are divided
	// evenly among them (Figure 3.1). Must divide Machine.Nodes.
	Cells int
	// Agreement selects oracle (the paper's configuration) or the real
	// voting protocol.
	Agreement membership.AgreementMode
	// Reboot configures the availability loop: when enabled, a controller
	// microboots a declared-dead cell on its repaired nodes and re-admits
	// it through a membership join round (untrusted until commit), then
	// warms it back to full capacity.
	Reboot RebootPolicy
	// Mounts places file-system subtrees on data-home cells.
	Mounts []fs.Mount
	// ClockCheckEvery is the neighbour clock-check period in ticks
	// (0 = membership.DefaultCheckEvery). The §4.3 frequency/
	// vulnerability tradeoff knob.
	ClockCheckEvery int
	// TraceCap sizes each cell's per-ring trace capacity in events
	// (0 = 4096). Raise it when exporting full Chrome traces of long runs.
	TraceCap int
	// Seed drives all randomness.
	Seed int64
}

// DefaultConfig is the paper's evaluation machine split into 4 cells with
// /tmp homed on the last cell (the pmake file server).
func DefaultConfig() Config {
	return Config{
		Machine:   machine.DefaultConfig(),
		Cells:     4,
		Agreement: membership.Oracle,
		Mounts:    []fs.Mount{{Prefix: "/tmp", Cell: 3}},
		Seed:      1995,
	}
}

// Hive is a booted system.
type Hive struct {
	Cfg Config
	// Eng is the engine every cell, harness and workload schedules on.
	Eng   *sim.Engine
	M     *machine.Machine
	Space *kmem.Space
	Coord *membership.Coordinator
	Cells []*Cell

	// Trace is the machine-wide forensic event recorder (hints, alerts,
	// votes, recovery phases, RPC and fault spans, panics) — the
	// post-fault analysis aid §7.4 credits deterministic simulation with
	// enabling. One pair of ring buffers per cell; Merged() restores the
	// global total order, ExportChrome renders it for Perfetto.
	Trace *trace.Set

	// CellOfNode maps node -> owning cell.
	CellOfNode []int

	// Rebooter drives the fault → reboot → rejoin → full-capacity loop
	// when Cfg.Reboot.Enabled (nil otherwise).
	Rebooter *Rebooter
}

// Cell is one independent kernel.
type Cell struct {
	ID    int
	Hive  *Hive
	Nodes []int

	EP        *rpc.Endpoint
	VM        *vm.VM
	FS        *fs.FS
	COW       *cow.Manager
	Procs     *proc.Table
	Sched     *sched.Scheduler
	Mon       *membership.Monitor
	Reader    *careful.Reader
	ClockHand *vm.ClockHand
	Tracer    *trace.Tracer

	// PlaceTargets is Wax's process-placement hint: preferred spill cells
	// (least-loaded first) for work this cell cannot or should not run
	// locally. Installed through ApplyPlaceTargets and read by this cell's
	// dispatchers, like VM.AllocTargets. Advisory only: dispatchers fall
	// back to any live cell when it is stale or empty.
	PlaceTargets []int

	failed  bool // fail-stop or forced stop
	corrupt bool // software-corrupted (fault injection ground truth)
	boots   int  // microboot count (RPC incarnation epoch)

	Metrics *stats.Registry
}

// ValidateCells reports whether a cell count is bootable on a machine with
// the given node count: at least 1 cell, at most MaxCells, and an even
// node partition (Figure 3.1 gives every cell the same number of nodes).
func ValidateCells(cells, nodes int) error {
	switch {
	case cells < 1:
		return fmt.Errorf("core: cell count %d: must be at least 1", cells)
	case cells > MaxCells:
		return fmt.Errorf("core: cell count %d exceeds MaxCells %d (the firewall's 64-bit write-permission vector)", cells, MaxCells)
	case nodes%cells != 0:
		return fmt.Errorf("core: cell count %d must divide node count %d", cells, nodes)
	}
	return nil
}

// Boot builds and starts a Hive.
func Boot(cfg Config) *Hive {
	if err := ValidateCells(cfg.Cells, cfg.Machine.Nodes); err != nil {
		panic(err.Error())
	}
	eng := sim.NewEngine(cfg.Seed)
	m := machine.New(eng, cfg.Machine)
	h := &Hive{
		Cfg:   cfg,
		Eng:   eng,
		M:     m,
		Space: kmem.NewSpace(cfg.Cells),
		Coord: membership.NewCoordinator(cfg.Cells, nodePartition(cfg.Machine.Nodes, cfg.Cells), cfg.Agreement),
	}
	h.Trace = trace.NewSet(cfg.Cells, cfg.TraceCap)
	h.CellOfNode = make([]int, cfg.Machine.Nodes)
	nodesPerCell := cfg.Machine.Nodes / cfg.Cells
	for n := range h.CellOfNode {
		h.CellOfNode[n] = n / nodesPerCell
	}
	// Hardware events (firewall updates, SIPS sends) record on the track
	// of the cell owning the issuing node.
	m.Trace = make([]*trace.Tracer, cfg.Machine.Nodes)
	for n := range m.Trace {
		m.Trace[n] = h.Trace.Tracer(h.CellOfNode[n])
	}

	for c := 0; c < cfg.Cells; c++ {
		h.Cells = append(h.Cells, h.bootCell(c))
	}
	rpc.Connect(endpoints(h.Cells)...)
	h.Coord.OracleFailed = func(cell int) bool {
		return h.Cells[cell].ActuallyFailed()
	}
	h.Coord.OnDeclaredDead = func(cell int) {
		h.Cells[cell].ForceStop("declared dead by agreement")
		if h.Rebooter != nil {
			h.Rebooter.noteDeath(cell)
		}
	}
	if cfg.Reboot.Enabled {
		h.Rebooter = newRebooter(h, cfg.Reboot)
	}
	for _, c := range h.Cells {
		c.Mon.Start()
	}
	return h
}

func nodePartition(nodes, cells int) [][]int {
	per := nodes / cells
	out := make([][]int, cells)
	for c := 0; c < cells; c++ {
		for i := 0; i < per; i++ {
			out[c] = append(out[c], c*per+i)
		}
	}
	return out
}

func endpoints(cells []*Cell) []*rpc.Endpoint {
	eps := make([]*rpc.Endpoint, len(cells))
	for i, c := range cells {
		eps[i] = c.EP
	}
	return eps
}

// bootCell assembles one cell's kernel on a fresh Cell struct.
func (h *Hive) bootCell(id int) *Cell {
	c := &Cell{ID: id, Hive: h}
	h.buildCell(c)
	return c
}

// buildCell assembles (or, on a microboot, reassembles) a cell's kernel
// in place on the given Cell. Every closure handed to a subsystem —
// the arena's fault-model gate, the corruption panic, the recovery hooks —
// captures c itself, so a rebooted cell's fresh subsystems keep pointing
// at the one *Cell the Hive, the peers, and the harness all hold.
func (h *Hive) buildCell(c *Cell) {
	id := c.ID
	nodesPerCell := h.Cfg.Machine.Nodes / h.Cfg.Cells
	var nodes []int
	var procs []*machine.Processor
	for i := 0; i < nodesPerCell; i++ {
		n := id*nodesPerCell + i
		nodes = append(nodes, n)
		procs = append(procs, h.M.Nodes[n].Procs...)
	}
	c.Nodes = nodes
	c.Metrics = stats.NewRegistry()
	c.Tracer = h.Trace.Tracer(id)

	// Kernel memory arena with fault-model access semantics.
	arena := h.Space.Arena(id)
	arena.Accessible = func() error {
		if c.failed || h.M.Nodes[nodes[0]].Failed() || h.M.Nodes[nodes[0]].CutOff() {
			return kmem.ErrBusError
		}
		return nil
	}

	// Boot firewall: every processor of the cell may write every page of
	// the cell; nothing outside it may (§4.2's group-grant policy).
	var cellMask uint64
	for _, n := range nodes {
		cellMask |= h.M.NodeProcMask(n)
	}
	for _, n := range nodes {
		lo, hi := h.M.NodePages(n)
		for p := lo; p < hi; p++ {
			h.M.BootFirewall(p, cellMask)
		}
	}

	// The queued-RPC server pool is sized for the 4-cell evaluation
	// machine and grows gently with scale: intercell request fan-in rises
	// with the number of peers, but most traffic stays pairwise.
	c.EP = rpc.NewEndpoint(h.M, id, procs, 4+h.Cfg.Cells/8)
	c.EP.Tracer = c.Tracer
	// A quarter of each node's pages is reserved for the cell's kernel
	// (never shared or loaned), leaving ≈6000 user pages per 32 MB node as
	// in §4.2.
	c.VM = vm.New(h.M, c.EP, id, nodes, h.CellOfNode, h.M.PagesPerNode/4)
	c.VM.Tracer = c.Tracer
	c.FS = fs.New(h.M, c.EP, c.VM, id, h.Cfg.Mounts, h.M.Nodes[nodes[0]].Disk)
	c.Sched = sched.New(id, procs)
	c.Reader = &careful.Reader{M: h.M, Space: h.Space, Tracer: c.Tracer}
	c.COW = cow.New(h.M, c.EP, c.VM, h.Space, c.Reader, id)
	c.Procs = proc.NewTable(id, h.Cfg.Cells, c.EP, c.Sched, c.FS, c.COW, c.VM)
	c.Mon = membership.NewMonitor(h.M, c.EP, h.Coord, id, nodes)
	c.Mon.CheckEvery = h.Cfg.ClockCheckEvery
	c.Mon.Tracer = c.Tracer

	// A cell that finds its own kernel data corrupt panics (§4.1).
	c.COW.OnLocalDamage = func(reason string) {
		c.Panic("kernel data corruption: " + reason)
	}

	// The page-out daemon (§5.7/Table 3.4); Wax steers its preferences.
	// File pages write back through the file system, anonymous pages to
	// the swap partition (a reserved area at the end of the local disk).
	c.COW.EnableSwap(h.M.Nodes[nodes[0]].Disk, 1<<30)
	c.ClockHand = c.VM.StartClockHand(func(t *sim.Task, lp vm.LogicalPage) bool {
		if lp.Obj.Kind == vm.AnonObj {
			return c.COW.SwapOut(t, lp)
		}
		return c.FS.WritebackPage(t, lp)
	})

	// Wire failure hints from every detector into the monitor, which
	// records them in the forensic trace (post-dedup).
	c.EP.HintSink = c.Mon.Hint
	c.Reader.HintSink = c.Mon.Hint

	// Clock monitoring reads the neighbour's clock word under the
	// careful reference protocol (§4.3).
	c.Mon.ReadNeighborClock = func(t *sim.Task, cell int) (uint64, error) {
		p := c.liveProc()
		ctx := c.Reader.On(t, p, cell)
		v := ctx.ReadClock(h.Coord.Monitors()[cell].NodeIDs[0])
		if err := ctx.Off(); err != nil {
			return 0, err
		}
		return v, nil
	}

	c.Mon.Hooks = membership.Hooks{
		SuspendUser: c.Sched.Freeze,
		ResumeUser:  c.Sched.Thaw,
		Phase1:      c.VM.RecoveryPhase1,
		Phase2: func(t *sim.Task, failed int) int {
			n := c.VM.RecoveryPhase2(t, failed)
			if n > 0 {
				c.Tracer.Emit(c.EP.Engine().Now(), trace.Discard, int64(n), 0, "pages writable by failed cells")
			}
			return n
		},
		Finish: c.VM.RecoveryFinish,
		KillDependents: func(failed int) int {
			n := c.Procs.KillDependents(failed)
			if n > 0 {
				c.Tracer.Emit(c.EP.Engine().Now(), trace.Kill, int64(n), 0, "dependent processes killed")
			}
			return n
		},
		Panic: c.Panic,
		Reintegrate: func(cell int) {
			c.VM.DropPeerState(cell)
		},
	}
}

// liveProc returns a non-halted processor of the cell.
func (c *Cell) liveProc() *machine.Processor {
	for _, n := range c.Nodes {
		for _, p := range c.Hive.M.Nodes[n].Procs {
			if !p.Halted() {
				return p
			}
		}
	}
	return c.Hive.M.Nodes[c.Nodes[0]].Procs[0]
}

// ActuallyFailed is the agreement oracle's ground truth for this cell.
func (c *Cell) ActuallyFailed() bool {
	if c.failed || c.corrupt {
		return true
	}
	for _, n := range c.Nodes {
		if c.Hive.M.Nodes[n].Failed() {
			return true
		}
	}
	return false
}

// Failed reports whether the cell has stopped (fault or forced).
func (c *Cell) Failed() bool { return c.failed }

// MarkCorrupt flags the cell as software-corrupted; the oracle confirms
// alerts about it (the injected-bug ground truth of §7.4). The injection
// marker makes the fault locatable from the trace alone (forensic audit).
func (c *Cell) MarkCorrupt() {
	c.corrupt = true
	c.Tracer.Emit(c.Hive.Now(), trace.Inject, int64(c.ID), 0, "corrupt")
}

// FailHardware injects a fail-stop hardware fault: every node of the cell
// halts and its memory becomes inaccessible (§7.4's hardware fault
// injection). Survivor detection happens through the normal hint channels.
func (c *Cell) FailHardware() {
	c.failed = true
	c.Tracer.Emit(c.Hive.Eng.Now(), trace.Inject, int64(c.ID), 0, "hw-fail")
	c.Tracer.Emit(c.Hive.Eng.Now(), trace.Panic, 0, 0, "fail-stop hardware fault injected")
	for _, n := range c.Nodes {
		c.Hive.M.Nodes[n].FailStop()
	}
	c.shutdownKernel()
	// If the cell was a member of an in-flight recovery round, the
	// barriers must stop waiting for it.
	c.Hive.Coord.CellDiedMidRound(c.ID)
}

// Panic is the software crash path: the cell stops itself, engaging the
// memory cutoff so potentially corrupt data cannot spread (Table 8.1).
// The teardown runs from engine context so a kernel task may panic its own
// cell and unwind cleanly.
func (c *Cell) Panic(reason string) {
	if c.failed {
		return
	}
	c.failed = true
	c.Tracer.Emit(c.Hive.Eng.Now(), trace.Panic, 0, 0, reason)
	c.Metrics.Counter("cell.panics").Inc()
	for _, n := range c.Nodes {
		c.Hive.M.Nodes[n].EngageCutoff()
	}
	c.Hive.Eng.At(c.Hive.Eng.Now(), func() {
		c.shutdownKernel()
		c.Hive.Coord.CellDiedMidRound(c.ID)
	})
}

// ForceStop implements the consensus-gated stop of a cell the survivors
// declared dead (the "reboot" of §4.3): processes killed, services down,
// memory cut off.
func (c *Cell) ForceStop(reason string) {
	if c.failed {
		return
	}
	c.failed = true
	// Death marker: without it a cell the survivors stopped (e.g. one
	// corrupted but never self-panicking) would die invisibly in the trace.
	c.Tracer.Emit(c.Hive.Now(), trace.Panic, 0, 0, "stopped by survivor consensus: "+reason)
	for _, n := range c.Nodes {
		c.Hive.M.Nodes[n].EngageCutoff()
	}
	c.shutdownKernel()
	c.Hive.Coord.CellDiedMidRound(c.ID)
}

// shutdownKernel kills processes and stops services.
func (c *Cell) shutdownKernel() {
	c.Procs.KillAll()
	c.EP.Shutdown()
	c.Mon.Stop()
	if c.ClockHand != nil {
		// The paging daemon's writeback closure captures this cell; left
		// running it would keep sweeping the dead incarnation's VM (and,
		// after a microboot, mix old-VM sweeps into the fresh image).
		c.ClockHand.Stop()
	}
}

// Microboot rebuilds a stopped cell's kernel in place on its repaired
// nodes — the first half of reintegration (§4.3): hardware repaired, the
// kernel arena emptied, every subsystem reconstructed on the same *Cell
// the rest of the system holds, firewall write permissions re-opened to
// the cell's own processors, and the RPC mesh rewired. The cell does NOT
// return to the live set and its monitor stays stopped: until a membership
// join round commits, the fresh image is untrusted — peers only ever see it
// through the validated RPC boundary. The Rebooter drives Microboot + join.
func (c *Cell) Microboot() {
	for _, n := range c.Nodes {
		c.Hive.M.Nodes[n].Repair()
	}
	c.Hive.Space.Arena(c.ID).Reset()
	c.failed, c.corrupt = false, false
	c.PlaceTargets = nil // stale pre-fault hints do not survive the reboot
	c.Hive.buildCell(c)
	c.boots++
	c.EP.SetIncarnation(c.boots)
	rpc.Connect(endpoints(c.Hive.Cells)...)
}

// Now returns the current virtual time.
func (h *Hive) Now() sim.Time { return h.Eng.Now() }

// Run advances the simulation to the given deadline (0 = until idle).
// Note: the cells' clock tasks tick forever, so a deadline is required for
// a booted Hive.
func (h *Hive) Run(deadline sim.Time) sim.Time { return h.Eng.Run(deadline) }

// RunUntil advances simulation in 1 ms steps until cond holds or the
// deadline passes, reporting whether cond held.
func (h *Hive) RunUntil(cond func() bool, deadline sim.Time) bool {
	for h.Now() < deadline {
		if cond() {
			return true
		}
		h.Run(h.Now() + sim.Millisecond)
	}
	return cond()
}

// LiveCells returns the cells not failed.
func (h *Hive) LiveCells() []*Cell {
	var out []*Cell
	for _, c := range h.Cells {
		if !c.failed {
			out = append(out, c)
		}
	}
	return out
}

// CellName labels a cell for diagnostics.
func (c *Cell) String() string { return fmt.Sprintf("cell%d(nodes %v)", c.ID, c.Nodes) }

// Wax hint intake. Each cell protects itself by sanity-checking the inputs
// it receives from Wax (§3.2): a damaged Wax may cost performance, never
// correctness.

// ApplyAllocTargets installs Wax's page-allocation borrow targets after
// validating them (live, distinct, not self, bounded count).
func (c *Cell) ApplyAllocTargets(targets []int) error {
	if len(targets) > len(c.Hive.Cells) {
		return fmt.Errorf("core: hint rejected: %d targets", len(targets))
	}
	seen := map[int]bool{}
	for _, tc := range targets {
		if tc < 0 || tc >= len(c.Hive.Cells) || tc == c.ID || seen[tc] || c.Hive.Cells[tc].Failed() {
			c.Metrics.Counter("cell.wax_hints_rejected").Inc()
			c.Tracer.Emit(c.EP.Engine().Now(), trace.WaxHint, int64(tc), 0, "alloc-targets")
			return fmt.Errorf("core: hint rejected: bad target %d", tc)
		}
		seen[tc] = true
	}
	c.VM.AllocTargets = append([]int(nil), targets...)
	c.Metrics.Counter("cell.wax_hints_applied").Inc()
	c.Tracer.Emit(c.EP.Engine().Now(), trace.WaxHint, int64(len(targets)), 1, "alloc-targets")
	return nil
}

// ApplyPlaceTargets installs Wax's process-placement spill targets after
// the same validation as the allocation hint (live, distinct, not self,
// bounded count). Dispatchers consult the list when the natural home for
// a piece of work is failed or saturated.
func (c *Cell) ApplyPlaceTargets(targets []int) error {
	if len(targets) > len(c.Hive.Cells) {
		return fmt.Errorf("core: hint rejected: %d targets", len(targets))
	}
	seen := map[int]bool{}
	for _, tc := range targets {
		if tc < 0 || tc >= len(c.Hive.Cells) || tc == c.ID || seen[tc] || c.Hive.Cells[tc].Failed() {
			c.Metrics.Counter("cell.wax_hints_rejected").Inc()
			c.Tracer.Emit(c.EP.Engine().Now(), trace.WaxHint, int64(tc), 0, "place-targets")
			return fmt.Errorf("core: hint rejected: bad target %d", tc)
		}
		seen[tc] = true
	}
	c.PlaceTargets = append([]int(nil), targets...)
	c.Metrics.Counter("cell.wax_hints_applied").Inc()
	c.Tracer.Emit(c.EP.Engine().Now(), trace.WaxHint, int64(len(targets)), 1, "place-targets")
	return nil
}

// ApplyClockHand asks this cell's clock hand to preferentially free pages
// whose memory home is the pressured cell; it reports whether any idle
// borrowed frames were returned.
func (c *Cell) ApplyClockHand(t *sim.Task, pressuredHome int) bool {
	if pressuredHome < 0 || pressuredHome >= len(c.Hive.Cells) ||
		pressuredHome == c.ID || c.Hive.Cells[pressuredHome].Failed() {
		c.Metrics.Counter("cell.wax_hints_rejected").Inc()
		c.Tracer.Emit(c.EP.Engine().Now(), trace.WaxHint, int64(pressuredHome), 0, "clock-hand")
		return false
	}
	c.Metrics.Counter("cell.wax_hints_applied").Inc()
	c.Tracer.Emit(c.EP.Engine().Now(), trace.WaxHint, int64(pressuredHome), 1, "clock-hand")
	return c.VM.ReturnUnusedBorrows(t, pressuredHome) > 0
}
