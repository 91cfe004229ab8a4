// Package machine models the Stanford FLASH multiprocessor at the level the
// Hive kernel programs against: CC-NUMA nodes on a mesh, a cache-miss cost
// model, and the five pieces of custom hardware from Table 8.1 of the paper —
// the per-page firewall write-permission bit-vector, the memory fault model
// (bus errors instead of indefinite stalls), the remap region, the SIPS
// short interprocessor send facility, and the per-node memory cutoff.
//
// The model charges virtual time for every memory operation using the
// latencies published in §7.2 of the paper (50 ns L2 hit, 700 ns miss,
// 700 ns IPI, +300 ns SIPS payload access) and enforces the fault semantics
// the Hive recovery algorithms rely on.
package machine

import (
	"errors"
	"fmt"

	"repro/internal/disk"
	"repro/internal/sim"
	"repro/internal/stats"
	"repro/internal/trace"
)

// Errors making up the FLASH memory fault model. Accesses never stall
// indefinitely: they either complete or fail with one of these.
var (
	// ErrBusError is returned for accesses to failed nodes, firewall
	// write denials, and accesses to cut-off memory.
	ErrBusError = errors.New("machine: bus error")
	// ErrFirewall is a bus error caused specifically by a firewall
	// write-permission denial; errors.Is(err, ErrBusError) also holds.
	ErrFirewall = fmt.Errorf("firewall write denied (%w)", ErrBusError)
	// ErrHalted is returned when the issuing processor itself has halted.
	ErrHalted = errors.New("machine: processor halted")
)

// PageNum is a global physical page frame number. Node n owns the contiguous
// range [n*PagesPerNode, (n+1)*PagesPerNode).
type PageNum int

// NoPage is the sentinel for "no frame".
const NoPage PageNum = -1

// FirewallMode selects the write-permission representation — the design
// alternatives §4.2 weighs before choosing a bit vector per page.
type FirewallMode int

const (
	// FirewallBitVector is FLASH's choice: a 64-bit vector per page, one
	// bit per processor.
	FirewallBitVector FirewallMode = iota
	// FirewallSingleBit is the rejected cheap option: one bit per page
	// granting *global* write access — "no fault containment for
	// processes that use any remote memory".
	FirewallSingleBit
	// FirewallProcByte is the rejected middle option: a byte per page
	// naming a single processor with write access — it "would prevent
	// the scheduler in each cell from balancing the load on its
	// processors".
	FirewallProcByte
)

// Config describes the simulated machine. DefaultConfig matches the paper's
// evaluation machine (§7.2).
type Config struct {
	Nodes        int // nodes in the mesh
	ProcsPerNode int // processors per node (1 in the paper)
	MemPerNodeMB int // local memory per node
	PageSize     int // bytes; firewall granularity (§4.2: 4 KB)

	L2HitNs sim.Time // first-level miss that hits in L2
	MissNs  sim.Time // L2 miss to memory (local or remote; §7.2: flat 700 ns)
	// RemoteMissNs, when nonzero, overrides MissNs for accesses to other
	// nodes' memory — the CC-NUMA/CC-NOW configurations of §8, where
	// remote memory may be reached over a local-area network.
	RemoteMissNs  sim.Time
	IPINs         sim.Time // interprocessor interrupt delivery
	SIPSPayloadNs sim.Time // extra latency to access a SIPS payload line
	UncachedNs    sim.Time // uncached write to the coherence controller
	// FirewallCheckNs is the additional latency the firewall check adds
	// to a remote write-ownership request (§4.2 measures +6.3 % of the
	// remote write miss latency under pmake).
	FirewallCheckNs sim.Time

	FirewallEnabled bool         // disable to measure the check's cost (§4.2)
	FirewallMode    FirewallMode // permission representation (§4.2 ablation)
	RemapPages      int          // per-node remap region size in pages (trap vectors)

	Disk disk.Config // per-node disk model
}

// DefaultConfig returns the paper's machine: 4 nodes, one 200 MHz R4000-class
// processor and 32 MB per node, 4 KB pages, 700 ns memory latency.
func DefaultConfig() Config {
	return Config{
		Nodes:           4,
		ProcsPerNode:    1,
		MemPerNodeMB:    32,
		PageSize:        4096,
		L2HitNs:         50,
		MissNs:          700,
		IPINs:           700,
		SIPSPayloadNs:   300,
		UncachedNs:      500,
		FirewallCheckNs: 44, // ≈6.3 % of a 700 ns remote write miss
		FirewallEnabled: true,
		RemapPages:      4,
		Disk:            disk.HP97560(),
	}
}

// Machine is the simulated multiprocessor.
type Machine struct {
	Cfg          Config
	Eng          *sim.Engine
	Nodes        []*Node
	Procs        []*Processor
	PagesPerNode int

	// Metrics observed by the firewall-overhead experiment.
	Metrics *stats.Registry

	// Trace, when set by the cell layer, holds one recording handle per
	// node so hardware events (firewall updates, SIPS sends) land on the
	// owning cell's trace track. Entries and the slice itself may be nil
	// (standalone machine tests record nothing).
	Trace []*trace.Tracer

	// FaultHook, when set by a fault injector, inspects every SIPS
	// message at launch and may drop, delay, duplicate, or corrupt it
	// (see MsgFault). The hook runs in engine context and must be a
	// deterministic function of the message and its own seeded state;
	// nil (the production configuration) adds no cost to the send path.
	FaultHook func(*SIPSMsg) MsgFaultDecision

	pages   []pageState // indexed by PageNum
	deliver func(any)   // deliverSIPS, bound once for launchSIPS's events

	// Counters of the per-access paths, looked up on first use.
	sipsSends, memReads, memWrites, fwChecks *stats.Counter
}

// tracer returns node n's recording handle; the nil tracer no-ops.
func (m *Machine) tracer(n int) *trace.Tracer {
	if n < 0 || n >= len(m.Trace) {
		return nil
	}
	return m.Trace[n]
}

// pageState is the physical state of one page frame: its firewall vector and
// an abstract content tag used for data-integrity checking. Real memory
// contents are not simulated; the tag stands in for a page checksum, and a
// wild write scrambles it.
type pageState struct {
	fw      uint64 // firewall: bit i grants write permission to processor i
	tag     uint64 // content tag (checksum surrogate)
	corrupt bool   // set by wild writes
	writes  uint64 // write-generation counter
}

// New builds a machine on the given engine.
func New(e *sim.Engine, cfg Config) *Machine {
	if cfg.Nodes <= 0 || cfg.ProcsPerNode <= 0 {
		panic("machine: invalid config")
	}
	if cfg.FirewallEnabled && cfg.Nodes*cfg.ProcsPerNode > 64 {
		// The firewall's per-page write-permission vector is 64 bits
		// wide (one bit per processor); beyond that, NodeProcMask's %64
		// wraparound would alias distinct processors and silently void
		// containment. Refuse rather than degrade.
		panic(fmt.Sprintf("machine: %d processors exceed the firewall's 64-bit permission vector",
			cfg.Nodes*cfg.ProcsPerNode))
	}
	m := &Machine{
		Cfg:          cfg,
		Eng:          e,
		PagesPerNode: cfg.MemPerNodeMB << 20 / cfg.PageSize,
		Metrics:      stats.NewRegistry(),
	}
	m.deliver = m.deliverSIPS
	m.pages = make([]pageState, m.PagesPerNode*cfg.Nodes)
	for i := range m.pages {
		// Boot-time firewall: only the home node's processors may write.
		m.pages[i].fw = m.homeProcMask(PageNum(i))
	}
	for n := 0; n < cfg.Nodes; n++ {
		node := &Node{ID: n, M: m, Disk: disk.New(e, cfg.Disk)}
		m.Nodes = append(m.Nodes, node)
		for p := 0; p < cfg.ProcsPerNode; p++ {
			proc := newProcessor(n*cfg.ProcsPerNode+p, node, e)
			node.Procs = append(node.Procs, proc)
			m.Procs = append(m.Procs, proc)
		}
	}
	return m
}

// NumPages returns the total number of page frames.
func (m *Machine) NumPages() int { return len(m.pages) }

// HomeNode returns the node owning page p's physical storage.
func (m *Machine) HomeNode(p PageNum) int { return int(p) / m.PagesPerNode }

// NodePages returns the page range [lo, hi) owned by node n.
func (m *Machine) NodePages(n int) (lo, hi PageNum) {
	return PageNum(n * m.PagesPerNode), PageNum((n + 1) * m.PagesPerNode)
}

// homeProcMask returns the firewall bits for all processors on p's home node.
func (m *Machine) homeProcMask(p PageNum) uint64 {
	return m.NodeProcMask(m.HomeNode(p))
}

// NodeProcMask returns the firewall bit mask covering every processor of
// node n. On machines larger than 64 processors each bit would cover several
// processors (§4.2); with the paper's sizes it is one bit per processor.
func (m *Machine) NodeProcMask(n int) uint64 {
	var mask uint64
	for p := 0; p < m.Cfg.ProcsPerNode; p++ {
		mask |= 1 << uint((n*m.Cfg.ProcsPerNode+p)%64)
	}
	return mask
}

// Node is one FLASH node: processors, a slice of main memory, a coherence
// controller (firewall + SIPS + cutoff), and local I/O (a disk).
type Node struct {
	ID    int
	M     *Machine
	Procs []*Processor
	Disk  *disk.Drive

	failed    bool   // fail-stop hardware fault
	cutoff    bool   // memory cutoff engaged by cell panic
	clockWord uint64 // shared clock word monitored by neighbour cells (§4.3)

	// OnSIPS is the OS's SIPS receive handler: the interrupt handler a
	// delivered line runs on its addressed processor, with the *SIPSMsg
	// as its argument. It is read when the line is delivered.
	OnSIPS func(p *Processor, msg any)
}

// Failed reports whether the node has suffered a fail-stop fault.
func (n *Node) Failed() bool { return n.failed }

// CutOff reports whether the memory cutoff is engaged.
func (n *Node) CutOff() bool { return n.cutoff }

// EngageCutoff makes the coherence controller refuse all remote accesses to
// this node's memory; used by the cell panic routine to stop the spread of
// potentially corrupt data (Table 8.1).
func (n *Node) EngageCutoff() { n.cutoff = true }

// FailStop halts every processor on the node and makes its memory range
// inaccessible — the paper's §7.4 hardware fault injection. Tasks bound to
// the node's processors are killed.
func (n *Node) FailStop() {
	n.failed = true
	for _, p := range n.Procs {
		p.Halt()
	}
}

// Repair clears the fail-stop state (reintegration, §4.3). Memory contents
// are scrubbed: tags reset, corruption cleared, firewall back to boot state.
func (n *Node) Repair() {
	n.failed = false
	n.cutoff = false
	lo, hi := n.M.NodePages(n.ID)
	for p := lo; p < hi; p++ {
		n.M.pages[p] = pageState{fw: n.M.homeProcMask(p)}
	}
	for _, p := range n.Procs {
		p.Unhalt()
	}
}

// accessible reports whether memory on this node can be reached from
// processor proc (nil error), or the bus error to deliver.
func (n *Node) accessible(fromNode int) error {
	if n.failed {
		return ErrBusError
	}
	if n.cutoff && fromNode != n.ID {
		return ErrBusError
	}
	return nil
}
