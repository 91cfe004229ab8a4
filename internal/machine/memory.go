package machine

import (
	"repro/internal/sim"
	"repro/internal/trace"
)

// Memory operations. Each charges virtual time on the issuing processor and
// enforces the memory fault model: accesses to failed or cut-off nodes get
// bus errors; firewall violations on writes get bus errors; nothing stalls
// indefinitely.

// ReadPage performs a cache-miss read of page p's content tag by task t on
// processor proc. Reads are never blocked by the firewall (§4.2: read misses
// do not count as ownership requests).
func (m *Machine) ReadPage(t *sim.Task, proc *Processor, p PageNum) (tag uint64, corrupt bool, err error) {
	if proc.Halted() {
		return 0, false, ErrHalted
	}
	home := m.Nodes[m.HomeNode(p)]
	proc.Use(t, m.missLatency(proc.Node.ID, home.ID))
	if err := home.accessible(proc.Node.ID); err != nil {
		m.Metrics.Counter("mem.bus_errors").Inc()
		return 0, false, err
	}
	m.Metrics.Cached(&m.memReads, "mem.reads").Inc()
	ps := &m.pages[p]
	return ps.tag, ps.corrupt, nil
}

// WritePage performs a write-ownership request for page p and, if the
// firewall admits it, stores a new content tag. The coherence controller of
// the home node checks the firewall bit for the issuing processor on each
// ownership request (§4.2).
func (m *Machine) WritePage(t *sim.Task, proc *Processor, p PageNum, tag uint64) error {
	if proc.Halted() {
		return ErrHalted
	}
	home := m.Nodes[m.HomeNode(p)]
	lat := m.missLatency(proc.Node.ID, home.ID)
	if m.Cfg.FirewallEnabled && home.ID != proc.Node.ID {
		lat += m.Cfg.FirewallCheckNs
	}
	proc.Use(t, lat)
	if err := home.accessible(proc.Node.ID); err != nil {
		m.Metrics.Counter("mem.bus_errors").Inc()
		return err
	}
	if err := m.checkFirewall(proc.ID, p); err != nil {
		return err
	}
	ps := &m.pages[p]
	ps.tag = tag
	ps.corrupt = false
	ps.writes++
	m.Metrics.Cached(&m.memWrites, "mem.writes").Inc()
	return nil
}

// WildWrite models an erroneous store from a faulty kernel: if the firewall
// admits the write, the page content is corrupted. It reports whether the
// write landed (false means the firewall or fault model blocked it).
func (m *Machine) WildWrite(proc *Processor, p PageNum) bool {
	home := m.Nodes[m.HomeNode(p)]
	if home.accessible(proc.Node.ID) != nil {
		return false
	}
	if m.checkFirewall(proc.ID, p) != nil {
		m.Metrics.Counter("firewall.wild_writes_blocked").Inc()
		return false
	}
	ps := &m.pages[p]
	ps.corrupt = true
	ps.tag ^= 0xdeadbeefcafef00d
	ps.writes++
	m.Metrics.Counter("firewall.wild_writes_landed").Inc()
	return true
}

// checkFirewall validates a write-ownership request against page p's
// firewall state under the configured representation. With the firewall
// disabled every write is admitted.
func (m *Machine) checkFirewall(procID int, p PageNum) error {
	if !m.Cfg.FirewallEnabled {
		return nil
	}
	m.Metrics.Cached(&m.fwChecks, "firewall.checks").Inc()
	allowed := false
	switch m.Cfg.FirewallMode {
	case FirewallBitVector:
		allowed = m.pages[p].fw&(1<<uint(procID%64)) != 0
	case FirewallSingleBit:
		// One bit per page: the home's boot mask means "local only";
		// anything beyond it means globally writable.
		home := m.homeProcMask(p)
		allowed = m.pages[p].fw&^home != 0 || m.pages[p].fw&(1<<uint(procID%64)) != 0
	case FirewallProcByte:
		// A byte per page names exactly one remote processor; local
		// processors keep access through the home mask.
		if m.pages[p].fw&m.homeProcMask(p)&(1<<uint(procID%64)) != 0 {
			allowed = true
		} else {
			allowed = m.singleRemote(p) == procID
		}
	}
	if !allowed {
		m.Metrics.Counter("firewall.denials").Inc()
		return ErrFirewall
	}
	return nil
}

// singleRemote returns the one remote processor a ProcByte firewall admits:
// the lowest remote bit set (the byte can only name one).
func (m *Machine) singleRemote(p PageNum) int {
	remote := m.pages[p].fw &^ m.homeProcMask(p)
	if remote == 0 {
		return -1
	}
	for i := 0; i < 64; i++ {
		if remote&(1<<uint(i)) != 0 {
			return i
		}
	}
	return -1
}

// BootFirewall sets page p's firewall directly, with no timing or locality
// checks; used only at boot (the OS partitions memory among cells before
// enabling protection) and by node repair.
func (m *Machine) BootFirewall(p PageNum, bits uint64) { m.pages[p].fw = bits }

// Firewall returns page p's current permission bit-vector.
func (m *Machine) Firewall(p PageNum) uint64 { return m.pages[p].fw }

// SetFirewall replaces page p's firewall bits. Only a processor local to the
// page's home node may change them (§4.2); the operation costs an uncached
// write to the coherence controller. Revoking permission additionally pays
// the writeback-synchronization cost, modelled (per §7.2) as one more
// uncached write. With a task, the task pays the cost before the bits
// change and SetFirewall returns 0. From interrupt context t is nil: the
// bits change at once and the cost is returned for the interrupt handler
// to charge.
func (m *Machine) SetFirewall(t *sim.Task, proc *Processor, p PageNum, bits uint64) (sim.Time, error) {
	if t != nil && proc.Halted() {
		return 0, ErrHalted
	}
	if m.HomeNode(p) != proc.Node.ID {
		return 0, ErrBusError
	}
	cost := m.Cfg.UncachedNs
	if old := m.pages[p].fw; old&^bits != 0 {
		cost += m.Cfg.UncachedNs // revocation: wait for pending writebacks
		m.Metrics.Counter("firewall.revocations").Inc()
		m.tracer(proc.Node.ID).Emit(proc.eng.Now(), trace.FirewallRevoke, int64(p), int64(bits), "")
	} else {
		m.Metrics.Counter("firewall.grants").Inc()
		m.tracer(proc.Node.ID).Emit(proc.eng.Now(), trace.FirewallGrant, int64(p), int64(bits), "")
	}
	if t != nil {
		proc.Use(t, cost)
		cost = 0
	}
	m.pages[p].fw = bits
	return cost, nil
}

// GrantWrite adds procMask to page p's firewall (must run on the home node).
func (m *Machine) GrantWrite(t *sim.Task, proc *Processor, p PageNum, procMask uint64) error {
	_, err := m.SetFirewall(t, proc, p, m.pages[p].fw|procMask)
	return err
}

// PageTag returns the stored content tag without charging time (used by
// integrity checkers outside the timed simulation).
func (m *Machine) PageTag(p PageNum) (tag uint64, corrupt bool) {
	ps := &m.pages[p]
	return ps.tag, ps.corrupt
}

// MarkCorrupt flags a page as corrupted without a firewall check; the fault
// injector uses it to model corruption that happened before detection.
func (m *Machine) MarkCorrupt(p PageNum) { m.pages[p].corrupt = true }

// ScrubPage resets a page's content state (page reallocation).
func (m *Machine) ScrubPage(p PageNum, tag uint64) {
	ps := &m.pages[p]
	ps.tag = tag
	ps.corrupt = false
}

// missLatency returns the L2-miss cost between two nodes: flat MissNs by
// default (the paper's §7.2 model), or the CC-NOW split when RemoteMissNs
// is configured.
func (m *Machine) missLatency(fromNode, homeNode int) sim.Time {
	if m.Cfg.RemoteMissNs > 0 && fromNode != homeNode {
		return m.Cfg.RemoteMissNs
	}
	return m.Cfg.MissNs
}

// CacheHit charges an L2 hit on the issuing processor; kernel code uses it
// for accesses known to be cache-resident.
func (m *Machine) CacheHit(t *sim.Task, proc *Processor) {
	proc.Use(t, m.Cfg.L2HitNs)
}

// RemoteMiss charges one remote cache miss (e.g. the careful-reference
// protocol's read of another cell's clock word).
func (m *Machine) RemoteMiss(t *sim.Task, proc *Processor) {
	if m.Cfg.RemoteMissNs > 0 {
		proc.Use(t, m.Cfg.RemoteMissNs)
		return
	}
	proc.Use(t, m.Cfg.MissNs)
}
