package machine

import "repro/internal/sim"

// Remap region and shared clock words.
//
// FLASH provides a range of physical addresses that is remapped to node-
// local memory, so every cell can have its own trap vectors at the same
// architectural address (Table 8.1). We model the translation and give each
// node a clock word in its local memory — the location a cell's clock
// handler increments on every tick and that neighbouring cells monitor
// through the careful reference protocol (§4.3).

// RemapTranslate resolves an access to the remap region issued by proc:
// remap page r (0 <= r < cfg.RemapPages) maps to the r-th page of the
// issuing processor's node. It panics if r is out of range, as the hardware
// would raise an address error.
func (m *Machine) RemapTranslate(proc *Processor, r int) PageNum {
	if r < 0 || r >= m.Cfg.RemapPages {
		panic("machine: remap access out of range")
	}
	lo, _ := m.NodePages(proc.Node.ID)
	return lo + PageNum(r)
}

// clockWords live conceptually in each node's remap page 0; modelled as a
// per-node counter with shared-memory access semantics.

// TickClock increments node n's clock word; called by the local cell's
// clock interrupt handler. Timer interrupts run at the highest priority:
// the tick steals its L2-hit cost from whatever the CPU is executing
// instead of queueing behind it, so the clock word keeps advancing even
// when the CPU is saturated with interrupt-level RPC service — a wedged
// clock must mean a failed cell, not a busy one (§4.3).
func (m *Machine) TickClock(t *sim.Task, proc *Processor, n int) {
	if proc.Node.ID != n {
		panic("machine: clock word is written only by its own node")
	}
	proc.StealTime(m.Cfg.L2HitNs)
	m.Nodes[n].clockWord++
}

// ReadClockWord reads node n's clock word from processor proc, charging a
// remote cache miss (0.7 µs — the dominant cost in the §4.1 careful-read
// measurement). It returns a bus error if the node has failed or is cut off.
func (m *Machine) ReadClockWord(t *sim.Task, proc *Processor, n int) (uint64, error) {
	if proc.Halted() {
		return 0, ErrHalted
	}
	node := m.Nodes[n]
	if proc.Node.ID == n {
		m.CacheHit(t, proc)
	} else {
		m.RemoteMiss(t, proc)
	}
	if err := node.accessible(proc.Node.ID); err != nil {
		return 0, err
	}
	return node.clockWord, nil
}

// ClockWordValue returns node n's clock word without charging time.
//
//hive:lint-ignore deadcode test hook: core's TestBootAndSteadyState reads every node's clock word
func (m *Machine) ClockWordValue(n int) uint64 { return m.Nodes[n].clockWord }
