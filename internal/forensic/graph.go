package forensic

import (
	"fmt"
	"slices"
	"sort"
	"strings"

	"repro/internal/sim"
	"repro/internal/trace"
)

// EdgeClass says what the containment boundary did with one causal edge.
type EdgeClass int

const (
	// Validated: the interaction crossed a designed, checked interface
	// (an RPC request served, a failure-detection hint/alert/vote — the
	// only channels §3 permits a fault's effects to travel).
	Validated EdgeClass = iota
	// Blocked: the boundary refused the interaction outright — an RPC
	// timeout, a careful-read abort, a firewall write-permission revoke
	// during recovery.
	Blocked
	// Discarded: data arrived and was thrown away — a checksum discard,
	// a duplicate/stale-message discard, recovery's preemptive page and
	// process cleanup.
	Discarded
	// Absorbed: the fault was repaired transparently (a retransmit
	// recovered a lost message).
	Absorbed
	// Escaped: a cell with no injected fault died — the containment
	// failure everything above exists to prevent.
	Escaped
)

// String names the class for reports.
func (c EdgeClass) String() string {
	switch c {
	case Validated:
		return "validated"
	case Blocked:
		return "blocked"
	case Discarded:
		return "discarded"
	case Absorbed:
		return "absorbed"
	case Escaped:
		return "ESCAPED"
	}
	return "?"
}

// edgeClasses lists every class in report order.
func edgeClasses() []EdgeClass {
	return []EdgeClass{Validated, Blocked, Discarded, Absorbed, Escaped}
}

// Fault is one injected fault located in the trace.
type Fault struct {
	Cell int      `json:"cell"`
	At   sim.Time `json:"at"`
	What string   `json:"what"` // "hw-fail" or "corrupt"
}

// Death is one cell death located in the trace.
type Death struct {
	Cell     int      `json:"cell"`
	At       sim.Time `json:"at"`
	Reason   string   `json:"reason"`
	Injected bool     `json:"injected"` // had an injected fault before dying
	Healed   bool     `json:"healed"`   // a later join round readmitted the cell
}

// Reboot is one microboot stage located in the trace: a fresh cell image
// brought up on a dead cell's nodes (or the bounded give-up after the
// rejoin backoff is exhausted — distinguishable by Stage).
type Reboot struct {
	Cell    int      `json:"cell"`
	Attempt int      `json:"attempt"`
	At      sim.Time `json:"at"`
	Stage   string   `json:"stage"`
}

// Rejoin is one committed join round: the coordinator readmitted the
// rebooted cell to the live set at full trust.
type Rejoin struct {
	Cell        int      `json:"cell"`
	Coordinator int      `json:"coordinator"`
	At          sim.Time `json:"at"`
}

// WireFault aggregates one kind of injected wire fault.
type WireFault struct {
	Kind  string   `json:"kind"` // "drop", "dup", "corrupt", "delay"
	Count int      `json:"count"`
	First sim.Time `json:"first"`
}

// Edge is one aggregated causal edge of the propagation graph. From/To
// are cell ids; -1 stands for the wire or an unattributable source (e.g.
// a stale reply whose call record is gone).
type Edge struct {
	From  int       `json:"from"`
	To    int       `json:"to"`
	Class EdgeClass `json:"-"`
	Via   string    `json:"via"` // mechanism: rpc, rpc-timeout, careful, firewall, checksum, dedup, retry, membership, cleanup, death
	Count int       `json:"count"`
	First sim.Time  `json:"first"`
	Last  sim.Time  `json:"last"`
}

// Graph is the causal fault-propagation graph of one run: every recorded
// interaction causally downstream of an injected fault, aggregated per
// (from, to, class, mechanism) and classified by what the containment
// boundary did with it.
type Graph struct {
	Cells      int
	Events     int
	Faults     []Fault
	Deaths     []Death
	Reboots    []Reboot
	Rejoins    []Rejoin
	WireFaults []WireFault
	Edges      []Edge
	Escapes    []string
	Dropped    []trace.DropCount
	// Truncated reports that at least one ring overwrote events, so the
	// walk may have missed edges (the audit notes carry the warning).
	Truncated bool
}

// FaultCells returns the distinct cells with injected faults, ascending.
func (g *Graph) FaultCells() []int {
	return distinctCells(g.Faults, func(f Fault) int { return f.Cell })
}

// DeathCells returns the distinct dead cells, ascending.
func (g *Graph) DeathCells() []int {
	return distinctCells(g.Deaths, func(d Death) int { return d.Cell })
}

// RejoinCells returns the distinct cells readmitted by a join round,
// ascending.
func (g *Graph) RejoinCells() []int {
	return distinctCells(g.Rejoins, func(r Rejoin) int { return r.Cell })
}

// FinalDeathCells returns the distinct cells still dead when the trace
// ends: they died and no later join round readmitted them.
func (g *Graph) FinalDeathCells() []int {
	var unhealed []Death
	for _, d := range g.Deaths {
		if !d.Healed {
			unhealed = append(unhealed, d)
		}
	}
	return distinctCells(unhealed, func(d Death) int { return d.Cell })
}

func distinctCells[T any](xs []T, cell func(T) int) []int {
	seen := map[int]bool{}
	var out []int
	for _, x := range xs {
		if c := cell(x); !seen[c] {
			seen[c] = true
			out = append(out, c)
		}
	}
	sort.Ints(out)
	return out
}

// ClassCounts tallies edge events per class.
func (g *Graph) ClassCounts() map[EdgeClass]int {
	out := map[EdgeClass]int{}
	for _, e := range g.Edges {
		out[e.Class] += e.Count
	}
	return out
}

type edgeKey struct {
	from, to int
	class    EdgeClass
	via      string
}

// wireKinds names the injected wire-fault kinds, in report order.
var wireKinds = [...]string{"corrupt", "delay", "drop", "dup"}

const (
	wireCorrupt = iota
	wireDelay
	wireDrop
	wireDup
)

// graphFold is the propagation graph's part of the fold: a causal walk
// of the stream, one event at a time.
type graphFold struct {
	faults  []Fault
	deaths  []Death
	reboots []Reboot
	rejoins []Rejoin
	escapes []string
	wire    [len(wireKinds)]WireFault

	edges     map[edgeKey]*Edge
	edgeOrder []edgeKey // insertion order, one entry per edges key

	tainted      []int // cells whose effects are suspect, in the order tainted
	haveFault    bool  // any injected fault (cell or wire) seen yet
	recoveryOpen int   // open recovery:* phase spans across all cells
}

func (f *Fold) addEdge(from, to int, class EdgeClass, via string, at sim.Time) {
	k := edgeKey{from, to, class, via}
	ed := f.edges[k]
	if ed == nil {
		ed = &Edge{From: from, To: to, Class: class, Via: via, First: at}
		f.edges[k] = ed
		f.edgeOrder = append(f.edgeOrder, k)
	}
	ed.Count++
	ed.Last = at
}

// taint marks a cell's effects suspect from at on: its fault was
// injected then, or it escaped.
func (f *Fold) taint(c int, at sim.Time) {
	if st := f.cell(c); st != nil && !st.tainted {
		st.tainted, st.taintAt = true, at
		f.tainted = append(f.tainted, c)
	}
}

func (f *Fold) isTainted(c int, at sim.Time) bool {
	st := f.cell(c)
	return st != nil && st.tainted && at >= st.taintAt
}

// soleTainted attributes mechanisms that name no peer (firewall revokes,
// recovery cleanup) to the unique faulty cell when there is exactly one,
// and to -1 otherwise.
func (f *Fold) soleTainted() int {
	if len(f.tainted) == 1 {
		return f.tainted[0]
	}
	return -1
}

// touch records that faulty cell from interacted with cell to: the best
// causal predecessor for an escape edge.
func (f *Fold) touch(from, to int) {
	if st := f.cell(to); st != nil && from >= 0 {
		st.touchedBy = from
	}
}

func (f *Fold) addWire(kind int, at sim.Time) {
	f.haveFault = true
	w := &f.wire[kind]
	if w.Count == 0 {
		*w = WireFault{Kind: wireKinds[kind], First: at}
	}
	w.Count++
}

// addGraph walks one event of the propagation graph.
func (f *Fold) addGraph(e trace.Event) {
	switch e.Kind {
	case trace.Inject:
		f.faults = append(f.faults, Fault{Cell: e.Cell, At: e.At, What: e.S})
		f.taint(e.Cell, e.At)
		f.haveFault = true
		return
	case trace.Panic:
		injected := f.isTainted(e.Cell, e.At)
		f.deaths = append(f.deaths, Death{Cell: e.Cell, At: e.At, Reason: e.S, Injected: injected})
		if !injected {
			// A cell died with no injected fault: containment failed.
			from := f.cell(e.Cell).touchedBy
			f.addEdge(from, e.Cell, Escaped, "death", e.At)
			f.escapes = append(f.escapes, fmt.Sprintf(
				"cell %d died at %v with no injected fault (last faulty contact: cell %d): %s",
				e.Cell, e.At, from, e.S))
			f.taint(e.Cell, e.At) // its own effects are now suspect too
		}
		return
	case trace.Reboot:
		f.reboots = append(f.reboots, Reboot{
			Cell: int(e.A), Attempt: int(e.B), At: e.At, Stage: e.S})
		return
	case trace.Rejoin:
		// A committed join round readmits the cell at full trust: its
		// image is fresh (microboot) and the round's validate barrier
		// vouched for it, so its taint is lifted. A later death of this
		// cell is a NEW fault (FailHardware re-emits Inject), not an
		// escape of the old one.
		joiner := int(e.A)
		f.rejoins = append(f.rejoins, Rejoin{
			Cell: joiner, Coordinator: int(e.B), At: e.At})
		if st := f.cell(joiner); st != nil && st.tainted {
			st.tainted = false
			f.tainted = slices.DeleteFunc(f.tainted, func(c int) bool { return c == joiner })
		}
		// Causal contacts from before the reboot are also void — both
		// the joiner's own record and entries blaming the joiner.
		if st := f.cell(joiner); st != nil {
			st.touchedBy = -1
		}
		for i := range f.cells {
			if f.cells[i].touchedBy == joiner {
				f.cells[i].touchedBy = -1
			}
		}
		return
	case trace.MsgDrop:
		f.addWire(wireDrop, e.At)
		f.addEdge(e.Cell, -1, Absorbed, "retry", e.At)
		return
	case trace.MsgDup:
		f.addWire(wireDup, e.At)
		f.addEdge(e.Cell, -1, Discarded, "dedup", e.At)
		return
	case trace.MsgDelay:
		f.addWire(wireDelay, e.At)
		return
	case trace.MsgCorrupt:
		// Recorded at the delivery side, where the checksum caught it.
		f.addWire(wireCorrupt, e.At)
		f.addEdge(-1, e.Cell, Discarded, "checksum", e.At)
		return
	case trace.PhaseBegin:
		if strings.HasPrefix(e.S, "recovery:") {
			f.recoveryOpen++
		}
		return
	case trace.PhaseEnd:
		if strings.HasPrefix(e.S, "recovery:") && f.recoveryOpen > 0 {
			f.recoveryOpen--
		}
		return
	}
	if !f.haveFault {
		return // nothing to be downstream of yet
	}
	switch e.Kind {
	case trace.RPCSend:
		if f.isTainted(e.Cell, e.At) && int(e.A) != e.Cell {
			// A faulty cell calling out through the validated interface
			// (§3: a corrupt cell keeps running until caught).
			f.addEdge(e.Cell, int(e.A), Validated, "rpc", e.At)
			f.touch(e.Cell, int(e.A))
		}
	case trace.RPCRecv:
		if from := int(e.A); f.isTainted(from, e.At) && from != e.Cell {
			f.addEdge(from, e.Cell, Validated, "rpc", e.At)
			f.touch(from, e.Cell)
		}
	case trace.RPCTimeout:
		if peer := int(e.A); f.isTainted(peer, e.At) && peer != e.Cell {
			f.addEdge(peer, e.Cell, Blocked, "rpc-timeout", e.At)
			f.touch(peer, e.Cell)
		}
	case trace.RPCRetry:
		if peer := int(e.A); f.isTainted(peer, e.At) && peer != e.Cell {
			f.addEdge(peer, e.Cell, Absorbed, "retry", e.At)
		}
	case trace.RPCDedup:
		if peer := int(e.A); peer >= 0 && f.isTainted(peer, e.At) && peer != e.Cell {
			f.addEdge(peer, e.Cell, Discarded, "dedup", e.At)
		}
	case trace.CarefulAbort:
		if suspect := int(e.A); f.isTainted(suspect, e.At) && suspect != e.Cell {
			f.addEdge(suspect, e.Cell, Blocked, "careful", e.At)
			f.touch(suspect, e.Cell)
		}
	case trace.Hint, trace.Alert, trace.Vote:
		if suspect := int(e.A); f.isTainted(suspect, e.At) && suspect != e.Cell {
			f.addEdge(suspect, e.Cell, Validated, "membership", e.At)
		}
	case trace.RoundRestart:
		if dead := int(e.A); f.isTainted(dead, e.At) {
			f.addEdge(dead, e.Cell, Validated, "membership", e.At)
		}
	case trace.Kill, trace.Discard:
		if e.A > 0 { // zero-count cleanups carry no propagation
			f.addEdge(f.soleTainted(), e.Cell, Discarded, "cleanup", e.At)
		}
	case trace.FirewallRevoke:
		// Only revokes inside a recovery round are containment work;
		// permission narrowing is routine during normal operation.
		if f.recoveryOpen > 0 {
			f.addEdge(f.soleTainted(), e.Cell, Blocked, "firewall", e.At)
		}
	}
}

// graph builds the propagation graph of the events folded so far.
func (f *Fold) graph(dropped []trace.DropCount) *Graph {
	g := &Graph{
		Cells:   f.ncells,
		Events:  f.events,
		Faults:  slices.Clone(f.faults),
		Deaths:  slices.Clone(f.deaths),
		Reboots: slices.Clone(f.reboots),
		Rejoins: slices.Clone(f.rejoins),
		Escapes: slices.Clone(f.escapes),
		Dropped: slices.Clone(dropped),
	}
	for _, d := range dropped {
		if d.Total() > 0 {
			g.Truncated = true
		}
	}
	// A death is healed when a later join round readmitted the same cell:
	// the availability loop closed over it.
	for i := range g.Deaths {
		d := &g.Deaths[i]
		for _, r := range g.Rejoins {
			if r.Cell == d.Cell && r.At > d.At {
				d.Healed = true
				break
			}
		}
	}
	for _, w := range f.wire {
		if w.Count > 0 {
			g.WireFaults = append(g.WireFaults, w)
		}
	}
	for _, k := range f.edgeOrder {
		g.Edges = append(g.Edges, *f.edges[k])
	}
	sort.SliceStable(g.Edges, func(i, j int) bool {
		a, b := g.Edges[i], g.Edges[j]
		if a.Class != b.Class {
			return a.Class < b.Class
		}
		if a.From != b.From {
			return a.From < b.From
		}
		if a.To != b.To {
			return a.To < b.To
		}
		return a.Via < b.Via
	})
	return g
}
