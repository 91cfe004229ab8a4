package forensic

import (
	"fmt"
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

// ClassName is the stable JSON form of Class.
func (e Edge) ClassName() string { return e.Class.String() }

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

// BuildGraph walks the merged stream and reconstructs the propagation
// graph. events must be in merge order (trace.Set.Merged); dropped may be
// nil. Pure function: identical inputs give identical graphs.
func BuildGraph(events []trace.Event, dropped []trace.DropCount) *Graph {
	g := &Graph{Events: len(events), Dropped: append([]trace.DropCount(nil), dropped...)}
	for _, d := range dropped {
		if d.Total() > 0 {
			g.Truncated = true
		}
	}
	cells := 0
	for _, e := range events {
		if e.Cell >= cells {
			cells = e.Cell + 1
		}
	}
	g.Cells = cells

	edges := map[edgeKey]*Edge{}
	var edgeOrder []edgeKey // insertion order, one entry per edges key
	addEdge := func(from, to int, class EdgeClass, via string, at sim.Time) {
		k := edgeKey{from, to, class, via}
		ed := edges[k]
		if ed == nil {
			ed = &Edge{From: from, To: to, Class: class, Via: via, First: at}
			edges[k] = ed
			edgeOrder = append(edgeOrder, k)
		}
		ed.Count++
		ed.Last = at
	}

	taintAt := map[int]sim.Time{} // cell -> time its fault was injected / it escaped
	var taintedCells []int        // insertion order, one entry per taintAt key
	taint := func(cell int, at sim.Time) {
		if _, ok := taintAt[cell]; !ok {
			taintAt[cell] = at
			taintedCells = append(taintedCells, cell)
		}
	}
	tainted := func(cell int, at sim.Time) bool {
		t, ok := taintAt[cell]
		return ok && at >= t
	}
	// soleTainted attributes mechanisms that name no peer (firewall
	// revokes, recovery cleanup) to the unique faulty cell when there is
	// exactly one, and to -1 otherwise.
	soleTainted := func() int {
		if len(taintedCells) == 1 {
			return taintedCells[0]
		}
		return -1
	}
	// lastTouch[c] is the most recent faulty cell that interacted with c —
	// the best causal predecessor for an escape edge.
	lastTouch := map[int]int{}
	touch := func(from, to int) {
		if from >= 0 {
			lastTouch[to] = from
		}
	}

	var haveFault bool   // any injected fault (cell or wire) seen yet
	var recoveryOpen int // open recovery:* phase spans across all cells
	wire := map[string]*WireFault{}
	var wireOrder []string // insertion order, one entry per wire key
	addWire := func(kind string, at sim.Time) {
		haveFault = true
		w := wire[kind]
		if w == nil {
			w = &WireFault{Kind: kind, First: at}
			wire[kind] = w
			wireOrder = append(wireOrder, kind)
		}
		w.Count++
	}

	for _, e := range events {
		switch e.Kind {
		case trace.Inject:
			g.Faults = append(g.Faults, Fault{Cell: e.Cell, At: e.At, What: e.S})
			taint(e.Cell, e.At)
			haveFault = true
			continue
		case trace.Panic:
			injected := tainted(e.Cell, e.At)
			g.Deaths = append(g.Deaths, Death{Cell: e.Cell, At: e.At, Reason: e.S, Injected: injected})
			if !injected {
				// A cell died with no injected fault: containment failed.
				from := -1
				if f, ok := lastTouch[e.Cell]; ok {
					from = f
				}
				addEdge(from, e.Cell, Escaped, "death", e.At)
				g.Escapes = append(g.Escapes, fmt.Sprintf(
					"cell %d died at %v with no injected fault (last faulty contact: cell %d): %s",
					e.Cell, e.At, from, e.S))
				taint(e.Cell, e.At) // its own effects are now suspect too
			}
			continue
		case trace.Reboot:
			g.Reboots = append(g.Reboots, Reboot{
				Cell: int(e.A), Attempt: int(e.B), At: e.At, Stage: e.S})
			continue
		case trace.Rejoin:
			// A committed join round readmits the cell at full trust: its
			// image is fresh (microboot) and the round's validate barrier
			// vouched for it, so its taint is lifted. A later death of this
			// cell is a NEW fault (FailHardware re-emits Inject), not an
			// escape of the old one.
			joiner := int(e.A)
			g.Rejoins = append(g.Rejoins, Rejoin{
				Cell: joiner, Coordinator: int(e.B), At: e.At})
			if _, ok := taintAt[joiner]; ok {
				delete(taintAt, joiner)
				for i, c := range taintedCells {
					if c == joiner {
						taintedCells = append(taintedCells[:i], taintedCells[i+1:]...)
						break
					}
				}
			}
			// Causal contacts from before the reboot are also void — both
			// the joiner's own record and entries blaming the joiner.
			delete(lastTouch, joiner)
			var blamed []int
			for c, f := range lastTouch {
				if f == joiner {
					blamed = append(blamed, c)
				}
			}
			sort.Ints(blamed)
			for _, c := range blamed {
				delete(lastTouch, c)
			}
			continue
		case trace.MsgDrop:
			addWire("drop", e.At)
			addEdge(e.Cell, -1, Absorbed, "retry", e.At)
			continue
		case trace.MsgDup:
			addWire("dup", e.At)
			addEdge(e.Cell, -1, Discarded, "dedup", e.At)
			continue
		case trace.MsgDelay:
			addWire("delay", e.At)
			continue
		case trace.MsgCorrupt:
			// Recorded at the delivery side, where the checksum caught it.
			addWire("corrupt", e.At)
			addEdge(-1, e.Cell, Discarded, "checksum", e.At)
			continue
		case trace.PhaseBegin:
			if strings.HasPrefix(e.S, "recovery:") {
				recoveryOpen++
			}
			continue
		case trace.PhaseEnd:
			if strings.HasPrefix(e.S, "recovery:") && recoveryOpen > 0 {
				recoveryOpen--
			}
			continue
		}
		if !haveFault {
			continue // nothing to be downstream of yet
		}
		switch e.Kind {
		case trace.RPCSend:
			if tainted(e.Cell, e.At) && int(e.A) != e.Cell {
				// A faulty cell calling out through the validated interface
				// (§3: a corrupt cell keeps running until caught).
				addEdge(e.Cell, int(e.A), Validated, "rpc", e.At)
				touch(e.Cell, int(e.A))
			}
		case trace.RPCRecv:
			if from := int(e.A); tainted(from, e.At) && from != e.Cell {
				addEdge(from, e.Cell, Validated, "rpc", e.At)
				touch(from, e.Cell)
			}
		case trace.RPCTimeout:
			if peer := int(e.A); tainted(peer, e.At) && peer != e.Cell {
				addEdge(peer, e.Cell, Blocked, "rpc-timeout", e.At)
				touch(peer, e.Cell)
			}
		case trace.RPCRetry:
			if peer := int(e.A); tainted(peer, e.At) && peer != e.Cell {
				addEdge(peer, e.Cell, Absorbed, "retry", e.At)
			}
		case trace.RPCDedup:
			if peer := int(e.A); peer >= 0 && tainted(peer, e.At) && peer != e.Cell {
				addEdge(peer, e.Cell, Discarded, "dedup", e.At)
			}
		case trace.CarefulAbort:
			if suspect := int(e.A); tainted(suspect, e.At) && suspect != e.Cell {
				addEdge(suspect, e.Cell, Blocked, "careful", e.At)
				touch(suspect, e.Cell)
			}
		case trace.Hint, trace.Alert, trace.Vote:
			if suspect := int(e.A); tainted(suspect, e.At) && suspect != e.Cell {
				addEdge(suspect, e.Cell, Validated, "membership", e.At)
			}
		case trace.RoundRestart:
			if dead := int(e.A); tainted(dead, e.At) {
				addEdge(dead, e.Cell, Validated, "membership", e.At)
			}
		case trace.Kill, trace.Discard:
			if e.A > 0 { // zero-count cleanups carry no propagation
				addEdge(soleTainted(), e.Cell, Discarded, "cleanup", e.At)
			}
		case trace.FirewallRevoke:
			// Only revokes inside a recovery round are containment work;
			// permission narrowing is routine during normal operation.
			if recoveryOpen > 0 {
				addEdge(soleTainted(), e.Cell, Blocked, "firewall", e.At)
			}
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

	for _, kind := range wireOrder {
		g.WireFaults = append(g.WireFaults, *wire[kind])
	}
	sort.SliceStable(g.WireFaults, func(i, j int) bool { return g.WireFaults[i].Kind < g.WireFaults[j].Kind })
	for _, k := range edgeOrder {
		g.Edges = append(g.Edges, *edges[k])
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
