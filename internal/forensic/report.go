package forensic

import (
	"fmt"
	"strings"

	"repro/internal/sim"
	"repro/internal/stats"
	"repro/internal/trace"
)

// Report bundles the three forensic products of one run.
type Report struct {
	Graph   *Graph   `json:"-"`
	Audit   Verdict  `json:"audit"`
	Profile *Profile `json:"profile"`
}

// Fold is the forensic pass as state updated once per event: graph
// reconstruction, containment audit and virtual-time profile. Feed it a
// stream in Seq order with Add, from a merged slice or as the events are
// recorded (trace.Set.SetSink), and take its Report. Events name cells
// 0..trace.MaxCells-1.
type Fold struct {
	events int
	ncells int // the highest cell an event was recorded on, plus one
	cells  []cellState
	graphFold
	auditFold
	profileFold
}

// cellState is the fold's state about one cell.
type cellState struct {
	tainted   bool // its effects are suspect from taintAt on
	taintAt   sim.Time
	touchedBy int // the latest faulty cell that interacted with it, or -1
	injected  bool
	injectAt  sim.Time // its first injected fault
	evidence  evidence
	instants  [numSubs]int
	spans     []spanStat // per span name number
}

// NewFold returns a fold sized for a hive of the given number of cells
// (trace.Set.Cells); an event on a further cell grows it.
func NewFold(cells int) *Fold {
	f := &Fold{graphFold: graphFold{edges: map[edgeKey]*Edge{}}}
	f.pairer = trace.NewPairer(f.span, f.instant)
	f.cells = make([]cellState, 0, cells)
	return f
}

// cell returns the fold's state about cell c, or nil for a c no event can
// be recorded on.
func (f *Fold) cell(c int) *cellState {
	if c < 0 || c >= trace.MaxCells {
		return nil
	}
	for len(f.cells) <= c {
		f.cells = append(f.cells, cellState{touchedBy: -1})
	}
	return &f.cells[c]
}

// Add folds the next event of the stream.
func (f *Fold) Add(e trace.Event) {
	f.events++
	f.ncells = max(f.ncells, e.Cell+1)
	f.addGraph(e)
	f.addAudit(e)
	f.pairer.Add(e)
}

// Report returns the forensic report of the events folded so far, with
// the per-cell ring-truncation counters of the trace they came from (nil
// when the fold saw every event). It leaves the fold unchanged.
func (f *Fold) Report(dropped []trace.DropCount) *Report {
	g := f.graph(dropped)
	return &Report{Graph: g, Audit: f.verdict(g), Profile: f.profile()}
}

// Analyze runs the fold over one run's merged stream. Pure function of
// its inputs.
func Analyze(events []trace.Event, dropped []trace.DropCount) *Report {
	f := NewFold(len(dropped))
	for _, e := range events {
		f.Add(e)
	}
	return f.Report(dropped)
}

// cellName renders a graph node (-1 is the wire / unattributed).
func cellName(c int) string {
	if c < 0 {
		return "wire"
	}
	return fmt.Sprintf("cell %d", c)
}

// Format renders the report deterministically: header (event volume,
// truncation), located faults and deaths, the classified edge table, the
// audit verdict with its evidence, and the per-cell top-down profile
// showing the topN heaviest span names per subsystem.
func (r *Report) Format(topN int) string {
	if topN <= 0 {
		topN = 3
	}
	g := r.Graph
	var b strings.Builder

	fmt.Fprintf(&b, "forensics: %d events across %d cells", g.Events, g.Cells)
	if d := totalDropped(g.Dropped); d > 0 {
		fmt.Fprintf(&b, "; %d events dropped by ring truncation (", d)
		first := true
		for _, dc := range g.Dropped {
			if dc.Total() == 0 {
				continue
			}
			if !first {
				b.WriteString(", ")
			}
			first = false
			fmt.Fprintf(&b, "cell %d: %d ctl + %d data", dc.Cell, dc.Control, dc.Data)
		}
		b.WriteString(") — WALK MAY BE INCOMPLETE")
	} else {
		b.WriteString("; no ring truncation")
	}
	b.WriteString("\n\n")

	if len(g.Faults) > 0 {
		b.WriteString("injected faults:\n")
		for _, f := range g.Faults {
			fmt.Fprintf(&b, "  %s  %-7s at %v\n", cellName(f.Cell), f.What, f.At)
		}
	}
	if len(g.WireFaults) > 0 {
		b.WriteString("injected wire faults:\n")
		for _, w := range g.WireFaults {
			fmt.Fprintf(&b, "  %-7s ×%-4d first at %v\n", w.Kind, w.Count, w.First)
		}
	}
	if len(g.Deaths) > 0 {
		b.WriteString("deaths:\n")
		for _, d := range g.Deaths {
			tag := "injected"
			if !d.Injected {
				tag = "NOT INJECTED"
			}
			if d.Healed {
				tag += ", later rejoined"
			}
			fmt.Fprintf(&b, "  %s at %v (%s): %s\n", cellName(d.Cell), d.At, tag, d.Reason)
		}
	}
	if len(g.Reboots) > 0 {
		b.WriteString("availability loop:\n")
		for _, rb := range g.Reboots {
			fmt.Fprintf(&b, "  %s reboot attempt %d at %v: %s\n",
				cellName(rb.Cell), rb.Attempt, rb.At, rb.Stage)
		}
		for _, rj := range g.Rejoins {
			fmt.Fprintf(&b, "  %s REJOINED at %v (join round led by %s)\n",
				cellName(rj.Cell), rj.At, cellName(rj.Coordinator))
		}
		if still := g.FinalDeathCells(); len(still) > 0 {
			fmt.Fprintf(&b, "  still dead at end of trace: %v\n", still)
		}
	}
	b.WriteString("\n")

	if len(g.Edges) > 0 {
		t := stats.NewTable("propagation edges (downstream of the fault)",
			"class", "from", "to", "via", "count", "first", "last")
		for _, e := range g.Edges {
			t.AddRow(e.Class.String(), cellName(e.From), cellName(e.To), e.Via,
				fmt.Sprintf("%d", e.Count), fmt.Sprintf("%v", e.First), fmt.Sprintf("%v", e.Last))
		}
		b.WriteString(t.String())
		counts := g.ClassCounts()
		b.WriteString("edge events:")
		for _, c := range edgeClasses() {
			if counts[c] > 0 {
				fmt.Fprintf(&b, " %s=%d", c, counts[c])
			}
		}
		b.WriteString("\n\n")
	} else {
		b.WriteString("propagation edges: none\n\n")
	}

	verdict := func(ok bool) string {
		if ok {
			return "PASS"
		}
		return "FAIL"
	}
	fmt.Fprintf(&b, "audit: detected=%s contained=%s\n",
		verdict(r.Audit.Detected), verdict(r.Audit.Contained))
	for _, ev := range r.Audit.Evidence {
		fmt.Fprintf(&b, "  - %s\n", ev)
	}
	b.WriteString("\n")

	b.WriteString(r.FormatProfile(topN))
	return b.String()
}

// FormatProfile renders only the virtual-time profile section.
func (r *Report) FormatProfile(topN int) string {
	if topN <= 0 {
		topN = 3
	}
	var b strings.Builder
	fmt.Fprintf(&b, "virtual-time profile (inclusive span time; top %d names per subsystem):\n", topN)
	if r.Profile.Unclosed > 0 {
		fmt.Fprintf(&b, "  (%d spans left open contribute no time)\n", r.Profile.Unclosed)
	}
	for _, cp := range r.Profile.Cells {
		if cp.Time == 0 && cp.Events == 0 {
			continue
		}
		fmt.Fprintf(&b, "cell %d  %v span time, %d instant events\n", cp.Cell, cp.Time, cp.Events)
		for _, sp := range cp.Subs {
			fmt.Fprintf(&b, "  %-11s %12v  %6d spans  %6d events\n", sp.Name, sp.Time, sp.Spans, sp.Events)
			for i, top := range sp.Top {
				if i >= topN {
					break
				}
				fmt.Fprintf(&b, "    %-24s %12v  ×%d\n", top.Name, top.Time, top.Count)
			}
		}
	}
	return b.String()
}
