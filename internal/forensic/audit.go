package forensic

import (
	"fmt"
	"sort"

	"repro/internal/sim"
	"repro/internal/trace"
)

// Verdict is the containment verdict re-derived from the trace alone.
// It mirrors the two trace-derivable fields of faultinject.TrialResult —
// Detected and Contained — so cmd/faultdrill can cross-check them; the
// workload-level fields (IntegrityOK, CorrectRunOK, StateOK) need live
// kernel state and are out of the trace's reach (DESIGN.md §10 caveats).
type Verdict struct {
	Detected  bool     `json:"detected"`
	Contained bool     `json:"contained"`
	Injected  []int    `json:"injected_cells"` // cells with injected faults
	Deaths    []int    `json:"dead_cells"`
	Rejoined  []int    `json:"rejoined_cells,omitempty"` // readmitted by a join round
	Wire      []string `json:"wire_faults"`              // injected wire-fault kinds
	Escapes   []string `json:"escapes,omitempty"`
	Evidence  []string `json:"evidence"` // what each verdict bit rests on
	Truncated bool     `json:"truncated"`
}

// auditFold is the audit's part of the fold: the counts its verdict
// reads. Each cell's detection evidence is in its cellState.
type auditFold struct {
	restarts, retries, dedups, corrupts int
}

// evidence is the first membership event naming a cell: an alert
// broadcast, an agreement vote or a round restart.
type evidence struct {
	kind string // "" until found
	at   sim.Time
}

// addAudit folds one event into the audit's counts and detection
// evidence. A cell's evidence is the first membership event naming it at
// or after its first injection (hints can fire on pre-existing suspicion,
// so they do not count on their own). Times never fall along the stream,
// so an event before the injection can qualify only at the injection's
// own instant: until the cell is injected, the fold keeps the first
// candidate at the latest instant seen.
func (f *Fold) addAudit(e trace.Event) {
	var kind string
	switch e.Kind {
	case trace.Inject:
		st := f.cell(e.Cell)
		if !st.injected {
			st.injected, st.injectAt = true, e.At
			if st.evidence.at < e.At {
				st.evidence = evidence{}
			}
		}
		return
	case trace.RPCRetry:
		f.retries++
		return
	case trace.RPCDedup:
		f.dedups++
		return
	case trace.MsgCorrupt:
		f.corrupts++
		return
	case trace.RoundRestart:
		f.restarts++
		kind = "round-restart"
	case trace.Alert:
		kind = "alert"
	case trace.Vote:
		kind = "vote"
	default:
		return
	}
	st := f.cell(int(e.A))
	switch {
	case st == nil:
	case st.injected:
		if st.evidence.kind == "" && e.At >= st.injectAt {
			st.evidence = evidence{kind, e.At}
		}
	case st.evidence.kind == "" || e.At > st.evidence.at:
		st.evidence = evidence{kind, e.At}
	}
}

// verdict derives the containment verdict from the propagation graph and
// the audit's part of the fold. Rules:
//
// Cell-fault runs (≥1 Inject event):
//   - contained ⟺ the dead set equals the injected set exactly (every
//     injected cell died, nobody else did), no edge escaped, and the set
//     of cells still dead when the trace ends equals the injected cells
//     that were never readmitted by a join round (the availability loop
//     must close over every rejoined cell, and a cell may only stay dead
//     if its reboot gave up or never committed). A run that also
//     restarted a recovery round after its coordinator died (two
//     injected faults, one of them cell 0) must show the RoundRestart
//     evidence, mirroring faultinject's extra check.
//   - detected ⟺ every injected cell has post-injection membership
//     evidence about it (an alert broadcast or an agreement vote).
//
// Wire-fault runs (Msg* events, no Injects):
//   - contained ⟺ nobody died.
//   - detected ⟺ the messaging layer visibly observed the fault: a
//     retransmit for drops, a dedup discard for dups, the delivery-side
//     checksum discard for corruption (the MsgCorrupt event is recorded
//     at the catch). Mixed-kind storms count any of the above.
//
// A trace with no fault at all yields detected=false, contained = "no
// deaths" — matching the harness's injection-never-triggered path.
func (f *Fold) verdict(g *Graph) Verdict {
	v := Verdict{
		Injected:  g.FaultCells(),
		Deaths:    g.DeathCells(),
		Escapes:   append([]string(nil), g.Escapes...),
		Truncated: g.Truncated,
	}
	for _, w := range g.WireFaults {
		if w.Kind != "delay" { // delays reorder nothing and need no detection
			v.Wire = append(v.Wire, w.Kind)
		}
	}
	switch {
	case len(v.Injected) > 0:
		v.auditCellFaults(g, f)
	case len(v.Wire) > 0:
		v.auditWireFaults(f)
	default:
		v.Contained = len(v.Deaths) == 0
		v.note("no injected fault found in the trace")
	}
	if g.Truncated {
		v.note("WARNING: trace rings truncated (%d events dropped) — the walk may be incomplete",
			totalDropped(g.Dropped))
	}
	return v
}

func (v *Verdict) auditCellFaults(g *Graph, f *Fold) {
	// Containment: dead set == injected set, no escapes, and every cell
	// still dead at end of trace is an injected cell that never rejoined.
	v.Rejoined = g.RejoinCells()
	final := g.FinalDeathCells()
	expectFinal := subtractInts(v.Injected, v.Rejoined)
	v.Contained = len(v.Escapes) == 0 && equalInts(v.Deaths, v.Injected) &&
		equalInts(final, expectFinal)
	switch {
	case len(v.Escapes) > 0:
		v.note("containment FAILED: %d escape(s)", len(v.Escapes))
	case !equalInts(v.Deaths, v.Injected):
		v.note("containment FAILED: injected %v but dead %v", v.Injected, v.Deaths)
	case !equalInts(final, expectFinal):
		v.note("containment FAILED: cells %v still dead at end of trace, expected %v (injected minus rejoined)",
			final, expectFinal)
	default:
		v.note("dead set %v equals injected set; all edges contained", v.Deaths)
	}
	if len(v.Rejoined) > 0 {
		v.note("cells %v rebooted and rejoined (%d microboot stage(s), %d join commit(s)); a later death would be a new fault, not an escape",
			v.Rejoined, len(g.Reboots), len(g.Rejoins))
	} else if len(g.Reboots) > 0 {
		v.note("%d microboot stage(s) recorded but no join round committed (bounded crash loop)",
			len(g.Reboots))
	}

	// A coordinator-death run (two faults, one of them the recovery
	// master, cell 0) must additionally show the deterministic round
	// restart, mirroring the harness's explicit check.
	if len(v.Injected) == 2 && containsInt(v.Injected, 0) {
		if f.restarts == 0 {
			v.Contained = false
			v.note("containment FAILED: coordinator died but no round restart recorded")
		} else {
			v.note("round restarted %d time(s) after coordinator death", f.restarts)
		}
	}

	// Detection: post-injection membership evidence per injected cell.
	v.Detected = true
	for _, cell := range v.Injected {
		ev := f.cell(cell).evidence
		if ev.kind == "" {
			v.Detected = false
			v.note("detection FAILED: no membership evidence about cell %d after its fault", cell)
			continue
		}
		v.note("cell %d detected via %s at %v", cell, ev.kind, ev.at)
	}
}

func (v *Verdict) auditWireFaults(f *Fold) {
	v.Contained = len(v.Deaths) == 0
	if v.Contained {
		v.note("no cell died under %v wire faults", v.Wire)
	} else {
		v.note("containment FAILED: cells %v died under wire faults", v.Deaths)
	}

	retries, dedups, corrupts := f.retries, f.dedups, f.corrupts
	absorbed := func(kind string) (bool, string) {
		switch kind {
		case "drop":
			return retries > 0, fmt.Sprintf("%d retransmit(s)", retries)
		case "dup":
			return dedups > 0, fmt.Sprintf("%d dedup discard(s)", dedups)
		case "corrupt":
			return corrupts > 0, fmt.Sprintf("%d checksum discard(s)", corrupts)
		}
		return false, ""
	}
	if len(v.Wire) >= 2 {
		// A mixed storm: any visible absorption witnesses detection
		// (faultinject treats the firing injector as the witness; the
		// trace-side analogue is the injected events themselves).
		v.Detected = true
		v.note("mixed wire-fault storm %v: %d retransmits, %d dedups, %d checksum discards",
			v.Wire, retries, dedups, corrupts)
		return
	}
	for _, kind := range v.Wire {
		ok, detail := absorbed(kind)
		if !ok {
			v.Detected = false
			v.note("detection FAILED: no absorption evidence for injected %s faults", kind)
			continue
		}
		v.Detected = true
		v.note("%s faults absorbed: %s", kind, detail)
	}
}

func (v *Verdict) note(format string, args ...any) {
	v.Evidence = append(v.Evidence, fmt.Sprintf(format, args...))
}

func totalDropped(ds []trace.DropCount) uint64 {
	var n uint64
	for _, d := range ds {
		n += d.Total()
	}
	return n
}

func equalInts(a, b []int) bool {
	if len(a) != len(b) {
		return false
	}
	sort.Ints(a)
	sort.Ints(b)
	for i := range a {
		if a[i] != b[i] {
			return false
		}
	}
	return true
}

// subtractInts returns the elements of a not present in b, ascending.
func subtractInts(a, b []int) []int {
	var out []int
	for _, x := range a {
		if !containsInt(b, x) {
			out = append(out, x)
		}
	}
	sort.Ints(out)
	return out
}

func containsInt(xs []int, x int) bool {
	for _, v := range xs {
		if v == x {
			return true
		}
	}
	return false
}
