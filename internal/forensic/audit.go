package forensic

import (
	"fmt"
	"sort"

	"repro/internal/sim"
	"repro/internal/trace"
)

// Verdict is the containment verdict re-derived from the trace alone.
// It mirrors the two trace-derivable fields of faultinject.TrialResult —
// Detected and Contained — so cmd/hivemort can cross-check them; the
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

// Audit derives the verdict from a propagation graph. Rules:
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
func Audit(g *Graph, events []trace.Event) Verdict {
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
	injectAt := map[int]sim.Time{}
	for _, f := range g.Faults {
		if _, ok := injectAt[f.Cell]; !ok {
			injectAt[f.Cell] = f.At
		}
	}

	switch {
	case len(v.Injected) > 0:
		v.auditCellFaults(g, events, injectAt)
	case len(v.Wire) > 0:
		v.auditWireFaults(g, events)
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

func (v *Verdict) auditCellFaults(g *Graph, events []trace.Event, injectAt map[int]sim.Time) {
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
		restarts := countKind(events, trace.RoundRestart)
		if restarts == 0 {
			v.Contained = false
			v.note("containment FAILED: coordinator died but no round restart recorded")
		} else {
			v.note("round restarted %d time(s) after coordinator death", restarts)
		}
	}

	// Detection: post-injection membership evidence per injected cell.
	v.Detected = true
	for _, cell := range v.Injected {
		kind, at := detectionEvidence(events, cell, injectAt[cell])
		if kind == "" {
			v.Detected = false
			v.note("detection FAILED: no membership evidence about cell %d after its fault", cell)
			continue
		}
		v.note("cell %d detected via %s at %v", cell, kind, at)
	}
}

func (v *Verdict) auditWireFaults(g *Graph, events []trace.Event) {
	v.Contained = len(v.Deaths) == 0
	if v.Contained {
		v.note("no cell died under %v wire faults", v.Wire)
	} else {
		v.note("containment FAILED: cells %v died under wire faults", v.Deaths)
	}

	retries := countKind(events, trace.RPCRetry)
	dedups := countKind(events, trace.RPCDedup)
	corrupts := countKind(events, trace.MsgCorrupt)
	evidence := func(kind string) (bool, string) {
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
		ok, detail := evidence(kind)
		if !ok {
			v.Detected = false
			v.note("detection FAILED: no absorption evidence for injected %s faults", kind)
			continue
		}
		v.Detected = true
		v.note("%s faults absorbed: %s", kind, detail)
	}
}

// detectionEvidence finds the first membership event naming cell at or
// after its injection: an alert broadcast or an agreement vote (hints can
// fire on pre-existing suspicion, so they do not count on their own).
func detectionEvidence(events []trace.Event, cell int, after sim.Time) (string, sim.Time) {
	for _, e := range events {
		if e.At < after || int(e.A) != cell {
			continue
		}
		switch e.Kind {
		case trace.Alert:
			return "alert", e.At
		case trace.Vote:
			return "vote", e.At
		case trace.RoundRestart:
			return "round-restart", e.At
		}
	}
	return "", 0
}

func (v *Verdict) note(format string, args ...any) {
	v.Evidence = append(v.Evidence, fmt.Sprintf(format, args...))
}

func countKind(events []trace.Event, k trace.Kind) int {
	n := 0
	for _, e := range events {
		if e.Kind == k {
			n++
		}
	}
	return n
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
