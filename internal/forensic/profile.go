package forensic

import (
	"sort"

	"repro/internal/sim"
	"repro/internal/trace"
)

// SpanStat aggregates one span name within one cell × subsystem bucket.
type SpanStat struct {
	Name  string   `json:"name"`
	Time  sim.Time `json:"time_ns"`
	Count int      `json:"count"`
}

// SubProfile is one subsystem's share of a cell's virtual time.
type SubProfile struct {
	Name   string     `json:"name"`
	Time   sim.Time   `json:"time_ns"` // summed closed-span durations (inclusive)
	Spans  int        `json:"spans"`   // closed spans
	Events int        `json:"events"`  // instant events attributed here
	Top    []SpanStat `json:"top"`     // per span name, by time desc
}

// CellProfile is one cell's flame-style top-down attribution.
type CellProfile struct {
	Cell   int          `json:"cell"`
	Time   sim.Time     `json:"time_ns"`
	Events int          `json:"events"`
	Subs   []SubProfile `json:"subsystems"`
}

// Profile attributes virtual time (closed begin/end span pairs) and event
// counts per cell × subsystem. Span durations are inclusive — a nested
// span's time also counts in its parent, as in a top-down flame view —
// so per-subsystem times are attribution weights, not a partition of the
// run's wall of virtual time.
type Profile struct {
	Cells    []CellProfile `json:"cells"`
	Total    sim.Time      `json:"total_ns"`
	Unclosed int           `json:"unclosed_spans"`
}

// spanStat sums the closed spans of one name on one cell.
type spanStat struct {
	time  sim.Time
	count int
}

// profileFold is the profile's part of the fold. Closed spans are summed
// per cell and span name, the name numbered by a trace.SpanNames, so a
// closed span costs one name lookup and no string hashing beyond a
// phase's; instants are counted per cell and subsystem.
type profileFold struct {
	pairer *trace.Pairer
	names  trace.SpanNames
	subOf  []sub // per span name number: its subsystem
}

// span folds a closed span: begin and end were paired by trace.Pairer,
// the exporter's own rule.
func (f *Fold) span(b, e trace.Event) {
	id := f.names.ID(b)
	if id == len(f.subOf) {
		f.subOf = append(f.subOf, spanSubsystem(b))
	}
	st := f.cell(e.Cell)
	if id >= len(st.spans) {
		st.spans = append(st.spans, make([]spanStat, id+1-len(st.spans))...)
	}
	st.spans[id].time += e.At - b.At
	st.spans[id].count++
}

// instant folds a point event.
func (f *Fold) instant(e trace.Event) {
	f.cell(e.Cell).instants[instantSubsystem(e)]++
}

// profile builds the profile of the events folded so far. Spans still
// open (never closed, or whose end fell off a ring) count in Unclosed and
// contribute no time.
func (f *Fold) profile() *Profile {
	p := &Profile{Unclosed: f.pairer.Open()}
	for cell := 0; cell < f.ncells; cell++ {
		st := f.cell(cell)
		cp := CellProfile{Cell: cell}
		for s := sub(0); s < numSubs; s++ {
			sp := SubProfile{Name: subNames[s], Events: st.instants[s]}
			for id, b := range st.spans {
				if b.count == 0 || f.subOf[id] != s {
					continue
				}
				sp.Time += b.time
				sp.Spans += b.count
				sp.Top = append(sp.Top, SpanStat{Name: f.names.Name(id), Time: b.time, Count: b.count})
			}
			if sp.Time == 0 && sp.Spans == 0 && sp.Events == 0 {
				continue
			}
			sort.SliceStable(sp.Top, func(i, j int) bool {
				a, b := sp.Top[i], sp.Top[j]
				if a.Time != b.Time {
					return a.Time > b.Time
				}
				return a.Name < b.Name
			})
			cp.Time += sp.Time
			cp.Events += sp.Events
			cp.Subs = append(cp.Subs, sp)
		}
		sort.SliceStable(cp.Subs, func(i, j int) bool {
			a, b := cp.Subs[i], cp.Subs[j]
			if a.Time != b.Time {
				return a.Time > b.Time
			}
			return a.Name < b.Name
		})
		p.Total += cp.Time
		p.Cells = append(p.Cells, cp)
	}
	return p
}
