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

type bucketKey struct {
	cell int
	sub  string
	name string
}

// rpcNameKey is the part of an RPC span's opening event its name is
// formatted from.
type rpcNameKey struct {
	kind trace.Kind
	b    int64
}

// BuildProfile runs the profiler over a merged stream. Begin/end pairs
// are matched by trace.Pair, the exporter's own rule. Spans left open
// when the run stopped (or whose end fell off the ring) count in
// Unclosed and contribute no time.
func BuildProfile(events []trace.Event) *Profile {
	buckets := map[bucketKey]*SpanStat{}
	var bucketOrder []bucketKey     // insertion order, one entry per buckets key
	instants := map[bucketKey]int{} // name=="" rows: instant counts per cell × subsystem
	cells := 0
	for _, e := range events {
		cells = max(cells, e.Cell+1)
	}

	// RPC span names are formatted from their procedure number, so each
	// distinct name is formatted once per profile.
	rpcNames := map[rpcNameKey]string{}
	spanName := func(b trace.Event) string {
		if b.Kind != trace.RPCSend && b.Kind != trace.RPCRecv {
			return trace.SpanName(b)
		}
		k := rpcNameKey{b.Kind, b.B}
		name, ok := rpcNames[k]
		if !ok {
			name = trace.SpanName(b)
			rpcNames[k] = name
		}
		return name
	}

	open := trace.Pair(events, func(b, e trace.Event) {
		k := bucketKey{e.Cell, spanSubsystem(b), spanName(b)}
		st := buckets[k]
		if st == nil {
			st = &SpanStat{Name: k.name}
			buckets[k] = st
			bucketOrder = append(bucketOrder, k)
		}
		st.Time += e.At - b.At
		st.Count++
	}, func(e trace.Event) {
		instants[bucketKey{e.Cell, instantSubsystem(e), ""}]++
	})
	p := &Profile{Unclosed: len(open)}

	for cell := 0; cell < cells; cell++ {
		cp := CellProfile{Cell: cell}
		for _, sub := range Subsystems() {
			sp := SubProfile{Name: sub, Events: instants[bucketKey{cell, sub, ""}]}
			for _, k := range bucketOrder {
				if k.cell != cell || k.sub != sub {
					continue
				}
				b := buckets[k]
				sp.Time += b.Time
				sp.Spans += b.Count
				sp.Top = append(sp.Top, *b)
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
