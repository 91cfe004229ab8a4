package trace

import (
	"encoding/json"
	"reflect"
	"strings"
	"testing"

	"repro/internal/sim"
)

// pairs runs Pair and records what reached each callback, as Seq lists.
func pairs(events []Event) (spans [][2]uint64, instants, open []uint64) {
	left := Pair(events, func(b, e Event) {
		spans = append(spans, [2]uint64{b.Seq, e.Seq})
	}, func(e Event) {
		instants = append(instants, e.Seq)
	})
	for _, b := range left {
		open = append(open, b.Seq)
	}
	return spans, instants, open
}

// stream numbers events 1.. in order, as Set.Merged would.
func stream(events ...Event) []Event {
	for i := range events {
		events[i].Seq = uint64(i + 1)
		events[i].At = sim.Time(i+1) * sim.Microsecond
	}
	return events
}

func TestPairSelfRPCNestsLastInFirstOut(t *testing.T) {
	// Client and server halves of a call a cell makes to itself share
	// one (span, cell) key: the first reply closes the server half.
	events := stream(
		Event{Cell: 2, Kind: RPCSend, Span: 7, A: 2, B: 42},
		Event{Cell: 2, Kind: RPCRecv, Span: 7, A: 2, B: 42},
		Event{Cell: 2, Kind: RPCReply, Span: 7, A: 2, B: 42},
		Event{Cell: 2, Kind: RPCReply, Span: 7, A: 2, B: 42},
	)
	spans, instants, open := pairs(events)
	if want := [][2]uint64{{2, 3}, {1, 4}}; !reflect.DeepEqual(spans, want) {
		t.Errorf("spans = %v, want %v (server half first)", spans, want)
	}
	if len(instants) != 0 || len(open) != 0 {
		t.Errorf("instants = %v, open = %v, want none", instants, open)
	}
}

func TestPairUnmatchedEventsAreInstants(t *testing.T) {
	events := stream(
		Event{Cell: 0, Kind: RPCReply, Span: 5},   // 1: end with nothing open
		Event{Cell: 0, Kind: FaultBegin},          // 2: begin with span 0
		Event{Cell: 0, Kind: FaultEnd},            // 3: end with span 0
		Event{Cell: 0, Kind: PhaseBegin, Span: 6}, // 4
		Event{Cell: 1, Kind: PhaseEnd, Span: 6},   // 5: same span, other cell
		Event{Cell: 0, Kind: Hint, Span: 6},       // 6: not a span kind
		Event{Cell: 0, Kind: PhaseEnd, Span: 6},   // 7: closes 4
	)
	spans, instants, open := pairs(events)
	if want := [][2]uint64{{4, 7}}; !reflect.DeepEqual(spans, want) {
		t.Errorf("spans = %v, want %v", spans, want)
	}
	if want := []uint64{1, 2, 3, 5, 6}; !reflect.DeepEqual(instants, want) {
		t.Errorf("instants = %v, want %v", instants, want)
	}
	if len(open) != 0 {
		t.Errorf("open = %v, want none", open)
	}
}

func TestPairOpenBeginsInFirstOpeningOrder(t *testing.T) {
	// Key A=(1, cell 0) opens first, drains, and reopens after key
	// B=(2, cell 0) has opened; key C=(3, cell 1) holds two begins and
	// closes one. The leftovers rank by each key's first opening — A,
	// B, C — and come oldest first within a key, the order the Chrome
	// export writes its unclosed slices in.
	events := stream(
		Event{Cell: 0, Kind: PhaseBegin, Span: 1}, // 1: A opens
		Event{Cell: 0, Kind: PhaseEnd, Span: 1},   // 2: A drains
		Event{Cell: 0, Kind: RPCSend, Span: 2},    // 3: B opens
		Event{Cell: 0, Kind: PhaseBegin, Span: 1}, // 4: A reopens
		Event{Cell: 1, Kind: FaultBegin, Span: 3}, // 5: C opens
		Event{Cell: 1, Kind: FaultBegin, Span: 3}, // 6
		Event{Cell: 1, Kind: FaultBegin, Span: 3}, // 7
		Event{Cell: 1, Kind: FaultEnd, Span: 3},   // 8: closes 7
	)
	spans, instants, open := pairs(events)
	if want := [][2]uint64{{1, 2}, {7, 8}}; !reflect.DeepEqual(spans, want) {
		t.Errorf("spans = %v, want %v", spans, want)
	}
	if len(instants) != 0 {
		t.Errorf("instants = %v, want none", instants)
	}
	if want := []uint64{4, 3, 5, 6}; !reflect.DeepEqual(open, want) {
		t.Errorf("open = %v, want %v", open, want)
	}
}

func TestKindTableComplete(t *testing.T) {
	tags := map[string]Kind{}
	for k := Info + 1; k < numKinds; k++ {
		row := kinds[k]
		if row.tag == "" || row.tag == "INFO" {
			t.Errorf("kind %d has no trace-line tag", k)
		}
		if prev, dup := tags[row.tag]; dup {
			t.Errorf("kinds %d and %d share the tag %q", prev, k, row.tag)
		}
		tags[row.tag] = k
		if row.role == noSpan && (row.instant == "" || row.instant == "info") {
			t.Errorf("%v has neither a span role nor a Chrome instant name", k)
		}
	}
}

func TestExportNamesRebootAndRejoin(t *testing.T) {
	s := NewSet(3, 16)
	s.Tracer(2).Emit(3070*sim.Millisecond, Reboot, 2, 1, "microboot")
	s.Tracer(0).Emit(3103*sim.Millisecond, Rejoin, 2, 0, "")
	var buf strings.Builder
	if err := s.ExportChrome(&buf); err != nil {
		t.Fatalf("export: %v", err)
	}
	var doc struct {
		TraceEvents []struct {
			Name string         `json:"name"`
			Cat  string         `json:"cat"`
			Ph   string         `json:"ph"`
			Tid  int            `json:"tid"`
			Args map[string]any `json:"args"`
		} `json:"traceEvents"`
	}
	if err := json.Unmarshal([]byte(buf.String()), &doc); err != nil {
		t.Fatalf("export is not valid JSON: %v", err)
	}
	want := map[string]struct {
		tid  int
		args map[string]any
	}{
		"reboot": {2, map[string]any{"cell": 2.0, "attempt": 1.0, "stage": "microboot"}},
		"rejoin": {0, map[string]any{"joiner": 2.0, "coordinator": 0.0}},
	}
	for _, e := range doc.TraceEvents {
		if e.Ph != "i" {
			continue
		}
		w, ok := want[e.Name]
		if !ok {
			t.Errorf("unexpected instant %q with args %v", e.Name, e.Args)
			continue
		}
		delete(want, e.Name)
		if e.Cat != "control" || e.Tid != w.tid || !reflect.DeepEqual(e.Args, w.args) {
			t.Errorf("%s instant: cat=%s tid=%d args=%v, want control, %d, %v",
				e.Name, e.Cat, e.Tid, e.Args, w.tid, w.args)
		}
	}
	for name := range want {
		t.Errorf("export has no %q instant", name)
	}
}
