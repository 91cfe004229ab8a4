package trace

import (
	"encoding/json"
	"strings"
	"testing"

	"repro/internal/sim"
)

func TestRecordAndEvents(t *testing.T) {
	r := newRing(8, chunkLen)
	r.Record(Event{At: 5 * sim.Millisecond, Cell: 1, Kind: Hint, A: 2, S: "clock stalled"})
	r.Record(Event{At: 6 * sim.Millisecond, Cell: 1, Kind: Panic, S: "bad pointer"})
	es := r.Events()
	if len(es) != 2 {
		t.Fatalf("held %d events, want 2", len(es))
	}
	if es[0].Kind != Hint || es[1].Kind != Panic {
		t.Fatalf("wrong order: %v", es)
	}
	if got := es[0].Detail(); got != "suspect cell 2: clock stalled" {
		t.Errorf("Detail = %q", got)
	}
	if !strings.Contains(es[0].String(), "HINT") {
		t.Errorf("String = %q, want HINT tag", es[0].String())
	}
}

func TestRingWraps(t *testing.T) {
	r := newRing(4, chunkLen)
	for i := 0; i < 10; i++ {
		r.Record(Event{At: sim.Time(i), Kind: Info, A: int64(i)})
	}
	es := r.Events()
	if len(es) != 4 {
		t.Fatalf("Len = %d, want 4", len(es))
	}
	for i, e := range es {
		if e.A != int64(6+i) {
			t.Errorf("event %d: A = %d, want %d (oldest-first after wrap)", i, e.A, 6+i)
		}
	}
}

func TestZeroCapacityDefaults(t *testing.T) {
	for _, r := range []*Ring{newRing(0, chunkLen), newRing(0, ctlStart)} {
		if r.cap != 256 {
			t.Errorf("cap = %d, want 256", r.cap)
		}
		r.Record(Event{Kind: Info})
		if got := len(r.Events()); got != 1 {
			t.Errorf("held %d events after one record, want 1", got)
		}
	}
}

func TestKindStrings(t *testing.T) {
	for k := Kind(0); k < numKinds; k++ {
		if k.String() == "" {
			t.Errorf("kind %d has empty String()", k)
		}
	}
}

func TestSetMergeTotalOrder(t *testing.T) {
	s := NewSet(3, 16)
	a, b := s.Tracer(0), s.Tracer(2)
	a.Emit(1*sim.Millisecond, Hint, 2, 0, "x")
	b.Emit(1*sim.Millisecond, SIPS, 5, 0, "") // same virtual time, later seq
	a.Emit(2*sim.Millisecond, Panic, 0, 0, "dead")
	m := s.Merged()
	if len(m) != 3 {
		t.Fatalf("merged %d events, want 3", len(m))
	}
	for i := 1; i < len(m); i++ {
		if m[i].Seq <= m[i-1].Seq {
			t.Fatalf("merge not ordered by seq: %v", m)
		}
	}
	if m[0].Cell != 0 || m[1].Cell != 2 {
		t.Errorf("cells out of order: %v %v", m[0], m[1])
	}
	if got := len(s.Filter(Hint)); got != 1 {
		t.Errorf("Filter(Hint) = %d events, want 1", got)
	}
	if got := len(s.Tail(2)); got != 2 {
		t.Errorf("Tail(2) = %d events, want 2", got)
	}
}

func TestControlRingSurvivesDataFlood(t *testing.T) {
	s := NewSet(1, 8)
	tr := s.Tracer(0)
	span := tr.Begin(0, "recovery:barrier1")
	tr.End(sim.Millisecond, span, "recovery:barrier1", 0)
	for i := 0; i < 1000; i++ {
		tr.Emit(sim.Time(i), SIPS, int64(i), 0, "")
	}
	var phases int
	for _, e := range s.Merged() {
		if e.Kind == PhaseBegin || e.Kind == PhaseEnd {
			phases++
		}
	}
	if phases != 2 {
		t.Fatalf("control events evicted by data flood: %d phase events held, want 2", phases)
	}
}

func TestNilTracerIsSafe(t *testing.T) {
	var tr *Tracer
	if tr.Enabled() {
		t.Fatal("nil tracer reports enabled")
	}
	tr.Emit(0, Hint, 1, 2, "x")
	tr.EmitSpan(0, RPCSend, 7, 1, 2, "")
	span := tr.Begin(0, "p")
	tr.End(0, span, "p", 0)
	if span != 0 || tr.NextSpan() != 0 {
		t.Errorf("nil tracer allocated a span")
	}
}

func TestSpanPropagationAcrossCells(t *testing.T) {
	s := NewSet(2, 16)
	client, server := s.Tracer(0), s.Tracer(1)
	span := client.NextSpan()
	client.EmitSpan(0, RPCSend, span, 1, 42, "")
	server.EmitSpan(10*sim.Microsecond, RPCRecv, span, 0, 42, "")
	server.EmitSpan(20*sim.Microsecond, RPCReply, span, 0, 42, "")
	client.EmitSpan(30*sim.Microsecond, RPCReply, span, 1, 42, "")

	var got []Event
	for _, e := range s.Merged() {
		if e.Span == span {
			got = append(got, e)
		}
	}
	if len(got) != 4 {
		t.Fatalf("span links %d events, want 4", len(got))
	}
	if got[0].Cell == got[1].Cell {
		t.Errorf("span did not cross cells: %v", got)
	}
}

// TestChromeArgsMatchEncodingJSON checks that an argList writes the bytes
// encoding/json writes for a map of the same entries, strings encoding/json
// escapes included.
func TestChromeArgsMatchEncodingJSON(t *testing.T) {
	for _, s := range []string{"", "plain", `q"uo\te`, "<a&b>", "tab\tnl\n\x01", "caf\u00e9", "line\u2028sep", "bad\xffutf8", "del\x7f"} {
		list := argList{strArg("reason", s)}.withArg(intArg("suspect", -3)).
			withArg(arg{key: "span", typ: argUint, n: -1}).
			withArg(boolArg("dead", true)).withArg(boolArg("applied", false)).
			withArg(arg{key: "bits", typ: argHex, n: 0x1f}).withArg(arg{key: "zero", typ: argHex})
		got, err := list.MarshalJSON()
		if err != nil {
			t.Fatalf("%q: marshal: %v", s, err)
		}
		want, _ := json.Marshal(map[string]any{
			"reason": s, "suspect": int64(-3), "span": uint64(1<<64 - 1), "dead": true,
			"applied": false, "bits": "0x1f", "zero": "0x0",
		})
		if string(got) != string(want) {
			t.Errorf("%q:\n got %s\nwant %s", s, got, want)
		}
	}
}

func TestExportChromePairsSpans(t *testing.T) {
	s := NewSet(2, 64)
	client, server := s.Tracer(0), s.Tracer(1)
	span := client.NextSpan()
	client.EmitSpan(0, RPCSend, span, 1, 42, "")
	server.EmitSpan(10*sim.Microsecond, RPCRecv, span, 0, 42, "")
	server.EmitSpan(25*sim.Microsecond, RPCReply, span, 0, 42, "")
	client.EmitSpan(30*sim.Microsecond, RPCReply, span, 1, 42, "")
	rec := server.Begin(40*sim.Microsecond, "recovery:barrier1")
	server.End(90*sim.Microsecond, rec, "recovery:barrier1", 3)
	server.Emit(95*sim.Microsecond, Hint, 0, 0, "test")
	dangling := client.Begin(99*sim.Microsecond, "vm:fault")
	_ = dangling // never ended: must still export, with dur 0

	var buf strings.Builder
	if err := s.ExportChrome(&buf); err != nil {
		t.Fatalf("export: %v", err)
	}
	var doc struct {
		TraceEvents []struct {
			Name string         `json:"name"`
			Ph   string         `json:"ph"`
			Ts   float64        `json:"ts"`
			Dur  *float64       `json:"dur"`
			Tid  int            `json:"tid"`
			Args map[string]any `json:"args"`
		} `json:"traceEvents"`
	}
	if err := json.Unmarshal([]byte(buf.String()), &doc); err != nil {
		t.Fatalf("export is not valid JSON: %v", err)
	}
	byName := map[string]int{}
	for _, e := range doc.TraceEvents {
		byName[e.Name]++
		switch e.Name {
		case "rpc:call:42":
			if e.Ph != "X" || e.Dur == nil || *e.Dur != 30 {
				t.Errorf("client slice wrong: ph=%s dur=%v", e.Ph, e.Dur)
			}
			if e.Tid != 0 || e.Args["peer"].(float64) != 1 {
				t.Errorf("client slice on wrong track: tid=%d args=%v", e.Tid, e.Args)
			}
		case "rpc:serve:42":
			if e.Ph != "X" || e.Dur == nil || *e.Dur != 15 || e.Tid != 1 {
				t.Errorf("server slice wrong: ph=%s dur=%v tid=%d", e.Ph, e.Dur, e.Tid)
			}
		case "recovery:barrier1":
			if e.Ph != "X" || *e.Dur != 50 || e.Args["count"].(float64) != 3 {
				t.Errorf("phase slice wrong: %+v", e)
			}
		case "vm:fault":
			if e.Ph != "X" || *e.Dur != 0 || e.Args["unclosed"] != true {
				t.Errorf("dangling begin not closed with dur 0: %+v", e)
			}
		}
	}
	for _, want := range []string{"process_name", "thread_name", "rpc:call:42", "rpc:serve:42", "recovery:barrier1", "hint", "vm:fault"} {
		if byName[want] == 0 {
			t.Errorf("export missing %q event", want)
		}
	}

	// Byte-determinism of the export itself.
	var buf2 strings.Builder
	if err := s.ExportChrome(&buf2); err != nil {
		t.Fatalf("second export: %v", err)
	}
	if buf.String() != buf2.String() {
		t.Errorf("two exports of the same set differ")
	}
}
