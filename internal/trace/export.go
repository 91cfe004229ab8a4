package trace

import (
	"encoding/json"
	"fmt"
	"io"
)

// Chrome trace-event export: the merged stream rendered as the JSON
// object format (https://ui.perfetto.dev loads it directly), keyed by
// virtual microseconds. Each cell is one track (pid 0, tid = cell);
// begin/end pairs — RPC client and server halves, page faults, recovery
// phases — become complete ("X") slices, everything else an instant.
// The output is a pure function of the merged stream, so two runs with
// the same seed produce byte-identical files.

// chromeEvent is one entry of the traceEvents array.
type chromeEvent struct {
	Name  string         `json:"name"`
	Cat   string         `json:"cat,omitempty"`
	Ph    string         `json:"ph"`
	Ts    float64        `json:"ts"`
	Dur   *float64       `json:"dur,omitempty"`
	Pid   int            `json:"pid"`
	Tid   int            `json:"tid"`
	Scope string         `json:"s,omitempty"`
	Args  map[string]any `json:"args,omitempty"`
}

// chromeDoc is the whole file.
type chromeDoc struct {
	TraceEvents     []chromeEvent `json:"traceEvents"`
	DisplayTimeUnit string        `json:"displayTimeUnit"`
}

// instantName labels a point event.
func instantName(e Event) string {
	if e.Kind == PhaseEnd {
		return e.S + e.Kind.info().instant
	}
	return e.Kind.info().instant
}

// chromeArgs builds the args payload for an event.
func chromeArgs(e Event) map[string]any {
	args := map[string]any{}
	if e.Span != 0 {
		args["span"] = uint64(e.Span)
	}
	switch e.Kind {
	case Hint, Alert:
		args["suspect"] = e.A
		args["reason"] = e.S
	case Vote:
		args["suspect"] = e.A
		args["dead"] = e.B != 0
	case Heartbeat:
		args["neighbour"] = e.A
		args["clock"] = e.B
	case Panic:
		args["reason"] = e.S
	case Kill, Discard:
		args["count"] = e.A
	case RPCSend, RPCRecv, RPCReply, RPCTimeout:
		args["peer"] = e.A
		args["proc"] = e.B
	case FaultBegin:
		args["home"] = e.A
		args["page"] = e.B
	case FaultEnd:
		args["hit"] = e.A != 0
	case FirewallGrant, FirewallRevoke:
		args["page"] = e.A
		args["bits"] = fmt.Sprintf("%#x", uint64(e.B))
	case SIPS, MsgDrop, MsgDup, MsgCorrupt:
		args["to_proc"] = e.A
		args["queue"] = e.B
	case MsgDelay:
		args["to_proc"] = e.A
		args["extra_ns"] = e.B
	case RPCRetry:
		args["peer"] = e.A
		args["attempt"] = e.B
	case RoundRestart:
		args["dead_coordinator"] = e.A
		args["new_coordinator"] = e.B
	case PhaseEnd:
		if e.A != 0 {
			args["count"] = e.A
		}
	case WaxHint:
		args["hint"] = e.S
		args["target"] = e.A
		args["applied"] = e.B != 0
	case Inject:
		args["fault"] = e.S
	case CarefulAbort:
		args["suspect"] = e.A
		args["reason"] = e.S
	case RPCDedup:
		args["peer"] = e.A
		args["what"] = e.S
	case Reboot:
		args["cell"] = e.A
		args["attempt"] = e.B
		args["stage"] = e.S
	case Rejoin:
		args["joiner"] = e.A
		args["coordinator"] = e.B
	}
	if len(args) == 0 {
		return nil
	}
	return args
}

// cat labels the ring an event came from.
func cat(k Kind) string {
	if k.control() {
		return "control"
	}
	return "data"
}

// withArg sets one arg, allocating the payload if the event had none.
func withArg(args map[string]any, k string, v any) map[string]any {
	if args == nil {
		args = map[string]any{}
	}
	args[k] = v
	return args
}

// buildChrome converts a merged stream into trace-event entries:
// metadata first, then events in merge order, with each begin/end pair
// (matched by Pair) folded into one complete slice emitted at its end
// event's position.
func buildChrome(cells int, events []Event) []chromeEvent {
	var out []chromeEvent
	out = append(out, chromeEvent{
		Name: "process_name", Ph: "M", Pid: 0, Tid: 0,
		Args: map[string]any{"name": "hive"},
	})
	for c := 0; c < cells; c++ {
		out = append(out, chromeEvent{
			Name: "thread_name", Ph: "M", Pid: 0, Tid: c,
			Args: map[string]any{"name": fmt.Sprintf("cell %d", c)},
		})
	}

	open := Pair(events, func(b, e Event) {
		dur := (e.At - b.At).Micros()
		args := chromeArgs(b)
		switch {
		case e.Kind == FaultEnd:
			args = withArg(args, "hit", e.A != 0)
		case e.Kind == PhaseEnd && e.A != 0:
			args = withArg(args, "count", e.A)
		case e.Kind == RPCTimeout:
			args = withArg(args, "timeout", true)
		}
		out = append(out, chromeEvent{
			Name: SpanName(b), Cat: cat(b.Kind), Ph: "X",
			Ts: b.At.Micros(), Dur: &dur, Pid: 0, Tid: e.Cell,
			Args: args,
		})
	}, func(e Event) {
		out = append(out, chromeEvent{
			Name: instantName(e), Cat: cat(e.Kind), Ph: "i",
			Ts: e.At.Micros(), Pid: 0, Tid: e.Cell, Scope: "t",
			Args: chromeArgs(e),
		})
	})
	// Slices whose end fell outside the ring (or never happened —
	// e.g. an RPC outstanding when the run stopped) close with zero
	// duration rather than vanish.
	for _, b := range open {
		zero := 0.0
		out = append(out, chromeEvent{
			Name: SpanName(b), Cat: cat(b.Kind), Ph: "X",
			Ts: b.At.Micros(), Dur: &zero, Pid: 0, Tid: b.Cell,
			Args: withArg(chromeArgs(b), "unclosed", true),
		})
	}
	return out
}

// ExportChrome writes events, the merged stream (Set.Merged) of a hive
// of the given number of cells, as Chrome trace-event JSON. Virtual time
// maps to the trace's microsecond timestamps, one track per cell.
// Deterministic: same seed, same bytes, at any -j level.
func ExportChrome(w io.Writer, cells int, events []Event) error {
	enc := json.NewEncoder(w)
	return enc.Encode(chromeDoc{
		TraceEvents:     buildChrome(cells, events),
		DisplayTimeUnit: "ms",
	})
}

// ExportChrome writes the set's merged stream as Chrome trace-event JSON.
func (s *Set) ExportChrome(w io.Writer) error { return ExportChrome(w, s.Cells(), s.Merged()) }
