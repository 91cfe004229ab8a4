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

// spanName labels the slice opened by a begin-kind event.
func spanName(e Event) string {
	switch e.Kind {
	case RPCSend:
		return fmt.Sprintf("rpc:call:%d", e.B)
	case RPCRecv:
		return fmt.Sprintf("rpc:serve:%d", e.B)
	case FaultBegin:
		return "vm:fault"
	case PhaseBegin:
		return e.S
	}
	return e.Kind.String()
}

// instantName labels a point event.
func instantName(e Event) string {
	switch e.Kind {
	case Hint:
		return "hint"
	case Alert:
		return "alert"
	case Vote:
		return "vote"
	case Heartbeat:
		return "heartbeat"
	case Panic:
		return "panic"
	case Kill:
		return "kill"
	case Discard:
		return "discard"
	case FirewallGrant:
		return "firewall:grant"
	case FirewallRevoke:
		return "firewall:revoke"
	case SIPS:
		return "sips"
	case WaxHint:
		return "wax:hint"
	case RPCReply:
		return "rpc:reply"
	case RPCTimeout:
		return "rpc:timeout"
	case MsgDrop:
		return "msg:drop"
	case MsgDup:
		return "msg:dup"
	case MsgCorrupt:
		return "msg:corrupt"
	case MsgDelay:
		return "msg:delay"
	case RPCRetry:
		return "rpc:retry"
	case RoundRestart:
		return "round:restart"
	case FaultEnd:
		return "vm:fault-end"
	case PhaseEnd:
		return e.S + ":end"
	case Inject:
		return "inject"
	case CarefulAbort:
		return "careful:abort"
	case RPCDedup:
		return "rpc:dedup"
	}
	return "info"
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
	}
	if len(args) == 0 {
		return nil
	}
	return args
}

// beginKind reports whether k opens a slice; endKind whether it closes one.
func beginKind(k Kind) bool {
	return k == RPCSend || k == RPCRecv || k == FaultBegin || k == PhaseBegin
}

func endKind(k Kind) bool {
	return k == RPCReply || k == RPCTimeout || k == FaultEnd || k == PhaseEnd
}

// cat labels the ring an event came from.
func cat(k Kind) string {
	if k.control() {
		return "control"
	}
	return "data"
}

// pairKey identifies the track a slice lives on: same span, same cell.
// (A self-RPC nests its client and server slices on one track; the
// per-key stack pairs them LIFO, which is exactly the nesting order.)
type pairKey struct {
	span SpanID
	cell int
}

// BuildChrome converts the merged stream into trace-event entries:
// metadata first, then events in merge order, with each begin/end pair
// folded into one complete slice emitted at its end event's position.
func (s *Set) BuildChrome() []chromeEvent {
	var out []chromeEvent
	out = append(out, chromeEvent{
		Name: "process_name", Ph: "M", Pid: 0, Tid: 0,
		Args: map[string]any{"name": "hive"},
	})
	for c := 0; c < s.Cells(); c++ {
		out = append(out, chromeEvent{
			Name: "thread_name", Ph: "M", Pid: 0, Tid: c,
			Args: map[string]any{"name": fmt.Sprintf("cell %d", c)},
		})
	}

	open := map[pairKey][]Event{}
	var openOrder []pairKey // insertion order, for deterministic leftovers
	for _, e := range s.Merged() {
		switch {
		case beginKind(e.Kind) && e.Span != 0:
			k := pairKey{e.Span, e.Cell}
			if len(open[k]) == 0 {
				openOrder = append(openOrder, k)
			}
			open[k] = append(open[k], e)
		case endKind(e.Kind) && e.Span != 0 && len(open[pairKey{e.Span, e.Cell}]) > 0:
			k := pairKey{e.Span, e.Cell}
			stack := open[k]
			b := stack[len(stack)-1]
			open[k] = stack[:len(stack)-1]
			dur := (e.At - b.At).Micros()
			args := chromeArgs(b)
			if e.Kind == FaultEnd {
				if args == nil {
					args = map[string]any{}
				}
				args["hit"] = e.A != 0
			}
			if e.Kind == PhaseEnd && e.A != 0 {
				if args == nil {
					args = map[string]any{}
				}
				args["count"] = e.A
			}
			if e.Kind == RPCTimeout {
				if args == nil {
					args = map[string]any{}
				}
				args["timeout"] = true
			}
			out = append(out, chromeEvent{
				Name: spanName(b), Cat: cat(b.Kind), Ph: "X",
				Ts: b.At.Micros(), Dur: &dur, Pid: 0, Tid: e.Cell,
				Args: args,
			})
		default:
			out = append(out, chromeEvent{
				Name: instantName(e), Cat: cat(e.Kind), Ph: "i",
				Ts: e.At.Micros(), Pid: 0, Tid: e.Cell, Scope: "t",
				Args: chromeArgs(e),
			})
		}
	}
	// Slices whose end fell outside the ring (or never happened —
	// e.g. an RPC outstanding when the run stopped) close with zero
	// duration rather than vanish.
	for _, k := range openOrder {
		stack := open[k]
		open[k] = nil // a key may appear twice in openOrder; drain once
		for _, b := range stack {
			zero := 0.0
			args := chromeArgs(b)
			if args == nil {
				args = map[string]any{}
			}
			args["unclosed"] = true
			out = append(out, chromeEvent{
				Name: spanName(b), Cat: cat(b.Kind), Ph: "X",
				Ts: b.At.Micros(), Dur: &zero, Pid: 0, Tid: b.Cell,
				Args: args,
			})
		}
	}
	return out
}

// ExportChrome writes the merged stream as Chrome trace-event JSON.
// Virtual time maps to the trace's microsecond timestamps, one track per
// cell. Deterministic: same seed, same bytes, at any -j level.
func (s *Set) ExportChrome(w io.Writer) error {
	enc := json.NewEncoder(w)
	return enc.Encode(chromeDoc{
		TraceEvents:     s.BuildChrome(),
		DisplayTimeUnit: "ms",
	})
}
