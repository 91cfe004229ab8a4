package trace

import (
	"encoding/json"
	"fmt"
	"io"
	"strconv"
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
	Name  string   `json:"name"`
	Cat   string   `json:"cat,omitempty"`
	Ph    string   `json:"ph"`
	Ts    float64  `json:"ts"`
	Dur   *float64 `json:"dur,omitempty"`
	Pid   int      `json:"pid"`
	Tid   int      `json:"tid"`
	Scope string   `json:"s,omitempty"`
	Args  argList  `json:"args,omitempty"`
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

// arg is one entry of an event's args: a key and a typed value.
type arg struct {
	key string
	typ argType
	n   int64  // an int, uint, bool or hex value
	s   string // a string value
}

// argType selects how an arg's value is written.
type argType uint8

const (
	argInt argType = iota
	argUint
	argBool
	argString
	argHex // a uint64 written as its "%#x" string
)

func intArg(k string, v int64) arg { return arg{key: k, typ: argInt, n: v} }
func strArg(k, v string) arg       { return arg{key: k, typ: argString, s: v} }

func boolArg(k string, v bool) arg {
	a := arg{key: k, typ: argBool}
	if v {
		a.n = 1
	}
	return a
}

// argList is an event's args in sorted key order. It writes the bytes
// encoding/json writes for a map[string]any of the same entries, without
// a map or reflection per event.
type argList []arg

// withArg sets one arg, keeping the list sorted.
func (a argList) withArg(x arg) argList {
	i := 0
	for i < len(a) && a[i].key < x.key {
		i++
	}
	if i < len(a) && a[i].key == x.key {
		a[i] = x
		return a
	}
	a = append(a, arg{})
	copy(a[i+1:], a[i:])
	a[i] = x
	return a
}

// MarshalJSON writes the args as a JSON object.
func (a *argList) MarshalJSON() ([]byte, error) {
	b := make([]byte, 0, 128)
	b = append(b, '{')
	for i, x := range *a {
		if i > 0 {
			b = append(b, ',')
		}
		b = appendJSONString(b, x.key)
		b = append(b, ':')
		switch x.typ {
		case argInt:
			b = strconv.AppendInt(b, x.n, 10)
		case argUint:
			b = strconv.AppendUint(b, uint64(x.n), 10)
		case argBool:
			b = strconv.AppendBool(b, x.n != 0)
		case argString:
			b = appendJSONString(b, x.s)
		case argHex:
			b = append(b, `"0x`...)
			b = strconv.AppendUint(b, uint64(x.n), 16)
			b = append(b, '"')
		}
	}
	return append(b, '}'), nil
}

// appendJSONString appends s as encoding/json quotes it. Plain printable
// ASCII is copied; anything encoding/json would escape (quotes,
// backslashes, control bytes, HTML's <, > and &, non-ASCII) goes through
// encoding/json itself.
func appendJSONString(b []byte, s string) []byte {
	for i := 0; i < len(s); i++ {
		if c := s[i]; c < 0x20 || c >= 0x80 || c == '"' || c == '\\' || c == '<' || c == '>' || c == '&' {
			q, _ := json.Marshal(s) // a string always encodes
			return append(b, q...)
		}
	}
	b = append(b, '"')
	b = append(b, s...)
	return append(b, '"')
}

// chromeArgs builds the args payload for an event, with room for the one
// arg a span's end adds.
func chromeArgs(e Event) argList {
	var buf [4]arg
	a := argList(buf[:0])
	if e.Span != 0 {
		a = append(a, arg{key: "span", typ: argUint, n: int64(e.Span)})
	}
	switch e.Kind {
	case Hint, Alert:
		a = append(a, intArg("suspect", e.A), strArg("reason", e.S))
	case Vote:
		a = append(a, intArg("suspect", e.A), boolArg("dead", e.B != 0))
	case Heartbeat:
		a = append(a, intArg("neighbour", e.A), intArg("clock", e.B))
	case Panic:
		a = append(a, strArg("reason", e.S))
	case Kill, Discard:
		a = append(a, intArg("count", e.A))
	case RPCSend, RPCRecv, RPCReply, RPCTimeout:
		a = append(a, intArg("peer", e.A), intArg("proc", e.B))
	case FaultBegin:
		a = append(a, intArg("home", e.A), intArg("page", e.B))
	case FaultEnd:
		a = append(a, boolArg("hit", e.A != 0))
	case FirewallGrant, FirewallRevoke:
		a = append(a, intArg("page", e.A), arg{key: "bits", typ: argHex, n: e.B})
	case SIPS, MsgDrop, MsgDup, MsgCorrupt:
		a = append(a, intArg("to_proc", e.A), intArg("queue", e.B))
	case MsgDelay:
		a = append(a, intArg("to_proc", e.A), intArg("extra_ns", e.B))
	case RPCRetry:
		a = append(a, intArg("peer", e.A), intArg("attempt", e.B))
	case RoundRestart:
		a = append(a, intArg("dead_coordinator", e.A), intArg("new_coordinator", e.B))
	case PhaseEnd:
		if e.A != 0 {
			a = append(a, intArg("count", e.A))
		}
	case WaxHint:
		a = append(a, strArg("hint", e.S), intArg("target", e.A), boolArg("applied", e.B != 0))
	case Inject:
		a = append(a, strArg("fault", e.S))
	case CarefulAbort:
		a = append(a, intArg("suspect", e.A), strArg("reason", e.S))
	case RPCDedup:
		a = append(a, intArg("peer", e.A), strArg("what", e.S))
	case Reboot:
		a = append(a, intArg("cell", e.A), intArg("attempt", e.B), strArg("stage", e.S))
	case Rejoin:
		a = append(a, intArg("joiner", e.A), intArg("coordinator", e.B))
	}
	if len(a) == 0 {
		return nil
	}
	out := make(argList, 0, len(a)+1)
	for _, x := range a {
		out = out.withArg(x)
	}
	return out
}

// cat labels the ring an event came from.
func cat(k Kind) string {
	if k.control() {
		return "control"
	}
	return "data"
}

// buildChrome converts a merged stream into trace-event entries:
// metadata first, then events in merge order, with each begin/end pair
// (matched by Pair) folded into one complete slice emitted at its end
// event's position.
func buildChrome(cells int, events []Event) []chromeEvent {
	var out []chromeEvent
	out = append(out, chromeEvent{
		Name: "process_name", Ph: "M", Pid: 0, Tid: 0,
		Args: argList{strArg("name", "hive")},
	})
	for c := 0; c < cells; c++ {
		out = append(out, chromeEvent{
			Name: "thread_name", Ph: "M", Pid: 0, Tid: c,
			Args: argList{strArg("name", fmt.Sprintf("cell %d", c))},
		})
	}

	// Every slice's duration lives in durs. A slice takes at least one
	// event, so durs never outgrows the capacity made here.
	durs := make([]float64, 0, len(events))
	var names SpanNames
	open := Pair(events, func(b, e Event) {
		durs = append(durs, (e.At - b.At).Micros())
		args := chromeArgs(b)
		switch {
		case e.Kind == FaultEnd:
			args = args.withArg(boolArg("hit", e.A != 0))
		case e.Kind == PhaseEnd && e.A != 0:
			args = args.withArg(intArg("count", e.A))
		case e.Kind == RPCTimeout:
			args = args.withArg(boolArg("timeout", true))
		}
		out = append(out, chromeEvent{
			Name: names.Of(b), Cat: cat(b.Kind), Ph: "X",
			Ts: b.At.Micros(), Dur: &durs[len(durs)-1], Pid: 0, Tid: e.Cell,
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
		durs = append(durs, 0)
		out = append(out, chromeEvent{
			Name: names.Of(b), Cat: cat(b.Kind), Ph: "X",
			Ts: b.At.Micros(), Dur: &durs[len(durs)-1], Pid: 0, Tid: b.Cell,
			Args: chromeArgs(b).withArg(boolArg("unclosed", true)),
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
