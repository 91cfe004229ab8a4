// Package trace provides the structured event-trace facility used for
// post-fault analysis. §7.4 credits SimOS's deterministic replay with
// making it "straightforward to analyze the complex series of events that
// follow after a software fault"; our simulation is equally deterministic,
// and these ring buffers give the same forensic view without re-running.
//
// Version 2 records typed events instead of pre-formatted strings: each
// event carries a kind, up to two integer operands, an optional string,
// and a causal span id that propagates across intercell RPCs. Recording
// is allocation-free on the hot path; human-readable text is produced
// lazily by Detail/String, and export.go renders the merged stream as
// Chrome trace-event JSON keyed by virtual microseconds.
//
// Events are recorded into per-cell rings (one control ring for rare,
// high-value events — hints, votes, recovery phases, panics — and one
// data ring for high-volume events — RPCs, SIPS, page faults, firewall
// updates) and merged into one stream totally ordered by a Set-wide
// sequence number. Because the simulation runs on one logical thread,
// the sequence order is the engine's dispatch order and is bit-identical
// across repeated runs and parallel-trial worker counts.
package trace

import (
	"fmt"

	"repro/internal/sim"
)

// Kind classifies an event.
type Kind int

const (
	// Info is anything else worth keeping.
	Info Kind = iota
	// Hint is a failure-detection hint raised about a suspect cell
	// (A = suspect, S = reason).
	Hint
	// Alert is an agreement alert broadcast (A = suspect, S = reason).
	Alert
	// Vote is one cell's agreement vote (A = suspect, B = 1 if voted dead).
	Vote
	// Heartbeat is a neighbour clock check (A = neighbour, B = clock value).
	Heartbeat
	// Panic is a cell panic (S = reason).
	Panic
	// Kill records dependent processes killed by recovery (A = count).
	Kill
	// Discard records preemptively discarded pages (A = count).
	Discard
	// RPCSend is a client issuing a call (A = callee cell, B = proc).
	RPCSend
	// RPCRecv is a server dispatching a request (A = caller cell, B = proc).
	RPCRecv
	// RPCReply closes an RPC span on either side (A = peer cell, B = proc).
	RPCReply
	// RPCTimeout closes a client span that never got a reply
	// (A = callee cell, B = proc).
	RPCTimeout
	// FaultBegin opens a page-fault span (A = home node, B = page offset).
	FaultBegin
	// FaultEnd closes a page-fault span (A = 1 on a page-cache hit).
	FaultEnd
	// FirewallGrant is a firewall permission widening (A = page, B = bits).
	FirewallGrant
	// FirewallRevoke is a firewall permission narrowing (A = page, B = bits).
	FirewallRevoke
	// SIPS is one short interprocessor send (A = destination processor,
	// B = queue kind).
	SIPS
	// PhaseBegin opens a named span (S = name), e.g. the recovery
	// barrier phases.
	PhaseBegin
	// PhaseEnd closes a named span (S = name, A = optional count).
	PhaseEnd
	// WaxHint is a Wax policy hint arriving at a cell (S = hint name,
	// A = target, B = 1 if applied).
	WaxHint
	// MsgDrop is an injected message loss on the SIPS wire
	// (A = destination processor, B = queue kind).
	MsgDrop
	// MsgDup is an injected message duplication (A = destination
	// processor, B = queue kind).
	MsgDup
	// MsgCorrupt is a payload-checksum mismatch detected at delivery —
	// injected corruption caught by the hardware check and discarded
	// (A = destination processor, B = queue kind).
	MsgCorrupt
	// MsgDelay is an injected extra wire delay (A = destination
	// processor, B = extra delay in ns).
	MsgDelay
	// RPCRetry is a client retransmitting an idempotent call after a
	// per-attempt timeout (A = callee cell, B = attempt number).
	RPCRetry
	// RoundRestart is a recovery round deterministically restarting
	// after its coordinator died mid-round (A = dead coordinator,
	// B = new coordinator).
	RoundRestart
	// Inject marks a fault injection into this cell (S = "hw-fail" or
	// "corrupt"). Emitted by the injection path itself so a forensic
	// walk can locate faults from the trace alone.
	Inject
	// CarefulAbort is a careful-reference protocol abort: a cross-cell
	// kernel read hit bad data and was discarded instead of trusted
	// (A = suspect cell, S = reason).
	CarefulAbort
	// RPCDedup is a server or client discarding a duplicate or stale
	// message instead of re-executing it (A = peer cell, S = one of
	// "dup-request", "dup-reply", "stale-reply").
	RPCDedup
	// Reboot marks a microboot of a fresh cell image on a dead cell's
	// nodes (A = rebooted cell, B = attempt number, S = stage). Recorded
	// by the reboot controller so the forensic walk can see the loop.
	Reboot
	// Rejoin marks the commit of a membership join round: the rebooted
	// cell is back in the live set (A = joiner, B = coordinator). From
	// this event on, the joiner's prior taint is cleared — a later death
	// is a *new* fault, not an escape of the old one.
	Rejoin

	numKinds
)

// spanRole says whether a kind opens a span, closes one, or neither.
type spanRole uint8

const (
	noSpan spanRole = iota
	opens
	closes
)

// kindInfo is everything the trace knows about one kind.
type kindInfo struct {
	tag     string // trace-line tag (Kind.String)
	instant string // Chrome instant name; PhaseEnd's is appended to its S
	// control sends the kind to the rarely-wrapping control ring: rare,
	// high-value forensic events that must survive long runs. High-volume
	// data-plane events share a separate ring so a busy workload cannot
	// evict the recovery timeline.
	control bool
	role    spanRole
}

// kinds is the one per-kind table: the trace line, the Chrome export,
// the ring split and span pairing all read it. Injected message faults,
// retransmissions and round restarts are rare and forensically decisive,
// so they are control-ring kinds. A span-opening kind with span 0 is
// exported as an instant under its instant name.
var kinds = [numKinds]kindInfo{
	Info:           {"INFO", "info", true, noSpan},
	Hint:           {"HINT", "hint", true, noSpan},
	Alert:          {"ALERT", "alert", true, noSpan},
	Vote:           {"VOTE", "vote", true, noSpan},
	Heartbeat:      {"HEARTBEAT", "heartbeat", false, noSpan},
	Panic:          {"PANIC", "panic", true, noSpan},
	Kill:           {"KILL", "kill", true, noSpan},
	Discard:        {"DISCARD", "discard", true, noSpan},
	RPCSend:        {"RPC-SEND", "info", false, opens},
	RPCRecv:        {"RPC-RECV", "info", false, opens},
	RPCReply:       {"RPC-REPLY", "rpc:reply", false, closes},
	RPCTimeout:     {"RPC-TIMEOUT", "rpc:timeout", false, closes},
	FaultBegin:     {"FAULT-BEGIN", "info", false, opens},
	FaultEnd:       {"FAULT-END", "vm:fault-end", false, closes},
	FirewallGrant:  {"FW-GRANT", "firewall:grant", false, noSpan},
	FirewallRevoke: {"FW-REVOKE", "firewall:revoke", false, noSpan},
	SIPS:           {"SIPS", "sips", false, noSpan},
	PhaseBegin:     {"PHASE-BEGIN", "info", true, opens},
	PhaseEnd:       {"PHASE-END", ":end", true, closes},
	WaxHint:        {"WAX-HINT", "wax:hint", true, noSpan},
	MsgDrop:        {"MSG-DROP", "msg:drop", true, noSpan},
	MsgDup:         {"MSG-DUP", "msg:dup", true, noSpan},
	MsgCorrupt:     {"MSG-CORRUPT", "msg:corrupt", true, noSpan},
	MsgDelay:       {"MSG-DELAY", "msg:delay", false, noSpan},
	RPCRetry:       {"RPC-RETRY", "rpc:retry", true, noSpan},
	RoundRestart:   {"ROUND-RESTART", "round:restart", true, noSpan},
	Inject:         {"INJECT", "inject", true, noSpan},
	CarefulAbort:   {"CAREFUL-ABORT", "careful:abort", true, noSpan},
	RPCDedup:       {"RPC-DEDUP", "rpc:dedup", true, noSpan},
	Reboot:         {"REBOOT", "reboot", true, noSpan},
	Rejoin:         {"REJOIN", "rejoin", true, noSpan},
}

// info returns the kind's table row; a kind outside the table reads as
// Info.
func (k Kind) info() *kindInfo {
	if uint(k) >= uint(numKinds) {
		k = Info
	}
	return &kinds[k]
}

// String names the kind for trace rendering.
func (k Kind) String() string { return k.info().tag }

// control reports whether the kind goes to the control ring.
func (k Kind) control() bool { return k.info().control }

// SpanID links causally-related events; 0 means "no span". Client and
// server halves of one RPC share the id, so the merged stream answers
// "which call caused this".
type SpanID uint64

// Event is one recorded event. Fields A, B and S are operands whose
// meaning depends on Kind (see the Kind constants); formatting is
// deferred until Detail or String is called.
type Event struct {
	At   sim.Time
	Seq  uint64 // Set-wide total order (engine dispatch order)
	Cell int
	Kind Kind
	Span SpanID
	A, B int64
	S    string
}

// Detail renders the kind-specific message (lazily; recording never
// formats).
func (e Event) Detail() string {
	switch e.Kind {
	case Hint:
		return fmt.Sprintf("suspect cell %d: %s", e.A, e.S)
	case Alert:
		return fmt.Sprintf("alert broadcast for cell %d (%s)", e.A, e.S)
	case Vote:
		return fmt.Sprintf("vote on cell %d: dead=%v", e.A, e.B != 0)
	case Heartbeat:
		return fmt.Sprintf("neighbour %d clock=%d", e.A, e.B)
	case Panic:
		return e.S
	case Kill:
		return fmt.Sprintf("%d dependent processes killed", e.A)
	case Discard:
		return fmt.Sprintf("%d pages writable by failed cells discarded", e.A)
	case RPCSend:
		return fmt.Sprintf("call cell %d proc %d", e.A, e.B)
	case RPCRecv:
		return fmt.Sprintf("serve cell %d proc %d", e.A, e.B)
	case RPCReply:
		return fmt.Sprintf("reply (peer cell %d, proc %d)", e.A, e.B)
	case RPCTimeout:
		return fmt.Sprintf("timeout calling cell %d proc %d", e.A, e.B)
	case FaultBegin:
		return fmt.Sprintf("page fault (home node %d, page %d)", e.A, e.B)
	case FaultEnd:
		return fmt.Sprintf("fault done (hit=%v)", e.A != 0)
	case FirewallGrant:
		return fmt.Sprintf("grant page %d bits %#x", e.A, e.B)
	case FirewallRevoke:
		return fmt.Sprintf("revoke page %d bits %#x", e.A, e.B)
	case SIPS:
		return fmt.Sprintf("send to proc %d (queue %d)", e.A, e.B)
	case PhaseBegin:
		return e.S + " begin"
	case PhaseEnd:
		if e.A != 0 {
			return fmt.Sprintf("%s end (%d)", e.S, e.A)
		}
		return e.S + " end"
	case WaxHint:
		return fmt.Sprintf("wax hint %s applied=%v", e.S, e.B != 0)
	case MsgDrop:
		return fmt.Sprintf("injected drop of send to proc %d (queue %d)", e.A, e.B)
	case MsgDup:
		return fmt.Sprintf("injected duplicate of send to proc %d (queue %d)", e.A, e.B)
	case MsgCorrupt:
		return fmt.Sprintf("checksum mismatch on delivery to proc %d (queue %d): discarded", e.A, e.B)
	case MsgDelay:
		return fmt.Sprintf("injected %dns extra delay to proc %d", e.B, e.A)
	case RPCRetry:
		return fmt.Sprintf("retry attempt %d to cell %d", e.B, e.A)
	case RoundRestart:
		return fmt.Sprintf("round coordinator %d died; restarted under %d", e.A, e.B)
	case Inject:
		return "fault injected: " + e.S
	case CarefulAbort:
		return fmt.Sprintf("careful read about cell %d aborted: %s", e.A, e.S)
	case RPCDedup:
		return fmt.Sprintf("%s from cell %d discarded", e.S, e.A)
	case Reboot:
		return fmt.Sprintf("cell %d microboot attempt %d: %s", e.A, e.B, e.S)
	case Rejoin:
		return fmt.Sprintf("cell %d rejoined the live set (coordinator %d)", e.A, e.B)
	default:
		return e.S
	}
}

// String renders one trace line.
func (e Event) String() string {
	if e.Span != 0 {
		return fmt.Sprintf("[%12v] cell%d %-12s span=%-4d %s", e.At, e.Cell, e.Kind, e.Span, e.Detail())
	}
	return fmt.Sprintf("[%12v] cell%d %-12s %s", e.At, e.Cell, e.Kind, e.Detail())
}

// SpanName labels the span a span-opening event begins; the Chrome
// export and the forensic profiler both name slices by it.
func SpanName(e Event) string {
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

// pairKey is where a span lives: same span id, same cell.
type pairKey struct {
	span SpanID
	cell int
}

// Pair is the one pairing rule every reader of the trace uses. It walks
// a merged stream and matches each span-closing event to the latest open
// span-opening event with the same (span, cell), last in first out, so a
// self-RPC nests its client and server halves. span receives each pair
// at its closing event's position in the stream; instant receives every
// other event, including an opening event with span 0 and a closing
// event with nothing open. The opening events still open at the end of
// the stream are returned, grouped by (span, cell) in the order each
// key first opened, oldest first within a key.
func Pair(events []Event, span func(begin, end Event), instant func(Event)) (open []Event) {
	stacks := map[pairKey][]Event{} // open begins per key; a drained key is deleted
	for _, e := range events {
		k := pairKey{e.Span, e.Cell}
		switch role := e.Kind.info().role; {
		case role == opens && e.Span != 0:
			stacks[k] = append(stacks[k], e)
		case role == closes && e.Span != 0 && len(stacks[k]) > 0:
			stack := stacks[k]
			b := stack[len(stack)-1]
			if len(stack) == 1 {
				delete(stacks, k)
			} else {
				stacks[k] = stack[:len(stack)-1]
			}
			span(b, e)
		default:
			instant(e)
		}
	}
	// Rank the open keys by their first opening event: a key that
	// drained and reopened keeps its first place.
	for _, e := range events {
		if len(stacks) == 0 {
			break
		}
		k := pairKey{e.Span, e.Cell}
		if stack, ok := stacks[k]; ok && e.Kind.info().role == opens {
			open = append(open, stack...)
			delete(stacks, k)
		}
	}
	return open
}

// Ring is a fixed-capacity event buffer. The zero value is unusable; use
// NewRing. Not safe for real concurrency — like everything in the
// simulation it runs on the engine's single logical thread.
type Ring struct {
	cap     int
	events  []Event // storage: cap events, or fewer while a growing ring fills
	next    int
	wrapped bool
	dropped uint64
}

// growStart is a growing ring's first storage size, in events.
const growStart = 256

// NewRing returns a ring holding the last n events (256 when n <= 0),
// its storage allocated whole.
func NewRing(n int) *Ring { return newRing(n, false) }

// newGrowingRing returns a ring like NewRing(n) whose storage starts at
// growStart events and doubles, up to its cap, as it fills. It keeps
// exactly the events, and wraps exactly where, a ring allocated whole
// would.
func newGrowingRing(n int) *Ring { return newRing(n, true) }

func newRing(n int, growing bool) *Ring {
	if n <= 0 {
		n = 256
	}
	size := n
	if growing {
		size = min(n, growStart)
	}
	return &Ring{cap: n, events: make([]Event, size)}
}

// Record appends an event. It stores typed fields only — no formatting,
// no allocation (see BenchmarkRecord), except when a growing ring's
// storage doubles. Once the ring has wrapped, every further record
// overwrites the oldest held event; the overwrite is counted so
// truncation is never silent.
func (r *Ring) Record(e Event) {
	if r.wrapped {
		r.dropped++
	} else if r.next == len(r.events) {
		r.grow()
	}
	r.events[r.next] = e
	r.next++
	if r.next == r.cap {
		r.next = 0
		r.wrapped = true
	}
}

// grow doubles a full growing ring's storage, up to its cap. The size is
// set explicitly: append's growth factor for large slices is about 1.25,
// which would allocate several times the final size in all.
func (r *Ring) grow() {
	events := make([]Event, min(2*len(r.events), r.cap))
	copy(events, r.events)
	r.events = events
}

// Dropped reports how many events have been overwritten since the ring
// filled. The held window always covers [first kept, now]; Dropped says
// how much history before that window is gone.
func (r *Ring) Dropped() uint64 { return r.dropped }

// held returns the ring's held events in place as two runs, each oldest
// first: the older run, then the newer. Until the ring wraps the older
// run is everything and the newer one is empty.
func (r *Ring) held() (older, newer []Event) {
	if !r.wrapped {
		return r.events[:r.next], nil
	}
	return r.events[r.next:], r.events[:r.next]
}

// Set is the machine-wide trace: per-cell rings, the shared sequence
// counter establishing the total order, and the span-id allocator.
type Set struct {
	ctl  []*Ring // per cell: control-plane events
	data []*Ring // per cell: data-plane events
	seq  uint64
	span uint64
}

// NewSet builds the trace for `cells` cells with capPerCell events in
// each of a cell's two rings (<=0 selects 4096).
func NewSet(cells, capPerCell int) *Set {
	if cells <= 0 {
		cells = 1
	}
	if capPerCell <= 0 {
		capPerCell = 4096
	}
	s := &Set{}
	for i := 0; i < cells; i++ {
		s.ctl = append(s.ctl, newGrowingRing(capPerCell))
		s.data = append(s.data, NewRing(capPerCell))
	}
	return s
}

// Cells returns the number of per-cell tracks.
func (s *Set) Cells() int { return len(s.ctl) }

// NextSpan allocates a fresh causal span id from the Set-wide space.
func (s *Set) NextSpan() SpanID {
	s.span++
	return SpanID(s.span)
}

// Record stamps the event with the next sequence number and stores it in
// the cell's ring. Out-of-range cells clamp to track 0 so a stray
// hardware event can never panic the tracer.
func (s *Set) Record(cell int, e Event) {
	if cell < 0 || cell >= len(s.ctl) {
		cell = 0
	}
	s.seq++
	e.Seq = s.seq
	e.Cell = cell
	if e.Kind.control() {
		s.ctl[cell].Record(e)
	} else {
		s.data[cell].Record(e)
	}
}

// DropCount reports one cell's ring truncation: how many control- and
// data-plane events were overwritten before the held window begins.
type DropCount struct {
	Cell    int
	Control uint64
	Data    uint64
}

// Total is the cell's combined overwrite count.
func (d DropCount) Total() uint64 { return d.Control + d.Data }

// Dropped returns the per-cell truncation counters, indexed by cell.
func (s *Set) Dropped() []DropCount {
	out := make([]DropCount, len(s.ctl))
	for i := range s.ctl {
		out[i] = DropCount{Cell: i, Control: s.ctl[i].Dropped(), Data: s.data[i].Dropped()}
	}
	return out
}

// TotalDropped sums the overwrite counts across every cell and ring.
func (s *Set) TotalDropped() uint64 {
	var n uint64
	for i := range s.ctl {
		n += s.ctl[i].Dropped() + s.data[i].Dropped()
	}
	return n
}

// Tracer returns the recording handle for one cell. The nil *Tracer is a
// valid no-op handle, so packages built without a Hive need no guards.
func (s *Set) Tracer(cell int) *Tracer {
	if s == nil {
		return nil
	}
	return &Tracer{set: s, cell: cell}
}

// Merged returns every held event from every cell in one stream, totally
// ordered by sequence number (the engine's dispatch order). Each ring
// holds at most two runs already in sequence order, so Merged merges the
// runs in place into one exactly sized slice, with no sort.
func (s *Set) Merged() []Event {
	runs := make([][]Event, 0, 4*len(s.ctl))
	n := 0
	for i := range s.ctl {
		for _, r := range [2]*Ring{s.ctl[i], s.data[i]} {
			older, newer := r.held()
			for _, run := range [2][]Event{older, newer} {
				if len(run) > 0 {
					runs = append(runs, run)
					n += len(run)
				}
			}
		}
	}
	return mergeRuns(make([]Event, 0, n), runs)
}

// mergeRuns appends the events of runs, each in ascending Seq order, to
// out in ascending Seq order. The runs form a min-heap on their first
// Seq; the lowest run gives up every event below the next run's first
// before the heap is fixed again, so a burst from one ring costs one
// heap fix rather than one per event.
func mergeRuns(out []Event, runs [][]Event) []Event {
	for i := len(runs)/2 - 1; i >= 0; i-- {
		siftRun(runs, i)
	}
	for len(runs) > 1 {
		top := runs[0]
		next := runs[1][0].Seq
		if len(runs) > 2 && runs[2][0].Seq < next {
			next = runs[2][0].Seq
		}
		k := 1
		for k < len(top) && top[k].Seq < next {
			k++
		}
		out = append(out, top[:k]...)
		if k < len(top) {
			runs[0] = top[k:]
		} else {
			runs[0] = runs[len(runs)-1]
			runs = runs[:len(runs)-1]
		}
		siftRun(runs, 0)
	}
	if len(runs) == 1 {
		out = append(out, runs[0]...)
	}
	return out
}

// siftRun restores the min-heap order of runs below index i.
func siftRun(runs [][]Event, i int) {
	for {
		least := i
		for _, c := range [2]int{2*i + 1, 2*i + 2} {
			if c < len(runs) && runs[c][0].Seq < runs[least][0].Seq {
				least = c
			}
		}
		if least == i {
			return
		}
		runs[i], runs[least] = runs[least], runs[i]
		i = least
	}
}

// Filter returns the merged events of one kind.
func (s *Set) Filter(k Kind) []Event {
	var out []Event
	for _, e := range s.Merged() {
		if e.Kind == k {
			out = append(out, e)
		}
	}
	return out
}

// Tail returns the last n merged events (all of them when n <= 0 or the
// stream is shorter).
func (s *Set) Tail(n int) []Event {
	all := s.Merged()
	if n <= 0 || n >= len(all) {
		return all
	}
	return all[len(all)-n:]
}

// Tracer is one cell's recording handle. All methods are safe on a nil
// receiver (they no-op), so instrumented packages work unchanged when
// constructed without a trace Set (unit tests, micro-harnesses).
type Tracer struct {
	set  *Set
	cell int
}

// Enabled reports whether events are actually recorded.
func (tr *Tracer) Enabled() bool { return tr != nil && tr.set != nil }

// NextSpan allocates a span id (0 when disabled).
func (tr *Tracer) NextSpan() SpanID {
	if !tr.Enabled() {
		return 0
	}
	return tr.set.NextSpan()
}

// Emit records a span-less event.
func (tr *Tracer) Emit(at sim.Time, k Kind, a, b int64, s string) {
	if !tr.Enabled() {
		return
	}
	tr.set.Record(tr.cell, Event{At: at, Kind: k, A: a, B: b, S: s})
}

// EmitSpan records an event belonging to an existing span.
func (tr *Tracer) EmitSpan(at sim.Time, k Kind, span SpanID, a, b int64, s string) {
	if !tr.Enabled() {
		return
	}
	tr.set.Record(tr.cell, Event{At: at, Kind: k, Span: span, A: a, B: b, S: s})
}

// Begin opens a named span (PhaseBegin) and returns its id.
func (tr *Tracer) Begin(at sim.Time, name string) SpanID {
	if !tr.Enabled() {
		return 0
	}
	span := tr.set.NextSpan()
	tr.set.Record(tr.cell, Event{At: at, Kind: PhaseBegin, Span: span, S: name})
	return span
}

// End closes a named span (PhaseEnd); a carries an optional count.
func (tr *Tracer) End(at sim.Time, span SpanID, name string, a int64) {
	if !tr.Enabled() {
		return
	}
	tr.set.Record(tr.cell, Event{At: at, Kind: PhaseEnd, Span: span, S: name, A: a})
}
