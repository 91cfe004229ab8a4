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
	"sort"

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

// String names the kind for trace rendering.
func (k Kind) String() string {
	switch k {
	case Hint:
		return "HINT"
	case Alert:
		return "ALERT"
	case Vote:
		return "VOTE"
	case Heartbeat:
		return "HEARTBEAT"
	case Panic:
		return "PANIC"
	case Kill:
		return "KILL"
	case Discard:
		return "DISCARD"
	case RPCSend:
		return "RPC-SEND"
	case RPCRecv:
		return "RPC-RECV"
	case RPCReply:
		return "RPC-REPLY"
	case RPCTimeout:
		return "RPC-TIMEOUT"
	case FaultBegin:
		return "FAULT-BEGIN"
	case FaultEnd:
		return "FAULT-END"
	case FirewallGrant:
		return "FW-GRANT"
	case FirewallRevoke:
		return "FW-REVOKE"
	case SIPS:
		return "SIPS"
	case PhaseBegin:
		return "PHASE-BEGIN"
	case PhaseEnd:
		return "PHASE-END"
	case WaxHint:
		return "WAX-HINT"
	case MsgDrop:
		return "MSG-DROP"
	case MsgDup:
		return "MSG-DUP"
	case MsgCorrupt:
		return "MSG-CORRUPT"
	case MsgDelay:
		return "MSG-DELAY"
	case RPCRetry:
		return "RPC-RETRY"
	case RoundRestart:
		return "ROUND-RESTART"
	case Inject:
		return "INJECT"
	case CarefulAbort:
		return "CAREFUL-ABORT"
	case RPCDedup:
		return "RPC-DEDUP"
	case Reboot:
		return "REBOOT"
	case Rejoin:
		return "REJOIN"
	default:
		return "INFO"
	}
}

// control reports whether the kind goes to the (rarely-wrapping) control
// ring: rare, high-value forensic events that must survive long runs.
// High-volume data-plane events share a separate ring so a busy workload
// cannot evict the recovery timeline.
func (k Kind) control() bool {
	switch k {
	case Hint, Alert, Vote, Panic, Kill, Discard, PhaseBegin, PhaseEnd, WaxHint, Info,
		MsgDrop, MsgDup, MsgCorrupt, RPCRetry, RoundRestart,
		Inject, CarefulAbort, RPCDedup, Reboot, Rejoin:
		// Injected message faults, retransmissions, and round restarts
		// are rare and forensically decisive: they live in the control
		// ring so a busy workload cannot evict them.
		return true
	}
	return false
}

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

// Ring is a fixed-capacity event buffer. The zero value is unusable; use
// NewRing. Not safe for real concurrency — like everything in the
// simulation it runs on the engine's single logical thread.
type Ring struct {
	cap     int
	events  []Event
	next    int
	wrapped bool
	dropped uint64
}

// NewRing returns a ring holding the last n events.
func NewRing(n int) *Ring {
	if n <= 0 {
		n = 256
	}
	return &Ring{cap: n, events: make([]Event, n)}
}

// Record appends an event. It stores typed fields only — no formatting,
// no allocation (see BenchmarkRecord). Once the ring has wrapped, every
// further record overwrites the oldest held event; the overwrite is
// counted so truncation is never silent.
func (r *Ring) Record(e Event) {
	if r.wrapped {
		r.dropped++
	}
	r.events[r.next] = e
	r.next++
	if r.next == r.cap {
		r.next = 0
		r.wrapped = true
	}
}

// Dropped reports how many events have been overwritten since the ring
// filled. The held window always covers [first kept, now]; Dropped says
// how much history before that window is gone.
func (r *Ring) Dropped() uint64 { return r.dropped }

// Events returns the held events oldest-first.
func (r *Ring) Events() []Event {
	if !r.wrapped {
		return append([]Event(nil), r.events[:r.next]...)
	}
	out := make([]Event, 0, r.cap)
	out = append(out, r.events[r.next:]...)
	out = append(out, r.events[:r.next]...)
	return out
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
		s.ctl = append(s.ctl, NewRing(capPerCell))
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
// ordered by sequence number (the engine's dispatch order).
func (s *Set) Merged() []Event {
	var out []Event
	for i := range s.ctl {
		out = append(out, s.ctl[i].Events()...)
		out = append(out, s.data[i].Events()...)
	}
	sort.SliceStable(out, func(a, b int) bool { return out[a].Seq < out[b].Seq })
	return out
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
