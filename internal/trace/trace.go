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
// across repeated runs and parallel-trial worker counts. A Set's sink sees
// every event in that order as it is recorded, including the ones a ring
// later drops.
package trace

import (
	"fmt"
	"slices"

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

// spanName labels the span a span-opening event begins; SpanNames caches
// it for the Chrome export and the forensic profiler.
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

// SpanNames numbers the distinct names of a stream's spans in the order
// first seen. An RPC span's name is formatted from its procedure number
// once per (kind, procedure), a phase's is its S, and every other span
// kind has one name. The zero value is ready to use.
type SpanNames struct {
	names  []string
	byKind map[nameKey]int
	phases map[string]int
}

// nameKey is the part of a non-phase opening event its span name comes
// from.
type nameKey struct {
	kind Kind
	proc int64
}

// ID returns the number of the name of the span b opens.
func (n *SpanNames) ID(b Event) int {
	var (
		id int
		ok bool
		k  nameKey
	)
	if b.Kind == PhaseBegin {
		id, ok = n.phases[b.S]
	} else {
		k = nameKey{kind: b.Kind}
		if b.Kind == RPCSend || b.Kind == RPCRecv {
			k.proc = b.B
		}
		id, ok = n.byKind[k]
	}
	if ok {
		return id
	}
	if n.byKind == nil {
		n.byKind, n.phases = map[nameKey]int{}, map[string]int{}
	}
	id = len(n.names)
	n.names = append(n.names, spanName(b))
	if b.Kind == PhaseBegin {
		n.phases[b.S] = id
	} else {
		n.byKind[k] = id
	}
	return id
}

// Name returns the name numbered id.
func (n *SpanNames) Name(id int) string { return n.names[id] }

// Of returns the name of the span b opens.
func (n *SpanNames) Of(b Event) string { return n.names[n.ID(b)] }

// pairKey packs where a span lives, (span id, cell), into one word: a
// cell is 0..MaxCells-1, six bits.
func pairKey(e Event) uint64 { return uint64(e.Span)<<6 | uint64(e.Cell) }

// Pairer is the one pairing rule every reader of the trace uses, fed a
// stream one event at a time. It matches each span-closing event to the
// latest open span-opening event with the same (span, cell), last in
// first out, so a self-RPC nests its client and server halves. span
// receives each pair at its closing event's position in the stream;
// instant receives every other event, including an opening event with
// span 0 and a closing event with nothing open.
//
// The open opening events share one slab, linked newest to oldest per
// (span, cell) key, and a closed span's slot is reused, so a Pairer's
// storage grows with the most spans open at once, not with the number of
// spans.
type Pairer struct {
	span    func(begin, end Event)
	instant func(Event)
	newest  map[uint64]int32 // open key -> the slot of its newest open event
	slots   []openSlot
	free    int32 // the first free slot, -1 when none
	open    int
}

// openSlot holds one open opening event.
type openSlot struct {
	e Event
	// next is the key's next older open slot while e is open, and the
	// next free slot once the slot is free; -1 ends either list.
	next int32
}

// NewPairer returns a Pairer that reports to span and instant.
func NewPairer(span func(begin, end Event), instant func(Event)) *Pairer {
	return &Pairer{span: span, instant: instant, newest: map[uint64]int32{}, free: -1}
}

// Add feeds the next event of the stream.
func (p *Pairer) Add(e Event) {
	role := e.Kind.info().role
	if role == noSpan || e.Span == 0 {
		p.instant(e)
		return
	}
	k := pairKey(e)
	top, ok := p.newest[k]
	if role == opens {
		if !ok {
			top = -1
		}
		p.newest[k] = p.hold(e, top)
		return
	}
	if !ok {
		p.instant(e)
		return
	}
	s := &p.slots[top]
	b := s.e
	if s.next < 0 {
		delete(p.newest, k)
	} else {
		p.newest[k] = s.next
	}
	*s = openSlot{next: p.free}
	p.free = top
	p.open--
	p.span(b, e)
}

// hold stores an opening event in a free slot, or a new one, above the
// key's older open slot.
func (p *Pairer) hold(e Event, older int32) int32 {
	p.open++
	i := p.free
	if i < 0 {
		p.slots = append(p.slots, openSlot{e, older})
		return int32(len(p.slots) - 1)
	}
	p.free = p.slots[i].next
	p.slots[i] = openSlot{e, older}
	return i
}

// Open reports how many spans are open.
func (p *Pairer) Open() int { return p.open }

// Pair runs a Pairer over a merged stream. The opening events still open
// at the end of the stream are returned, grouped by (span, cell) in the
// order each key first opened, oldest first within a key.
func Pair(events []Event, span func(begin, end Event), instant func(Event)) (open []Event) {
	p := NewPairer(span, instant)
	for _, e := range events {
		p.Add(e)
	}
	// Rank the open keys by their first opening event: a key that
	// drained and reopened keeps its first place.
	for _, e := range events {
		if len(p.newest) == 0 {
			break
		}
		if e.Span == 0 || e.Kind.info().role != opens {
			continue
		}
		k := pairKey(e)
		top, ok := p.newest[k]
		if !ok {
			continue
		}
		delete(p.newest, k)
		from := len(open)
		for i := top; i >= 0; i = p.slots[i].next {
			open = append(open, p.slots[i].e)
		}
		slices.Reverse(open[from:])
	}
	return open
}

// MaxCells bounds a Set's cells: the pairer packs a cell into six bits.
// It is the hive's bound too (core.MaxCells, the firewall's 64-bit
// write-permission vector).
const MaxCells = 64

// Ring storage comes in chunks of chunkLen events. A data ring's first
// chunk is allocated whole with the ring; a control ring's starts at
// ctlStart events and doubles until it is whole, since a control ring
// rarely holds more than a few hundred events.
const (
	chunkLen = 4096
	ctlStart = 256
)

// Ring is a fixed-capacity event buffer; the zero value is unusable. Not
// safe for real concurrency: like everything in the simulation it runs
// on the engine's single logical thread.
//
// Its storage is a list of chunks of chunkLen events, the last one
// shorter when the capacity is not a multiple of chunkLen. The ring adds
// a chunk only when the ones it has are full, never copies one, and
// reuses them once it wraps; only a control ring's first chunk grows. It
// keeps exactly the events, wraps exactly where and drops exactly as many
// as a ring allocated whole would.
type Ring struct {
	cap    int
	chunks [][]Event
	cur    []Event // chunks[c]
	c, off int     // the next slot: offset off of chunk c
	n      uint64  // events recorded
}

// init makes r a ring holding the last n events (256 when n <= 0), whose
// first chunk holds first events to start with.
func (r *Ring) init(n, first int) {
	if n <= 0 {
		n = 256
	}
	chunks := make([][]Event, 1, (n+chunkLen-1)/chunkLen)
	chunks[0] = make([]Event, min(n, first, chunkLen))
	*r = Ring{cap: n, chunks: chunks, cur: chunks[0]}
}

// Record appends an event. It stores typed fields only: no formatting,
// and no allocation (see BenchmarkRecord) except when the ring adds or
// grows a chunk. Once the ring is full, every further record overwrites
// the oldest held event; the overwrite is counted so truncation is never
// silent.
func (r *Ring) Record(e Event) {
	if r.off == len(r.cur) {
		r.advance()
	}
	r.cur[r.off] = e
	r.off++
	r.n++
}

// advance makes room at the end of a full chunk: it grows the first chunk
// while it is short, moves on to the next chunk (adding it when the ring
// has not yet filled it), or wraps to the first.
func (r *Ring) advance() {
	switch first := r.chunks[0]; {
	case r.c == 0 && len(first) < min(r.cap, chunkLen):
		// The size is set explicitly: append's growth factor for large
		// slices is about 1.25, which would allocate several times the
		// final size in all.
		grown := make([]Event, min(2*len(first), r.cap, chunkLen))
		copy(grown, first)
		r.chunks[0] = grown
	case (r.c+1)*chunkLen >= r.cap:
		r.c, r.off = 0, 0
	default:
		r.c, r.off = r.c+1, 0
		if r.c == len(r.chunks) {
			r.chunks = append(r.chunks, make([]Event, min(chunkLen, r.cap-r.c*chunkLen)))
		}
	}
	r.cur = r.chunks[r.c]
}

// Dropped reports how many events have been overwritten since the ring
// filled. The held window always covers [first kept, now]; Dropped says
// how much history before that window is gone.
func (r *Ring) Dropped() uint64 {
	if r.n > uint64(r.cap) {
		return r.n - uint64(r.cap)
	}
	return 0
}

// runs appends the ring's held events to dst in place, as runs that are
// each oldest first and follow one another; empty runs are left out.
func (r *Ring) runs(dst [][]Event) [][]Event {
	add := func(run []Event) {
		if len(run) > 0 {
			dst = append(dst, run)
		}
	}
	if r.n > uint64(r.cap) {
		add(r.chunks[r.c][r.off:])
		for _, c := range r.chunks[r.c+1:] {
			add(c)
		}
	}
	for _, c := range r.chunks[:r.c] {
		add(c)
	}
	add(r.chunks[r.c][:r.off])
	return dst
}

// Set is the machine-wide trace: per-cell rings, the shared sequence
// counter establishing the total order, and the span-id allocator.
type Set struct {
	ctl  []*Ring // per cell: control-plane events
	data []*Ring // per cell: data-plane events
	seq  uint64
	span uint64
	sink func(Event)
}

// NewSet builds the trace for `cells` cells (1 to MaxCells) with
// capPerCell events in each of a cell's two rings (<=0 selects 4096).
func NewSet(cells, capPerCell int) *Set {
	if cells <= 0 {
		cells = 1
	}
	if cells > MaxCells {
		panic(fmt.Sprintf("trace: %d cells; a set holds at most %d", cells, MaxCells))
	}
	if capPerCell <= 0 {
		capPerCell = 4096
	}
	s := &Set{ctl: make([]*Ring, cells), data: make([]*Ring, cells)}
	rings := make([]Ring, 2*cells)
	for i := range s.ctl {
		s.ctl[i], s.data[i] = &rings[2*i], &rings[2*i+1]
		s.ctl[i].init(capPerCell, ctlStart)
		s.data[i].init(capPerCell, chunkLen)
	}
	return s
}

// SetSink makes fn the set's one sink (nil removes it): Record passes fn
// every event once it is stamped, so fn sees the whole stream in Seq
// order, including the events a ring later drops. Set it before the first
// Record for fn to see the stream from its start.
func (s *Set) SetSink(fn func(Event)) { s.sink = fn }

// Cells returns the number of per-cell tracks.
func (s *Set) Cells() int { return len(s.ctl) }

// NextSpan allocates a fresh causal span id from the Set-wide space.
func (s *Set) NextSpan() SpanID {
	s.span++
	return SpanID(s.span)
}

// Record stamps the event with the next sequence number, passes it to the
// sink, if any, and stores it in the cell's ring. Out-of-range cells clamp
// to track 0 so a stray hardware event can never panic the tracer.
func (s *Set) Record(cell int, e Event) {
	if cell < 0 || cell >= len(s.ctl) {
		cell = 0
	}
	s.seq++
	e.Seq = s.seq
	e.Cell = cell
	if s.sink != nil {
		s.sink(e)
	}
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
// ordered by sequence number (the engine's dispatch order). A ring's held
// events are runs already in sequence order, one after another, so Merged
// merges the rings' runs in place into one exactly sized slice, with no
// sort.
func (s *Set) Merged() []Event {
	most := 0 // a ring holds at most one run more than it has chunks
	for i := range s.ctl {
		most += len(s.ctl[i].chunks) + len(s.data[i].chunks) + 2
	}
	runs := make([][]Event, 0, most)
	rings := make([]ringRuns, 0, 2*len(s.ctl))
	n := 0
	for i := range s.ctl {
		for _, r := range [2]*Ring{s.ctl[i], s.data[i]} {
			from := len(runs)
			runs = r.runs(runs)
			if len(runs) > from {
				rings = append(rings, ringRuns{runs[from], runs[from+1:]})
			}
			for _, run := range runs[from:] {
				n += len(run)
			}
		}
	}
	return mergeRuns(make([]Event, 0, n), rings)
}

// ringRuns is what is left to merge of one ring: its current run, never
// empty, and the runs that follow it.
type ringRuns struct {
	run  []Event
	rest [][]Event
}

// mergeHead is a ring in the merge heap: the Seq its current run starts
// at, and the ring's index. It holds no pointer, so the heap's swaps are
// plain copies.
type mergeHead struct {
	seq  uint64
	ring int
}

// mergeRuns appends the events of rings to out in ascending Seq order.
// Each ring's runs are in ascending Seq order, each following the one
// before it. The rings form a min-heap on the first Seq of their current
// run; the lowest ring gives up every event below the next ring's first
// before the heap is fixed again, so a burst from one ring costs one heap
// fix rather than one per event.
func mergeRuns(out []Event, rings []ringRuns) []Event {
	var buf [2 * MaxCells]mergeHead // two rings per cell
	h := buf[:0]
	for i, r := range rings {
		h = append(h, mergeHead{r.run[0].Seq, i})
	}
	for i := len(h)/2 - 1; i >= 0; i-- {
		siftHead(h, i)
	}
	for len(h) > 1 {
		r := &rings[h[0].ring]
		next := h[1].seq
		if len(h) > 2 && h[2].seq < next {
			next = h[2].seq
		}
		run := r.run
		k := 1
		for k < len(run) && run[k].Seq < next {
			k++
		}
		out = append(out, run[:k]...)
		switch {
		case k < len(run):
			r.run = run[k:]
		case len(r.rest) > 0:
			r.run, r.rest = r.rest[0], r.rest[1:]
		default:
			h[0] = h[len(h)-1]
			h = h[:len(h)-1]
			siftHead(h, 0)
			continue
		}
		h[0].seq = r.run[0].Seq
		siftHead(h, 0)
	}
	if len(h) == 1 {
		r := rings[h[0].ring]
		out = append(out, r.run...)
		for _, run := range r.rest {
			out = append(out, run...)
		}
	}
	return out
}

// siftHead restores the min-heap order of h below index i.
func siftHead(h []mergeHead, i int) {
	for {
		least := i
		for _, c := range [2]int{2*i + 1, 2*i + 2} {
			if c < len(h) && h[c].seq < h[least].seq {
				least = c
			}
		}
		if least == i {
			return
		}
		h[i], h[least] = h[least], h[i]
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
