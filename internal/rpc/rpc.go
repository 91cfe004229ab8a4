// Package rpc implements Hive's intercell remote procedure call subsystem
// (§6 of the paper), layered on the FLASH SIPS primitive. The design follows
// the paper:
//
//   - The base system supports only requests serviced at interrupt level;
//     the minimum null RPC latency is 7.2 µs, fast enough that the client
//     processor spins for the reply and context-switches only after a 50 µs
//     timeout (which almost never fires).
//   - No retransmission or duplicate suppression: SIPS is reliable.
//   - No fragmentation: one 128-byte line carries most argument/result data;
//     anything larger is passed by reference through shared memory (and read
//     with the careful reference protocol) or copied, paying the Table 5.2
//     copy and allocate/free costs.
//   - A queuing service and server-process pool handles longer-latency
//     requests (minimum null queued RPC 34 µs); common services are
//     structured as best-effort interrupt-level routines that fall back to
//     the queued path only when they would block.
//   - Every call carries a timeout; a timeout is a failure-detection hint
//     about the callee cell (§4.3).
//
// Each service is one Handler, called first at interrupt level with no
// task. Where it would block it returns ErrQueue, and a server task calls
// it again with its task, which pays its costs as it goes: the cost a
// handler returns is charged only at interrupt level. A Queued service
// always blocks, so its requests go straight to the server pool.
//
// A Request belongs to the endpoint that made it. A call that returns on
// the clean path — answered by its first reply on its own lines, with no
// retry and no line faulted by the machine's fault hook — puts its
// Request back on its endpoint's freelist for the next call, so a handler
// must not keep the *Request after it returns. Arguments and results that
// fit in one Line travel by value (CallOpts.Arg, Request.Result and Call's
// Line result), so such a call allocates nothing once its endpoint is
// warm.
package rpc

import (
	"errors"
	"fmt"
	"sort"

	"repro/internal/machine"
	"repro/internal/sim"
	"repro/internal/stats"
	"repro/internal/trace"
)

// Component costs (ns), calibrated to §6 and Table 5.2. The null RPC totals
// exactly 7.2 µs; a "real" interrupt-level request adds marshalling so its
// stub + hardware component totals 9.6 µs; a request carrying more than one
// line of data adds the shared-memory copy (4.0 µs) and argument/result
// memory allocate/free (3.7 µs), totalling 17.3 µs of RPC cost as in
// Table 5.2.
const (
	ClientSendStub  sim.Time = 1500 // marshal into the SIPS line
	ClientRecvStub  sim.Time = 1100 // unmarshal reply
	ServerDispatch  sim.Time = 800  // demux + service entry/exit
	ServerReply     sim.Time = 650  // reply construction + launch overhead
	IntrEntryExit   sim.Time = 650  // interrupt entry/exit beyond payload access
	ExtraStubReal   sim.Time = 2000 // stub execution for non-trivial arguments (§6: 9.6 µs practical)
	ExtraHWReal     sim.Time = 400  // extra line handling for real requests
	CopySharedMem   sim.Time = 4000 // arg/result copy through shared memory (>1 line)
	AllocFreeArgMem sim.Time = 3700 // allocate/free arg and result memory (>1 line)

	// SpinTimeout is how long the client spins before context-switching.
	SpinTimeout sim.Time = 50 * sim.Microsecond
	// ContextSwitch is the cost of blocking and being rescheduled.
	ContextSwitch sim.Time = 10 * sim.Microsecond
	// QueueSync is the queued path's dequeue + synchronization cost
	// (with the context switch it dominates the 34 µs queued null RPC).
	QueueSync sim.Time = 16600
	// DefaultTimeout bounds a whole call before it becomes a failure
	// hint. It must comfortably exceed queued-service latencies that
	// include disk I/O (tens of ms), or slow-but-healthy servers would
	// be accused of failure; clock monitoring provides the fast
	// detection path (§4.3).
	DefaultTimeout sim.Time = 100 * sim.Millisecond

	// RetryBaseTimeout is the first per-attempt timeout for calls to
	// idempotent services: the paper's SIPS is reliable, but under the
	// v2 fault campaign messages can be dropped or corrupted in flight,
	// and idempotent calls retransmit with exponential backoff (500 µs,
	// 1 ms, 2 ms, then the remaining call budget) instead of failing.
	RetryBaseTimeout sim.Time = 500 * sim.Microsecond
	// RetryMaxAttempts bounds the retransmissions of one idempotent call
	// (the original send plus three retries); the final attempt waits out
	// the whole remaining call budget, so a slow-but-healthy server is
	// never accused faster than before.
	RetryMaxAttempts = 4

	// dedupCap bounds the server-side duplicate-suppression window: an
	// endpoint remembers a request until dedupCap later requests have
	// arrived at it. It needs only to cover the requests that can be
	// retransmitted or duplicated within one call timeout.
	dedupCap = 4096
)

// Errors returned by Call.
var (
	// ErrTimeout means no reply arrived within the call timeout.
	ErrTimeout = errors.New("rpc: call timed out")
	// ErrSendFailed means the SIPS send itself failed (bus error —
	// destination node failed or cut off).
	ErrSendFailed = errors.New("rpc: send failed")
	// ErrQueue is what a handler called without a task returns when
	// serving the request would block: the endpoint then queues it for
	// the server pool. It never reaches a caller.
	ErrQueue = errors.New("rpc: request would block at interrupt level")
	// ErrNoService means the callee has no handler for the proc number.
	ErrNoService = errors.New("rpc: no such service")
	// ErrShutdown means the calling endpoint was shut down (cell panic or
	// forced stop) while the call was outstanding.
	ErrShutdown = errors.New("rpc: endpoint shut down during call")
)

// ProcID names a remote procedure.
type ProcID int

// Line is the by-value part of a request's arguments or a reply's result:
// what fits in the paper's 128-byte SIPS line beside the header, a string
// (a path) and three words. Larger or richer data travels in Args.
type Line struct {
	Str string
	W   [3]int64
}

// Request is one in-flight RPC. It is the call's only host object: it
// holds its first request line, its reply and the reply's first line.
// Only Call creates a Request, and every copy of it on the wire (a
// retransmission or a wire duplicate) is the same object, so a server
// keeps its duplicate-suppression state on the request and answers a
// duplicate from the request it arrived as. The calling endpoint
// recycles it once the call returns on the clean path (see Call), so a
// handler must not keep the *Request after it returns.
type Request struct {
	ID        uint64
	From, To  int // cell IDs
	Proc      ProcID
	Args      any
	Arg       Line // the by-value argument (CallOpts.Arg)
	DataBytes int  // payload size; >128 engages copy/alloc costs
	// Result is the by-value result: a handler that handles the request
	// sets it before it returns, and the reply carries a copy back to
	// Call's caller.
	Result Line
	// Span is the causal trace span allocated by the client; the server
	// side records its recv/reply events under the same id, so the merged
	// trace links both halves of the call across cells.
	Span trace.SpanID

	future sim.Future // resolved with the *reply, or with ErrShutdown
	// line carries the first attempt. A retry takes a fresh line: this
	// one may still be in flight, delayed or duplicated.
	line machine.SIPSMsg
	// rep is the first service's reply, first launched in repLine; a
	// resend takes a fresh line. last is the reply a resend repeats:
	// &rep, or the fresh reply of a later service (after the request
	// left a server's dedup window), which never overwrites rep because
	// the client may hold it.
	rep     reply
	repLine machine.SIPSMsg
	last    *reply
	// shared records that something besides the call may still reach the
	// request once it returns: it was retried, answered other than by rep
	// on repLine, or the machine's fault hook faulted one of its lines
	// (SIPSMsg.Faulted: the line was dropped, delayed, duplicated or
	// corrupted, so a copy may still be on the wire). A shared request is
	// left to the collector.
	shared bool
	// recycled marks a request on its endpoint's freelist: every wire
	// path panics if it is handed one.
	recycled bool
	// served is set once seenBy has served the request.
	served bool
	// seenBy is the endpoint that last took the request as a new arrival,
	// and seenAt that endpoint's arrival count then: seenBy remembers the
	// request while fewer than dedupCap requests arrived after it (see
	// remembers).
	seenBy *Endpoint
	seenAt uint64
}

// reply is the wire representation of a completed call. Errors cross the
// wire as text, so the client never sees the server's error value.
type reply struct {
	req    *Request // the request it answers
	result any
	res    Line // the by-value result
	err    string
}

// remoteError is an error a server returned, as the client sees it: its
// text. It is immutable and points into no Request.
type remoteError struct{ text string }

func (e *remoteError) Error() string { return e.text }

// mustLive returns req, panicking if it sits on a freelist: the wire path
// was handed a request whose call had already been recycled.
func mustLive(req *Request) *Request {
	if req.recycled {
		panic("rpc: a recycled Request reached the wire path")
	}
	return req
}

// Handler serves a request. With t nil it runs at interrupt level, in
// engine context: it must not block, and where it would (a lock is held,
// the data needs I/O or another RPC) it returns ErrQueue and changes
// nothing. Otherwise it returns the result and its service cost, which the
// endpoint charges to the server CPU's interrupt context. A server task
// calls it with t set after an ErrQueue, or for every request of a Queued
// service; it may block, pays its own costs as it goes, and the cost it
// returns is dropped.
type Handler func(t *sim.Task, req *Request) (result any, cost sim.Time, err error)

type service struct {
	name       string
	h          Handler
	queued     bool
	idempotent bool
}

// ServiceOption tunes a Register call.
type ServiceOption func(*service)

// Queued marks a service that always blocks: its requests go straight to
// the server pool, so its handler is only called with a task.
func Queued() ServiceOption {
	return func(s *service) { s.queued = true }
}

// Idempotent marks a service safe to retransmit: a lost request or reply
// makes the client retry with backoff instead of failing the call. The
// server's dedup window suppresses re-execution of retransmits it has
// already serviced, so marked services need only tolerate duplicate
// *delivery*, not duplicate *execution*.
func Idempotent() ServiceOption {
	return func(s *service) { s.idempotent = true }
}

// Endpoint is one cell's RPC engine: it owns the service table, the
// outstanding-call map, the queued-request server pool and the count of
// requests that arrived, which dates each request's dedup window.
type Endpoint struct {
	M      *machine.Machine
	CellID int
	Procs  []*machine.Processor // this cell's processors
	Peers  map[int]*Endpoint    // all endpoints by cell, for addressing

	// HintSink receives failure-detection hints (timeouts, send errors).
	HintSink func(suspectCell int, reason string)
	// Metrics records per-endpoint counters.
	Metrics *stats.Registry
	// Tracer records this cell's RPC events (nil no-ops; set by the cell
	// layer).
	Tracer *trace.Tracer

	eng      *sim.Engine
	services map[ProcID]*service
	pending  map[uint64]*Request
	queue    *sim.Queue
	nextID   uint64
	rrProc   int
	poolSize int
	dead     bool
	histCall *stats.Histogram // end-to-end successful call latency (µs)
	// arrivals counts the requests taken as new arrivals (see remembers).
	arrivals uint64

	// The interrupt handlers of the server path, bound once; each takes
	// the *Request as its argument.
	serveIntr, resendIntr, launchIntr func(*machine.Processor, any)

	// freeReqs holds the Requests of calls that returned on the clean
	// path, zeroed, for the next calls to take.
	freeReqs []*Request
	// lastErr is the last remote error Call returned, reused while the
	// next error text is the same.
	lastErr *remoteError

	// Counters of the round trip, looked up on first use.
	calls, spinTimeouts, intrServed, queued *stats.Counter
}

// NewEndpoint creates the endpoint for cell cellID using the given
// processors and registers its SIPS receive handler on each of their nodes.
// poolSize server tasks are started for the queued path.
func NewEndpoint(m *machine.Machine, cellID int, procs []*machine.Processor, poolSize int) *Endpoint {
	ep := &Endpoint{
		M:        m,
		CellID:   cellID,
		Procs:    procs,
		Peers:    map[int]*Endpoint{},
		Metrics:  stats.NewRegistry(),
		services: map[ProcID]*service{},
		pending:  map[uint64]*Request{},
		queue:    &sim.Queue{},
		poolSize: poolSize,
	}
	ep.serveIntr, ep.resendIntr, ep.launchIntr = ep.serve, ep.resend, ep.launch
	ep.histCall = ep.Metrics.Hist("rpc.call_us")
	ep.eng = m.Eng
	seen := map[int]bool{}
	for _, p := range procs {
		if !seen[p.Node.ID] {
			seen[p.Node.ID] = true
			p.Node.OnSIPS = ep.onSIPS
		}
	}
	for i := 0; i < poolSize; i++ {
		ep.eng.Go(fmt.Sprintf("cell%d.rpcserver%d", cellID, i), ep.serverLoop)
	}
	return ep
}

// Engine returns the engine this endpoint's cell runs on.
func (ep *Endpoint) Engine() *sim.Engine { return ep.eng }

// Connect wires two endpoints so they can address each other.
func Connect(eps ...*Endpoint) {
	for _, a := range eps {
		for _, b := range eps {
			a.Peers[b.CellID] = b
		}
	}
}

// Register installs h as the service for proc. Options mark service
// properties: Queued, which skips the interrupt-level attempt, and
// Idempotent, which enables client-side retransmission.
func (ep *Endpoint) Register(proc ProcID, name string, h Handler, opts ...ServiceOption) {
	svc := &service{name: name, h: h}
	for _, o := range opts {
		o(svc)
	}
	ep.services[proc] = svc
}

// IsIdempotent reports whether proc is registered idempotent here. Service
// tables are registered symmetrically on every cell, so a client consults
// its own table to decide whether a call to a peer may be retransmitted.
func (ep *Endpoint) IsIdempotent(proc ProcID) bool {
	svc, ok := ep.services[proc]
	return ok && svc.idempotent
}

// Shutdown marks the endpoint dead (cell panic/failure): the server pool
// stops, no further requests are serviced, and every outstanding outgoing
// call resolves immediately with ErrShutdown (a clean error, not a 100 ms
// timeout accusing the healthy callee).
func (ep *Endpoint) Shutdown() {
	ep.dead = true
	ep.queue.Close()
	// Resolve outstanding calls in id order: the wakeups run tasks, so
	// map iteration order must not leak into the simulation.
	ids := make([]uint64, 0, len(ep.pending))
	for id := range ep.pending {
		ids = append(ids, id)
	}
	sort.SliceStable(ids, func(i, j int) bool { return ids[i] < ids[j] })
	for _, id := range ids {
		ep.pending[id].future.Set(nil, ErrShutdown)
	}
}

// nextProc picks the processor that receives the endpoint's next incoming
// message, round-robin over its non-halted processors.
func (ep *Endpoint) nextProc() *machine.Processor {
	n := len(ep.Procs)
	for i := 0; i < n; i++ {
		p := ep.Procs[(ep.rrProc+i)%n]
		if !p.Halted() {
			ep.rrProc = (ep.rrProc + i + 1) % n
			return p
		}
	}
	return ep.Procs[0]
}

// CallOpts tunes one call.
type CallOpts struct {
	DataBytes int      // total arg+result payload bytes (0 = null)
	Timeout   sim.Time // overrides DefaultTimeout
	NoHint    bool     // suppress failure hints (used by the prober)
	Arg       Line     // the by-value argument (Request.Arg)
}

// newRequest takes a zeroed Request from the freelist, or makes one.
func (ep *Endpoint) newRequest() *Request {
	n := len(ep.freeReqs)
	if n == 0 {
		return new(Request)
	}
	req := ep.freeReqs[n-1]
	ep.freeReqs = ep.freeReqs[:n-1]
	req.recycled = false
	return req
}

// remoteErr returns the error Call reports for a reply's error text: nil
// for none, else the endpoint's last remote error while the text repeats
// (a run of identical misses allocates nothing).
func (ep *Endpoint) remoteErr(text string) error {
	if text == "" {
		return nil
	}
	if ep.lastErr == nil || ep.lastErr.text != text {
		ep.lastErr = &remoteError{text}
	}
	return ep.lastErr
}

// Call performs a synchronous RPC from task t (running on proc) to cell
// `to`. It returns the handler's result and the by-value result its
// handler set (Request.Result), or an error; timeouts and send failures
// raise failure-detection hints unless suppressed. A remote error keeps
// its text, not its server-side value.
//
// The by-value result comes back as a return value, not through a
// pointer in opts: Call copies opts.Arg, whose Str points at the caller's
// string, into the Request, and escape analysis treats the opts parameter
// as one value, so any pointer in it would leak and move its target to
// the heap.
//
// A call answered on the clean path recycles its Request: no retry, no
// timeout, shutdown or kill, the reply that resolved it was the first
// service's on the request's own reply line, and the machine's fault hook
// faulted no line of the call (FaultDup is the only way to put two copies
// of a line on the wire, and FaultDelay the only way to land one late).
// Then nothing else can reach the Request. On every other path it is left
// to the collector.
func (ep *Endpoint) Call(t *sim.Task, proc *machine.Processor, to int, procID ProcID, args any, opts CallOpts) (any, Line, error) {
	callee, ok := ep.Peers[to]
	if !ok {
		return nil, Line{}, fmt.Errorf("%w: unknown cell %d", ErrSendFailed, to)
	}
	ep.nextID++
	req := ep.newRequest()
	req.ID, req.From, req.To, req.Proc = ep.nextID, ep.CellID, to, procID
	req.Args, req.Arg, req.DataBytes = args, opts.Arg, opts.DataBytes
	callStart := t.Now()
	req.Span = ep.Tracer.NextSpan()
	ep.Tracer.EmitSpan(callStart, trace.RPCSend, req.Span, int64(to), int64(procID), "")

	// Client stub: marshal args into the SIPS line.
	stub := ClientSendStub
	if opts.DataBytes > 0 {
		stub += ExtraStubReal / 2
	}
	proc.Use(t, stub)

	// Oversize arguments: allocate arg memory and copy through shared
	// memory (half the cost on the client side).
	if opts.DataBytes > machine.SIPSLineBytes {
		proc.Use(t, AllocFreeArgMem/2+CopySharedMem/2)
	}

	ep.pending[req.ID] = req
	defer delete(ep.pending, req.ID)

	timeout := opts.Timeout
	if timeout == 0 {
		timeout = DefaultTimeout
	}
	deadline := callStart + timeout

	// Idempotent services retransmit with exponential backoff; all other
	// calls get one attempt with the whole budget (the paper's behavior:
	// SIPS is reliable, a timeout is a failure hint, §6).
	attempts := 1
	attemptBudget := timeout
	if svc, okSvc := ep.services[procID]; okSvc && svc.idempotent && RetryBaseTimeout < timeout {
		attempts = RetryMaxAttempts
		attemptBudget = RetryBaseTimeout
	}

	var val any
	var ferr error
	var ok2 bool
	for attempt := 0; attempt < attempts; attempt++ {
		msg := &req.line
		if attempt > 0 {
			msg = new(machine.SIPSMsg)
			req.shared = true
		}
		*msg = machine.SIPSMsg{To: callee.nextProc().ID, Kind: machine.SIPSRequest, Size: machine.SIPSLineBytes, Payload: req}
		err := ep.M.SendSIPS(t, proc, msg)
		noteFault(req, msg)
		if err != nil {
			ep.Metrics.Counter("rpc.send_failures").Inc()
			ep.Tracer.EmitSpan(t.Now(), trace.RPCTimeout, req.Span, int64(to), int64(procID), "")
			if !opts.NoHint && ep.HintSink != nil {
				ep.HintSink(to, "rpc send bus error")
			}
			return nil, Line{}, fmt.Errorf("%w to cell %d: %v", ErrSendFailed, to, err)
		}
		if attempt == 0 {
			ep.Metrics.Cached(&ep.calls, "rpc.calls").Inc()
		}

		// The last attempt (or the only one) waits out the remaining
		// call budget, so retries never accuse a slow-but-healthy
		// server faster than a single-attempt call would.
		budget := attemptBudget
		if remaining := deadline - t.Now(); attempt == attempts-1 || budget > remaining {
			budget = remaining
		}
		if budget <= 0 {
			break
		}

		// Spin for the reply; context-switch after SpinTimeout (§6).
		spin := budget
		if spin > SpinTimeout {
			spin = SpinTimeout
		}
		val, ferr, ok2 = req.future.WaitTimeout(t, spin)
		if !ok2 {
			ep.Metrics.Cached(&ep.spinTimeouts, "rpc.spin_timeouts").Inc()
			proc.Use(t, ContextSwitch)
			val, ferr, ok2 = req.future.WaitTimeout(t, budget-spin)
			if ok2 {
				proc.Use(t, ContextSwitch) // switch back in
			}
		}
		if ok2 || t.Now() >= deadline {
			break
		}
		// Lost on the wire (or the server is slow): retransmit. The
		// server's dedup window suppresses re-execution, so the retry is
		// safe even when the original request was delivered.
		ep.Metrics.Counter("rpc.retries").Inc()
		ep.Tracer.EmitSpan(t.Now(), trace.RPCRetry, req.Span, int64(to), int64(attempt+1), "")
		attemptBudget *= 2
	}
	if ok2 && ferr != nil {
		// The endpoint was shut down under us (cell panic): surface the
		// clean local error — the callee is not a failure suspect.
		ep.Metrics.Counter("rpc.shutdown_aborts").Inc()
		ep.Tracer.EmitSpan(t.Now(), trace.RPCTimeout, req.Span, int64(to), int64(procID), "shutdown")
		return nil, Line{}, fmt.Errorf("%w: cell %d proc %d", ErrShutdown, to, procID)
	}
	if !ok2 {
		ep.Metrics.Counter("rpc.timeouts").Inc()
		ep.Tracer.EmitSpan(t.Now(), trace.RPCTimeout, req.Span, int64(to), int64(procID), "")
		if !opts.NoHint && ep.HintSink != nil {
			ep.HintSink(to, "rpc timeout")
		}
		return nil, Line{}, fmt.Errorf("%w: cell %d proc %d", ErrTimeout, to, procID)
	}

	rep := val.(*reply)
	// Client stub: unmarshal the reply.
	stub = ClientRecvStub
	if opts.DataBytes > 0 {
		stub += ExtraStubReal / 2
	}
	proc.Use(t, stub)
	ep.Tracer.EmitSpan(t.Now(), trace.RPCReply, req.Span, int64(to), int64(procID), "")
	ep.histCall.ObserveTime(t.Now() - callStart)
	result, res, err := rep.result, rep.res, ep.remoteErr(rep.err)
	if !req.shared {
		// The recycled reply still names its request, so a stray line
		// carrying it meets the mark.
		*req = Request{recycled: true, rep: reply{req: req}}
		ep.freeReqs = append(ep.freeReqs, req)
	}
	return result, res, err
}

// onSIPS is the hardware receive handler: it runs in interrupt context on
// the addressed processor, with the delivered *machine.SIPSMsg.
func (ep *Endpoint) onSIPS(proc *machine.Processor, arg any) {
	if ep.dead {
		return
	}
	msg := arg.(*machine.SIPSMsg)
	switch msg.Kind {
	case machine.SIPSRequest:
		ep.handleRequest(proc, msg.Payload.(*Request))
	case machine.SIPSReply:
		rep := msg.Payload.(*reply)
		if req := mustLive(rep.req); ep.pending[req.ID] == req {
			if msg != &req.repLine || rep != &req.rep || req.future.Ready() {
				// Not the first service's reply on the request's own
				// line, or not its only copy: another may still be out.
				req.shared = true
			}
			if req.future.Ready() {
				// A wire-duplicated reply for a call still unwinding:
				// the first copy already resolved the future.
				ep.Metrics.Counter("rpc.dup_replies").Inc()
				ep.Tracer.EmitSpan(ep.eng.Now(), trace.RPCDedup, req.Span, int64(req.To), 0, "dup-reply")
				return
			}
			req.future.Set(rep, nil)
		} else {
			// The call already returned (it timed out, or this copies a
			// reply that landed), or it was a call of this cell's previous
			// endpoint, whose ids a rebuilt endpoint starts over: a reply
			// resolves only the Request it answers, so a late one is
			// discarded, never delivered to a later call.
			ep.Metrics.Counter("rpc.stale_replies").Inc()
			ep.Tracer.Emit(ep.eng.Now(), trace.RPCDedup, -1, 0, "stale-reply")
		}
	}
}

// remembers reports whether req is in ep's dedup window: ep took it as a
// new arrival, and fewer than dedupCap requests have arrived since. That
// is the rule of a dedupCap-entry table with FIFO eviction, which forgets
// an entry exactly dedupCap arrivals after entering it, with the state
// kept on the requests. A rebuilt endpoint remembers nothing its
// predecessor took.
func (ep *Endpoint) remembers(req *Request) bool {
	return req.seenBy == ep && ep.arrivals-req.seenAt < dedupCap
}

// noteServed records req's result, and the by-value Result its handler
// set, as its reply and marks it served, so a retransmit is answered from
// req without re-execution. The first service fills req.rep; a later one
// builds a fresh reply.
func (ep *Endpoint) noteServed(req *Request, result any, err error) {
	rep := &req.rep
	if req.last != nil {
		rep = new(reply)
	}
	*rep = reply{req: req, result: result, res: req.Result}
	req.Result = Line{}
	if err != nil {
		rep.err = err.Error()
	}
	req.last = rep
	if ep.remembers(req) {
		req.served = true
	}
}

// replyLine returns the line that carries req's reply to dst: the
// request's own reply line on the first launch, a fresh one after it.
func replyLine(req *Request, dst *machine.Processor) *machine.SIPSMsg {
	msg := &req.repLine
	if msg.Payload != nil {
		msg = new(machine.SIPSMsg)
	}
	*msg = machine.SIPSMsg{To: dst.ID, Kind: machine.SIPSReply, Size: machine.SIPSLineBytes, Payload: req.last}
	return msg
}

// handleRequest starts the interrupt-level service path of a request that
// proc received.
func (ep *Endpoint) handleRequest(proc *machine.Processor, req *Request) {
	mustLive(req)
	ep.Tracer.EmitSpan(ep.eng.Now(), trace.RPCRecv, req.Span, int64(req.From), int64(req.Proc), "")

	// Interrupt entry + demux.
	base := IntrEntryExit + ServerDispatch
	if req.DataBytes > 0 {
		base += ExtraHWReal
	}

	// Duplicate suppression: a retransmitted (or wire-duplicated) request
	// that was already serviced is answered from the reply it carries
	// without re-executing the handler; one still in service is dropped —
	// the original's reply will resolve the caller's future, since every
	// copy is the same Request.
	if ep.remembers(req) {
		ep.Metrics.Counter("rpc.dup_requests").Inc()
		ep.Tracer.EmitSpan(ep.eng.Now(), trace.RPCDedup, req.Span, int64(req.From), 0, "dup-request")
		if req.served {
			proc.Interrupt(base, ep.resendIntr, req)
		}
		return
	}
	ep.arrivals++
	req.seenBy, req.seenAt, req.served = ep, ep.arrivals, false
	proc.Interrupt(base, ep.serveIntr, req)
}

// serve is the interrupt-level service of a *Request, run once its entry
// and demux costs are paid. Services are registered when an endpoint is
// built, so the service looked up here is the one the request arrived for.
func (ep *Endpoint) serve(proc *machine.Processor, arg any) {
	req := mustLive(arg.(*Request))
	svc := ep.services[req.Proc]
	switch {
	case svc == nil:
		ep.reply(proc, req, nil, ErrNoService, 0)
	case svc.queued:
		ep.enqueue(req) // straight to the server pool
	default:
		result, cost, err := svc.h(nil, req)
		if errors.Is(err, ErrQueue) {
			ep.Metrics.Counter("rpc.intr_fallbacks").Inc()
			ep.enqueue(req)
			return
		}
		ep.Metrics.Cached(&ep.intrServed, "rpc.intr_served").Inc()
		ep.reply(proc, req, result, err, cost)
	}
}

// reply sends the reply from interrupt context after charging the service
// cost and reply construction.
func (ep *Endpoint) reply(proc *machine.Processor, req *Request, result any, err error, serviceCost sim.Time) {
	cost := serviceCost + ServerReply
	if req.DataBytes > machine.SIPSLineBytes {
		// Server half of the copy/alloc costs.
		cost += AllocFreeArgMem/2 + CopySharedMem/2
	}
	ep.noteServed(req, result, err)
	if ep.Peers[req.From] == nil {
		return
	}
	proc.Interrupt(cost, ep.launchIntr, req)
}

// resend answers a retransmitted *Request with the reply it carries:
// reply construction and launch costs are paid again, the service itself
// is not re-executed.
func (ep *Endpoint) resend(proc *machine.Processor, arg any) {
	req := mustLive(arg.(*Request))
	if ep.Peers[req.From] == nil {
		return
	}
	proc.Interrupt(ServerReply, ep.launchIntr, req)
}

// launch sends a *Request's reply from interrupt level: the last
// interrupt of both reply and resend.
func (ep *Endpoint) launch(proc *machine.Processor, arg any) {
	ep.sendReply(nil, proc, mustLive(arg.(*Request)))
}

// sendReply sends req's reply, req.last, back to its caller from proc: in
// interrupt context with t nil, else from server task t. The caller's
// endpoint is looked up again here. Peers changes only when Connect
// rewires a rebooted cell, so this lookup and the one that decided to
// reply can differ only for a reply to that cell's previous incarnation,
// which its fresh endpoint discards as stale.
func (ep *Endpoint) sendReply(t *sim.Task, proc *machine.Processor, req *Request) {
	ep.Tracer.EmitSpan(ep.eng.Now(), trace.RPCReply, req.Span, int64(req.From), int64(req.Proc), "")
	msg := replyLine(req, ep.Peers[req.From].nextProc())
	ep.M.SendSIPS(t, proc, msg)
	noteFault(req, msg)
}

// noteFault marks req shared if the machine's fault hook, consulted inside
// the launch, faulted msg, the line just launched for it.
func noteFault(req *Request, msg *machine.SIPSMsg) {
	if msg.Faulted {
		req.shared = true
	}
}

// enqueue hands a request to the server pool.
func (ep *Endpoint) enqueue(req *Request) {
	ep.Metrics.Cached(&ep.queued, "rpc.queued").Inc()
	ep.queue.Push(req)
}

// serverLoop is one server-pool task: it dequeues requests, pays the
// context-switch and synchronization costs that dominate the 34 µs queued
// null RPC, runs the (possibly blocking) handler with its task, and sends
// the completion. Only requests with a service are queued. The task paid
// the handler's costs as it ran, so the cost the handler returns, which
// the interrupt level would charge, is dropped (DESIGN §6).
func (ep *Endpoint) serverLoop(t *sim.Task) {
	for {
		v, ok := ep.queue.Pop(t)
		if !ok {
			return
		}
		req := mustLive(v.(*Request))
		proc := ep.serverProc()
		if proc == nil {
			return // all processors halted; cell is dead
		}
		proc.Use(t, ContextSwitch+QueueSync)
		result, _, err := ep.services[req.Proc].h(t, req)
		if ep.dead {
			return
		}
		proc = ep.serverProc()
		if proc == nil {
			return
		}
		// Completion RPC back to the client.
		ep.noteServed(req, result, err)
		if ep.Peers[req.From] == nil {
			continue
		}
		proc.Use(t, ServerReply)
		ep.sendReply(t, proc, req)
	}
}

// serverProc returns a live processor for server-pool execution.
func (ep *Endpoint) serverProc() *machine.Processor {
	for _, p := range ep.Procs {
		if !p.Halted() {
			return p
		}
	}
	return nil
}

// MsgMeta describes one RPC message observed on the SIPS wire — the view a
// fault injector needs to choose targets by service rather than blindly.
type MsgMeta struct {
	ID       uint64
	From, To int // cell ids (zero for replies, which carry no routing echo)
	Proc     ProcID
	IsReply  bool
}

// ClassifySIPS decodes the RPC payload of a SIPS message, reporting false
// for non-RPC traffic. Fault injectors use it to restrict drop/corrupt
// faults to traffic whose loss the RPC layer can absorb (see Idempotent).
func ClassifySIPS(msg *machine.SIPSMsg) (MsgMeta, bool) {
	switch p := msg.Payload.(type) {
	case *Request:
		return MsgMeta{ID: p.ID, From: p.From, To: p.To, Proc: p.Proc}, true
	case *reply:
		return MsgMeta{ID: p.req.ID, Proc: p.req.Proc, IsReply: true}, true
	}
	return MsgMeta{}, false
}
