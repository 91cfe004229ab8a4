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

	// dedupCap bounds the server-side duplicate-suppression table (keys
	// are evicted FIFO); it needs only to cover the requests that can be
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
	// ErrBadRequest is returned by servers that reject a sanity check.
	ErrBadRequest = errors.New("rpc: request failed sanity check")
	// ErrNoService means the callee has no handler for the proc number.
	ErrNoService = errors.New("rpc: no such service")
	// ErrShutdown means the calling endpoint was shut down (cell panic or
	// forced stop) while the call was outstanding.
	ErrShutdown = errors.New("rpc: endpoint shut down during call")
)

// ProcID names a remote procedure.
type ProcID int

// Request is one in-flight RPC.
type Request struct {
	ID        uint64
	From, To  int // cell IDs
	Proc      ProcID
	Args      any
	DataBytes int // payload size; >128 engages copy/alloc costs
	// Span is the causal trace span allocated by the client; the server
	// side records its recv/reply events under the same id, so the merged
	// trace links both halves of the call across cells.
	Span trace.SpanID

	future *sim.Future
	bd     *stats.Breakdown // optional component recorder (Table 5.2)
}

// reply is the wire representation of a completed call.
type reply struct {
	id     uint64
	proc   ProcID // the serviced procedure (fault injectors classify by it)
	result any
	err    string
}

// IntrHandler services a request at interrupt level. It runs in engine
// context and must not block. It returns the result, any extra service cost
// to charge to the server CPU's interrupt context, and handled=false to
// fall back to the queued path (e.g. a lock was busy or I/O is needed).
type IntrHandler func(req *Request) (result any, cost sim.Time, handled bool, err error)

// QueuedHandler services a request in a server-pool task; it may block.
type QueuedHandler func(t *sim.Task, req *Request) (any, error)

type service struct {
	name       string
	intr       IntrHandler
	queued     QueuedHandler
	idempotent bool
}

// ServiceOption tunes a Register call.
type ServiceOption func(*service)

// Idempotent marks a service safe to retransmit: a lost request or reply
// makes the client retry with backoff instead of failing the call. The
// server-side dedup table suppresses re-execution of retransmits it has
// already serviced, so marked services need only tolerate duplicate
// *delivery*, not duplicate *execution*.
func Idempotent() ServiceOption {
	return func(s *service) { s.idempotent = true }
}

// dedupKey identifies a request for duplicate suppression: caller cell ids
// never repeat a call id, so (from, id) is stable across retransmissions.
type dedupKey struct {
	from int
	id   uint64
}

// dedupEntry is the server's memory of one serviced (or in-service)
// request; rep is nil while the original is still being serviced.
type dedupEntry struct {
	rep *reply
}

// Endpoint is one cell's RPC engine: it owns the service table, the
// outstanding-call map, and the queued-request server pool.
type Endpoint struct {
	M      *machine.Machine
	CellID int
	Procs  []*machine.Processor // this cell's processors
	Peers  map[int]*Endpoint    // all endpoints by cell, for addressing

	// HintSink receives failure-detection hints (timeouts, send errors).
	HintSink func(suspectCell int, reason string)
	// Timeout bounds calls from this endpoint; 0 means DefaultTimeout.
	Timeout sim.Time
	// Metrics records per-endpoint counters.
	Metrics *stats.Registry
	// Tracer records this cell's RPC events (nil no-ops; set by the cell
	// layer).
	Tracer *trace.Tracer

	eng       *sim.Engine
	services  map[ProcID]*service
	pending   map[uint64]*Request
	queue     *sim.Queue
	nextID    uint64
	rrProc    int
	poolSize  int
	dead      bool
	histCall  *stats.Histogram // end-to-end successful call latency (µs)
	seen      map[dedupKey]*dedupEntry
	seenOrder []dedupKey // FIFO eviction order for seen
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
		seen:     map[dedupKey]*dedupEntry{},
	}
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

// SetIncarnation stamps every future call id with a boot epoch. Dedup keys
// are (from, id) and rely on "caller cell ids never repeat a call id" —
// which must hold across reboots too: without the epoch, a rebooted cell's
// fresh endpoint would restart its ids at zero and peers would swallow its
// first calls (the join announcement among them) as retransmits of its
// previous incarnation's traffic.
func (ep *Endpoint) SetIncarnation(n int) {
	ep.nextID = uint64(n) << 48
}

// Connect wires two endpoints so they can address each other.
func Connect(eps ...*Endpoint) {
	for _, a := range eps {
		for _, b := range eps {
			a.Peers[b.CellID] = b
		}
	}
}

// Register installs handlers for proc. Either handler may be nil (nil intr
// means every request takes the queued path; nil queued means an unhandled
// interrupt-level request fails). Options mark service properties — in
// particular Idempotent, which enables client-side retransmission.
func (ep *Endpoint) Register(proc ProcID, name string, intr IntrHandler, queued QueuedHandler, opts ...ServiceOption) {
	svc := &service{name: name, intr: intr, queued: queued}
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

// Dead reports whether the endpoint has been shut down.
func (ep *Endpoint) Dead() bool { return ep.dead }

// PeerIDs returns every peer cell id ascending — the deterministic
// iteration order for broadcast-style callers (Peers is a map, and map
// order must never decide the sequence RPCs are issued in).
func (ep *Endpoint) PeerIDs() []int {
	out := make([]int, 0, len(ep.Peers))
	for c := range ep.Peers {
		out = append(out, c)
	}
	sort.Ints(out)
	return out
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
	DataBytes int              // total arg+result payload bytes (0 = null)
	Timeout   sim.Time         // overrides endpoint timeout
	Breakdown *stats.Breakdown // records component times (Table 5.2)
	NoHint    bool             // suppress failure hints (used by the prober)
}

// record charges a cost category both to the caller's CPU and the optional
// breakdown recorder.
func record(bd *stats.Breakdown, name string, d sim.Time) {
	if bd != nil {
		bd.Observe(name, d)
	}
}

// Call performs a synchronous RPC from task t (running on proc) to cell
// `to`. It returns the handler's result or an error; timeouts and send
// failures raise failure-detection hints unless suppressed.
func (ep *Endpoint) Call(t *sim.Task, proc *machine.Processor, to int, procID ProcID, args any, opts CallOpts) (any, error) {
	bd := opts.Breakdown
	callee, ok := ep.Peers[to]
	if !ok {
		return nil, fmt.Errorf("%w: unknown cell %d", ErrSendFailed, to)
	}
	ep.nextID++
	req := &Request{
		ID: ep.nextID, From: ep.CellID, To: to, Proc: procID,
		Args: args, DataBytes: opts.DataBytes,
		future: &sim.Future{}, bd: bd,
	}
	callStart := t.Now()
	req.Span = ep.Tracer.NextSpan()
	ep.Tracer.EmitSpan(callStart, trace.RPCSend, req.Span, int64(to), int64(procID), "")

	// Client stub: marshal args into the SIPS line.
	stub := ClientSendStub
	if opts.DataBytes > 0 {
		stub += ExtraStubReal / 2
	}
	proc.Use(t, stub)
	record(bd, "client stub (send)", stub)

	// Oversize arguments: allocate arg memory and copy through shared
	// memory (half the cost on the client side).
	if opts.DataBytes > machine.SIPSLineBytes {
		proc.Use(t, AllocFreeArgMem/2+CopySharedMem/2)
		record(bd, "alloc/free arg memory (client half)", AllocFreeArgMem/2)
		record(bd, "arg copy through shared memory (client half)", CopySharedMem/2)
	}

	ep.pending[req.ID] = req
	defer delete(ep.pending, req.ID)

	timeout := opts.Timeout
	if timeout == 0 {
		timeout = ep.Timeout
	}
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
		dst := callee.nextProc()
		msg := &machine.SIPSMsg{To: dst.ID, Kind: machine.SIPSRequest, Size: machine.SIPSLineBytes, Payload: req}
		sendStart := t.Now()
		if err := ep.M.SendSIPS(t, proc, msg); err != nil {
			ep.Metrics.Counter("rpc.send_failures").Inc()
			ep.Tracer.EmitSpan(t.Now(), trace.RPCTimeout, req.Span, int64(to), int64(procID), "")
			if !opts.NoHint && ep.HintSink != nil {
				ep.HintSink(to, "rpc send bus error")
			}
			return nil, fmt.Errorf("%w to cell %d: %v", ErrSendFailed, to, err)
		}
		if attempt == 0 {
			record(bd, "hardware message launch", t.Now()-sendStart)
			ep.Metrics.Counter("rpc.calls").Inc()
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
			ep.Metrics.Counter("rpc.spin_timeouts").Inc()
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
		// server's dedup table suppresses re-execution, so the retry is
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
		return nil, fmt.Errorf("%w: cell %d proc %d", ErrShutdown, to, procID)
	}
	if !ok2 {
		ep.Metrics.Counter("rpc.timeouts").Inc()
		ep.Tracer.EmitSpan(t.Now(), trace.RPCTimeout, req.Span, int64(to), int64(procID), "")
		if !opts.NoHint && ep.HintSink != nil {
			ep.HintSink(to, "rpc timeout")
		}
		return nil, fmt.Errorf("%w: cell %d proc %d", ErrTimeout, to, procID)
	}

	rep := val.(*reply)
	// Client stub: unmarshal the reply.
	stub = ClientRecvStub
	if opts.DataBytes > 0 {
		stub += ExtraStubReal / 2
	}
	proc.Use(t, stub)
	record(bd, "client stub (receive)", stub)
	ep.Tracer.EmitSpan(t.Now(), trace.RPCReply, req.Span, int64(to), int64(procID), "")
	ep.histCall.ObserveTime(t.Now() - callStart)
	if rep.err != "" {
		return rep.result, errors.New(rep.err)
	}
	return rep.result, nil
}

// onSIPS is the hardware receive handler: it runs in interrupt context on
// the addressed processor.
func (ep *Endpoint) onSIPS(msg *machine.SIPSMsg) {
	if ep.dead {
		return
	}
	switch msg.Kind {
	case machine.SIPSRequest:
		ep.handleRequest(msg)
	case machine.SIPSReply:
		rep := msg.Payload.(*reply)
		if req, ok := ep.pending[rep.id]; ok {
			if req.future.Ready() {
				// A wire-duplicated reply for a call still unwinding:
				// the first copy already resolved the future.
				ep.Metrics.Counter("rpc.dup_replies").Inc()
				ep.Tracer.EmitSpan(ep.eng.Now(), trace.RPCDedup, req.Span, int64(req.To), 0, "dup-reply")
				return
			}
			req.future.Set(rep, nil)
		} else {
			// The caller already timed out (or this is a duplicate of a
			// reply that landed): call ids are never reused, so a late
			// reply can only be discarded, never delivered to a later
			// call.
			ep.Metrics.Counter("rpc.stale_replies").Inc()
			ep.Tracer.Emit(ep.eng.Now(), trace.RPCDedup, -1, 0, "stale-reply")
		}
	}
}

// remember inserts a fresh dedup entry for key, evicting the oldest entry
// once the table is full.
func (ep *Endpoint) remember(key dedupKey) *dedupEntry {
	if len(ep.seenOrder) >= dedupCap {
		delete(ep.seen, ep.seenOrder[0])
		ep.seenOrder = ep.seenOrder[1:]
	}
	ent := &dedupEntry{}
	ep.seen[key] = ent
	ep.seenOrder = append(ep.seenOrder, key)
	return ent
}

// noteServed caches the reply for a serviced request so a retransmit can be
// answered without re-execution.
func (ep *Endpoint) noteServed(req *Request, rep *reply) {
	if ent, ok := ep.seen[dedupKey{req.From, req.ID}]; ok {
		ent.rep = rep
	}
}

// handleRequest runs the interrupt-level service path.
func (ep *Endpoint) handleRequest(msg *machine.SIPSMsg) {
	req := msg.Payload.(*Request)
	proc := ep.M.Procs[msg.To]
	svc := ep.services[req.Proc]
	ep.Tracer.EmitSpan(ep.eng.Now(), trace.RPCRecv, req.Span, int64(req.From), int64(req.Proc), "")

	// Interrupt entry + demux.
	base := IntrEntryExit + ServerDispatch
	if req.DataBytes > 0 {
		base += ExtraHWReal
	}

	// Duplicate suppression: a retransmitted (or wire-duplicated) request
	// that was already serviced is answered from the cached reply without
	// re-executing the handler; one still in service is dropped — the
	// original's reply will resolve the caller's future, since the call
	// id is unchanged across retransmissions.
	key := dedupKey{req.From, req.ID}
	if ent, dup := ep.seen[key]; dup {
		ep.Metrics.Counter("rpc.dup_requests").Inc()
		ep.Tracer.EmitSpan(ep.eng.Now(), trace.RPCDedup, req.Span, int64(req.From), 0, "dup-request")
		if ent.rep != nil {
			rep := ent.rep
			proc.Interrupt(base, func() { ep.resend(proc, req, rep) })
		}
		return
	}
	ep.remember(key)

	if svc == nil {
		proc.Interrupt(base, func() {
			ep.reply(proc, req, nil, ErrNoService, 0)
		})
		return
	}
	if svc.intr == nil {
		// Straight to the queued path.
		proc.Interrupt(base, func() { ep.enqueue(req) })
		return
	}

	proc.Interrupt(base, func() {
		record(req.bd, "server dispatch", base)
		result, cost, handled, err := svc.intr(req)
		if !handled {
			if svc.queued == nil {
				ep.reply(proc, req, nil, ErrBadRequest, 0)
				return
			}
			ep.Metrics.Counter("rpc.intr_fallbacks").Inc()
			ep.enqueue(req)
			return
		}
		ep.Metrics.Counter("rpc.intr_served").Inc()
		ep.reply(proc, req, result, err, cost)
	})
}

// reply sends the reply from interrupt context after charging the service
// cost and reply construction.
func (ep *Endpoint) reply(proc *machine.Processor, req *Request, result any, err error, serviceCost sim.Time) {
	cost := serviceCost + ServerReply
	if req.DataBytes > machine.SIPSLineBytes {
		// Server half of the copy/alloc costs.
		cost += AllocFreeArgMem/2 + CopySharedMem/2
		record(req.bd, "alloc/free arg memory (server half)", AllocFreeArgMem/2)
		record(req.bd, "arg copy through shared memory (server half)", CopySharedMem/2)
	}
	record(req.bd, "server service", serviceCost)
	record(req.bd, "server reply", ServerReply)
	rep := &reply{id: req.ID, proc: req.Proc}
	rep.result = result
	if err != nil {
		rep.err = err.Error()
	}
	ep.noteServed(req, rep)
	caller := ep.Peers[req.From]
	if caller == nil {
		return
	}
	proc.Interrupt(cost, func() {
		ep.Tracer.EmitSpan(ep.eng.Now(), trace.RPCReply, req.Span, int64(req.From), int64(req.Proc), "")
		dst := caller.nextProc()
		ep.M.SendSIPSAsync(proc, &machine.SIPSMsg{
			To: dst.ID, Kind: machine.SIPSReply, Size: machine.SIPSLineBytes, Payload: rep,
		})
	})
}

// resend answers a retransmitted request from the dedup cache: reply
// construction and launch costs are paid again, the service itself is not
// re-executed.
func (ep *Endpoint) resend(proc *machine.Processor, req *Request, rep *reply) {
	caller := ep.Peers[req.From]
	if caller == nil {
		return
	}
	proc.Interrupt(ServerReply, func() {
		ep.Tracer.EmitSpan(ep.eng.Now(), trace.RPCReply, req.Span, int64(req.From), int64(req.Proc), "")
		dst := caller.nextProc()
		ep.M.SendSIPSAsync(proc, &machine.SIPSMsg{
			To: dst.ID, Kind: machine.SIPSReply, Size: machine.SIPSLineBytes, Payload: rep,
		})
	})
}

// enqueue hands a request to the server pool.
func (ep *Endpoint) enqueue(req *Request) {
	ep.Metrics.Counter("rpc.queued").Inc()
	ep.queue.Push(req)
}

// serverLoop is one server-pool task: it dequeues requests, pays the
// context-switch and synchronization costs that dominate the 34 µs queued
// null RPC, runs the (possibly blocking) handler, and sends the completion.
func (ep *Endpoint) serverLoop(t *sim.Task) {
	for {
		v, ok := ep.queue.Pop(t)
		if !ok {
			return
		}
		req := v.(*Request)
		proc := ep.serverProc()
		if proc == nil {
			return // all processors halted; cell is dead
		}
		proc.Use(t, ContextSwitch+QueueSync)
		svc := ep.services[req.Proc]
		var result any
		var err error
		if svc == nil || svc.queued == nil {
			err = ErrNoService
		} else {
			result, err = svc.queued(t, req)
		}
		if ep.dead {
			return
		}
		proc = ep.serverProc()
		if proc == nil {
			return
		}
		// Completion RPC back to the client.
		rep := &reply{id: req.ID, proc: req.Proc, result: result}
		if err != nil {
			rep.err = err.Error()
		}
		ep.noteServed(req, rep)
		caller := ep.Peers[req.From]
		if caller == nil {
			continue
		}
		proc.Use(t, ServerReply)
		ep.Tracer.EmitSpan(t.Now(), trace.RPCReply, req.Span, int64(req.From), int64(req.Proc), "")
		dst := caller.nextProc()
		ep.M.SendSIPS(t, proc, &machine.SIPSMsg{
			To: dst.ID, Kind: machine.SIPSReply, Size: machine.SIPSLineBytes, Payload: rep,
		})
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
		return MsgMeta{ID: p.id, Proc: p.proc, IsReply: true}, true
	}
	return MsgMeta{}, false
}
