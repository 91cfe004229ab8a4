package rpc

import (
	"fmt"
	"hash/fnv"
	"slices"
	"strings"
	"testing"

	"repro/internal/machine"
	"repro/internal/sim"
	"repro/internal/trace"
)

const (
	procEchoIdem ProcID = 60 + iota
	procLate
)

// registerEcho installs an idempotent interrupt-level echo on ep: the
// result is the request's Args, and the by-value result its Arg.
func registerEcho(ep *Endpoint) {
	ep.Register(procEchoIdem, "echo",
		func(_ *sim.Task, req *Request) (any, sim.Time, error) {
			req.Result = req.Arg
			return req.Args, 0, nil
		}, Idempotent())
}

// echo makes echo call n from cell 0 and checks that it returns its own
// result, by reference and by value.
func (f *fixture) echo(t *testing.T, tk *sim.Task, n int) {
	t.Helper()
	got, res, err := f.eps[0].Call(tk, f.m.Procs[0], 1, procEchoIdem, n,
		CallOpts{DataBytes: 8, Arg: Line{W: [3]int64{int64(n)}}})
	if err != nil || got != n || res.W[0] != int64(n) {
		t.Errorf("echo %d returned %v, %v, %v", n, got, res.W, err)
	}
}

// traceDigest hashes every event of the run, one rendered line each.
func traceDigest(s *trace.Set) uint64 {
	h := fnv.New64a()
	for _, e := range s.Merged() {
		fmt.Fprintln(h, e.String())
	}
	return h.Sum64()
}

// faultRun is what one faulted call left behind.
type faultRun struct {
	dupRequests, dupReplies, staleReplies, retries int64
	digest                                         uint64
}

// runFaulted makes a clean echo call, whose request goes on cell 0's
// freelist, then the faulted call, which takes that request. The next
// echo follows at once, while lines of the faulted call may still be in
// flight, and one more after they have landed. It checks that the faulted
// request never goes back on the freelist and that both echoes get their
// own results, and returns the counters and the trace digest.
func runFaulted(t *testing.T, faulted func(f *fixture, tk *sim.Task)) faultRun {
	t.Helper()
	f := newFixture(t, 2)
	for _, ep := range f.eps {
		registerEcho(ep)
	}
	f.eps[1].Register(procLate, "late",
		func(t *sim.Task, req *Request) (any, sim.Time, error) {
			t.Sleep(5 * sim.Millisecond)
			return "late", 0, nil
		}, Queued())
	s := trace.NewSet(len(f.eps), 1<<12)
	for _, ep := range f.eps {
		ep.Tracer = s.Tracer(ep.CellID)
		f.m.Trace = append(f.m.Trace, ep.Tracer)
	}
	var req *Request
	f.run(t, func(tk *sim.Task) {
		f.echo(t, tk, 1)
		if len(f.eps[0].freeReqs) != 1 {
			t.Fatalf("a clean call left %d requests on the freelist, want 1", len(f.eps[0].freeReqs))
		}
		req = f.eps[0].freeReqs[0]
		faulted(f, tk)
		f.m.FaultHook = nil
		f.echo(t, tk, 3)
		tk.Sleep(10 * sim.Millisecond)
		f.echo(t, tk, 4)
	})
	if len(f.eps[0].freeReqs) != 1 || slices.Contains(f.eps[0].freeReqs, req) || req.recycled {
		t.Errorf("the faulted request went back on the freelist (%d free)", len(f.eps[0].freeReqs))
	}
	c0, c1 := f.eps[0].Metrics, f.eps[1].Metrics
	return faultRun{
		dupRequests:  c1.Counter("rpc.dup_requests").Value(),
		dupReplies:   c0.Counter("rpc.dup_replies").Value(),
		staleReplies: c0.Counter("rpc.stale_replies").Value(),
		retries:      c0.Counter("rpc.retries").Value(),
		digest:       traceDigest(s),
	}
}

// faultFirst returns a fault hook that applies fault (delayed by delay)
// to the first request or reply line it sees.
func faultFirst(reply bool, fault machine.MsgFault, delay sim.Time) func(*machine.SIPSMsg) machine.MsgFaultDecision {
	done := false
	return func(msg *machine.SIPSMsg) machine.MsgFaultDecision {
		if meta, ok := ClassifySIPS(msg); ok && meta.IsReply == reply && !done {
			done = true
			return machine.MsgFaultDecision{Fault: fault, Delay: delay}
		}
		return machine.MsgFaultDecision{}
	}
}

// echoUnder makes echo call 2 with hook set on the machine.
func echoUnder(t *testing.T, hook func(*machine.SIPSMsg) machine.MsgFaultDecision) func(*fixture, *sim.Task) {
	return func(f *fixture, tk *sim.Task) {
		f.m.FaultHook = hook
		f.echo(t, tk, 2)
	}
}

// The counters and trace digests below are those of the same runs before
// requests were recycled: recycling moves nothing simulated.

func TestDupRequestLineNotRecycled(t *testing.T) {
	got := runFaulted(t, echoUnder(t, faultFirst(false, machine.FaultDup, 0)))
	want := faultRun{dupRequests: 1, staleReplies: 1, digest: 0x49c1049206f88706}
	if got != want {
		t.Errorf("got %+v, want %+v", got, want)
	}
}

func TestDupReplyLineNotRecycled(t *testing.T) {
	got := runFaulted(t, echoUnder(t, faultFirst(true, machine.FaultDup, 0)))
	want := faultRun{dupReplies: 1, digest: 0x7b41e684b745f39c}
	if got != want {
		t.Errorf("got %+v, want %+v", got, want)
	}
}

func TestReplyDelayedPastRetryNotRecycled(t *testing.T) {
	got := runFaulted(t, echoUnder(t, faultFirst(true, machine.FaultDelay, 2*RetryBaseTimeout)))
	want := faultRun{dupRequests: 1, staleReplies: 1, retries: 1, digest: 0xaae7150500d2a3d7}
	if got != want {
		t.Errorf("got %+v, want %+v", got, want)
	}
}

func TestDroppedRequestNotRecycled(t *testing.T) {
	got := runFaulted(t, echoUnder(t, faultFirst(false, machine.FaultDrop, 0)))
	want := faultRun{retries: 1, digest: 0x61cdf1c26256f205}
	if got != want {
		t.Errorf("got %+v, want %+v", got, want)
	}
}

func TestStaleReplyNotRecycled(t *testing.T) {
	got := runFaulted(t, func(f *fixture, tk *sim.Task) {
		_, _, err := f.eps[0].Call(tk, f.m.Procs[0], 1, procLate, nil,
			CallOpts{Timeout: sim.Millisecond, NoHint: true})
		if err == nil || !strings.Contains(err.Error(), "timed out") {
			t.Errorf("late call: %v, want a timeout", err)
		}
	})
	want := faultRun{staleReplies: 1, digest: 0xedba2c125be8e458}
	if got != want {
		t.Errorf("got %+v, want %+v", got, want)
	}
}

// TestUnfaultedLinesRecycle checks that a fault hook which faults no line
// costs no recycling: calls whose every line passed the hook as FaultNone,
// served at interrupt level and on the queued path, all reuse the one
// request on the caller's freelist.
func TestUnfaultedLinesRecycle(t *testing.T) {
	f := newFixture(t, 2)
	for _, ep := range f.eps {
		registerEcho(ep)
	}
	f.eps[1].Register(procQueuedNull, "queued-null",
		func(t *sim.Task, req *Request) (any, sim.Time, error) { return nil, 0, nil }, Queued())
	lines := 0
	f.m.FaultHook = func(*machine.SIPSMsg) machine.MsgFaultDecision {
		lines++
		return machine.MsgFaultDecision{Fault: machine.FaultNone}
	}
	f.run(t, func(tk *sim.Task) {
		f.echo(t, tk, 1)
		if len(f.eps[0].freeReqs) != 1 {
			t.Fatalf("an unfaulted call left %d requests on the freelist, want 1", len(f.eps[0].freeReqs))
		}
		req := f.eps[0].freeReqs[0]
		f.echo(t, tk, 2)
		if _, _, err := f.eps[0].Call(tk, f.m.Procs[0], 1, procQueuedNull, nil, CallOpts{}); err != nil {
			t.Errorf("queued call: %v", err)
		}
		if len(f.eps[0].freeReqs) != 1 || f.eps[0].freeReqs[0] != req {
			t.Errorf("later unfaulted calls did not reuse the first call's request (%d free)", len(f.eps[0].freeReqs))
		}
	})
	if lines != 6 {
		t.Errorf("the hook saw %d lines, want 6: a request and a reply per call", lines)
	}
}

// TestRemoteErrorOutlivesItsRequest checks that an error Call returned
// keeps its text after the next call reuses the request it came in.
func TestRemoteErrorOutlivesItsRequest(t *testing.T) {
	f := newFixture(t, 2)
	n := 0
	f.eps[1].Register(procEcho, "fail",
		func(_ *sim.Task, req *Request) (any, sim.Time, error) {
			n++
			return nil, 0, fmt.Errorf("failure %d", n)
		})
	f.run(t, func(tk *sim.Task) {
		_, _, first := f.eps[0].Call(tk, f.m.Procs[0], 1, procEcho, nil, CallOpts{})
		req := f.eps[0].freeReqs[0]
		_, _, second := f.eps[0].Call(tk, f.m.Procs[0], 1, procEcho, nil, CallOpts{})
		if len(f.eps[0].freeReqs) != 1 || f.eps[0].freeReqs[0] != req {
			t.Fatal("the second call did not reuse the first call's request")
		}
		if first == nil || first.Error() != "failure 1" || second == nil || second.Error() != "failure 2" {
			t.Errorf("errors = %v, %v; want failure 1, failure 2", first, second)
		}
	})
}

// mustPanic runs hand and reports whether it panicked over a recycled
// request.
func mustPanic(t *testing.T, name string, hand func()) {
	t.Helper()
	defer func() {
		if r := recover(); r == nil || !strings.Contains(fmt.Sprint(r), "recycled Request") {
			t.Errorf("%s handed a recycled request: recovered %v, want its panic", name, r)
		}
	}()
	hand()
}

// TestRecycledRequestPanics hands a request from the freelist to every
// wire path, each of which must refuse it.
func TestRecycledRequestPanics(t *testing.T) {
	f := newFixture(t, 2)
	registerNull(f.eps[1])
	f.run(t, f.nullCalls(t, 1))
	req := f.eps[0].freeReqs[0]
	client, server := f.eps[0], f.eps[1]
	proc := f.m.Procs[1]
	mustPanic(t, "handleRequest", func() { server.handleRequest(proc, req) })
	mustPanic(t, "serve", func() { server.serve(proc, req) })
	mustPanic(t, "resend", func() { server.resend(proc, req) })
	mustPanic(t, "launch", func() { server.launch(proc, req) })
	mustPanic(t, "the client's reply path", func() {
		client.onSIPS(f.m.Procs[0], &machine.SIPSMsg{Kind: machine.SIPSReply, Payload: &req.rep})
	})
	mustPanic(t, "serverLoop", func() {
		server.queue.Push(req)
		f.e.Run(0)
	})
}
