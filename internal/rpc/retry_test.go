package rpc

import (
	"errors"
	"fmt"
	"testing"

	"repro/internal/machine"
	"repro/internal/sim"
)

const (
	procIdem ProcID = 50 + iota
	procSleepy
)

// registerIdem installs an idempotent interrupt-level service on ep that
// counts executions.
func registerIdem(ep *Endpoint, executions *int) {
	ep.Register(procIdem, "idem",
		func(_ *sim.Task, req *Request) (any, sim.Time, error) {
			*executions++
			return "ok", 0, nil
		}, Idempotent())
}

func TestRetryRecoversDroppedRequest(t *testing.T) {
	f := newFixture(t, 2)
	executions := 0
	registerIdem(f.eps[0], &executions) // client table: idempotence lookup
	registerIdem(f.eps[1], &executions)
	dropped := false
	f.m.FaultHook = func(msg *machine.SIPSMsg) machine.MsgFaultDecision {
		if meta, ok := ClassifySIPS(msg); ok && !meta.IsReply && !dropped {
			dropped = true
			return machine.MsgFaultDecision{Fault: machine.FaultDrop}
		}
		return machine.MsgFaultDecision{}
	}
	f.run(t, func(tk *sim.Task) {
		got, _, err := f.eps[0].Call(tk, f.m.Procs[0], 1, procIdem, nil, CallOpts{})
		if err != nil || got != "ok" {
			t.Errorf("call after drop: %v, %v", got, err)
		}
	})
	if !dropped {
		t.Fatal("fault hook never fired")
	}
	if n := f.eps[0].Metrics.Counter("rpc.retries").Value(); n != 1 {
		t.Fatalf("rpc.retries = %d, want 1", n)
	}
	if executions != 1 {
		t.Fatalf("service executed %d times", executions)
	}
}

func TestDroppedReplyRetriesWithoutReExecution(t *testing.T) {
	// The reply is lost, so the request WAS serviced: the retransmit must
	// be answered from the server's dedup cache, not re-executed.
	f := newFixture(t, 2)
	executions := 0
	registerIdem(f.eps[0], &executions)
	registerIdem(f.eps[1], &executions)
	dropped := false
	f.m.FaultHook = func(msg *machine.SIPSMsg) machine.MsgFaultDecision {
		if meta, ok := ClassifySIPS(msg); ok && meta.IsReply && !dropped {
			dropped = true
			return machine.MsgFaultDecision{Fault: machine.FaultDrop}
		}
		return machine.MsgFaultDecision{}
	}
	f.run(t, func(tk *sim.Task) {
		got, _, err := f.eps[0].Call(tk, f.m.Procs[0], 1, procIdem, nil, CallOpts{})
		if err != nil || got != "ok" {
			t.Errorf("call after reply drop: %v, %v", got, err)
		}
	})
	if executions != 1 {
		t.Fatalf("service executed %d times, want 1 (dedup answers the retransmit)", executions)
	}
	if n := f.eps[1].Metrics.Counter("rpc.dup_requests").Value(); n != 1 {
		t.Fatalf("rpc.dup_requests = %d, want 1", n)
	}
}

func TestDuplicatedRequestNotReExecuted(t *testing.T) {
	// Wire duplication (not loss): the duplicate lands while or after the
	// original is serviced; the handler must run once.
	f := newFixture(t, 2)
	executions := 0
	registerIdem(f.eps[0], &executions)
	registerIdem(f.eps[1], &executions)
	duped := false
	f.m.FaultHook = func(msg *machine.SIPSMsg) machine.MsgFaultDecision {
		if meta, ok := ClassifySIPS(msg); ok && !meta.IsReply && !duped {
			duped = true
			return machine.MsgFaultDecision{Fault: machine.FaultDup}
		}
		return machine.MsgFaultDecision{}
	}
	f.run(t, func(tk *sim.Task) {
		got, _, err := f.eps[0].Call(tk, f.m.Procs[0], 1, procIdem, nil, CallOpts{})
		if err != nil || got != "ok" {
			t.Errorf("call under dup: %v, %v", got, err)
		}
	})
	if executions != 1 {
		t.Fatalf("service executed %d times, want 1", executions)
	}
	if n := f.eps[1].Metrics.Counter("rpc.dup_requests").Value(); n != 1 {
		t.Fatalf("rpc.dup_requests = %d, want 1", n)
	}
}

func TestDuplicatedReplyDiscarded(t *testing.T) {
	f := newFixture(t, 2)
	executions := 0
	registerIdem(f.eps[0], &executions)
	registerIdem(f.eps[1], &executions)
	duped := false
	f.m.FaultHook = func(msg *machine.SIPSMsg) machine.MsgFaultDecision {
		if meta, ok := ClassifySIPS(msg); ok && meta.IsReply && !duped {
			duped = true
			return machine.MsgFaultDecision{Fault: machine.FaultDup}
		}
		return machine.MsgFaultDecision{}
	}
	f.run(t, func(tk *sim.Task) {
		got, _, err := f.eps[0].Call(tk, f.m.Procs[0], 1, procIdem, nil, CallOpts{})
		if err != nil || got != "ok" {
			t.Errorf("call under reply dup: %v, %v", got, err)
		}
	})
	// The second copy arrives one wire latency after the first: either the
	// call is still unwinding (dup_replies) or it already returned and the
	// id is gone (stale_replies). Both mean "discarded, not delivered".
	dup := f.eps[0].Metrics.Counter("rpc.dup_replies").Value()
	stale := f.eps[0].Metrics.Counter("rpc.stale_replies").Value()
	if dup+stale != 1 {
		t.Fatalf("dup_replies=%d stale_replies=%d, want exactly one discard", dup, stale)
	}
	if executions != 1 {
		t.Fatalf("service executed %d times", executions)
	}
}

func TestNonIdempotentCallFailsFastOnDrop(t *testing.T) {
	// Services not marked Idempotent keep the paper's behavior: no
	// retransmission — a lost request is a timeout (a failure hint), never
	// a silent double execution.
	f := newFixture(t, 2)
	executions := 0
	f.eps[1].Register(procSleepy, "non-idem",
		func(_ *sim.Task, req *Request) (any, sim.Time, error) {
			executions++
			return nil, 0, nil
		})
	f.m.FaultHook = func(msg *machine.SIPSMsg) machine.MsgFaultDecision {
		if meta, ok := ClassifySIPS(msg); ok && !meta.IsReply {
			return machine.MsgFaultDecision{Fault: machine.FaultDrop}
		}
		return machine.MsgFaultDecision{}
	}
	var elapsed sim.Time
	f.run(t, func(tk *sim.Task) {
		start := tk.Now()
		_, _, err := f.eps[0].Call(tk, f.m.Procs[0], 1, procSleepy, nil,
			CallOpts{Timeout: 2 * sim.Millisecond, NoHint: true})
		elapsed = tk.Now() - start
		if !errors.Is(err, ErrTimeout) {
			t.Errorf("err = %v, want ErrTimeout", err)
		}
	})
	if n := f.eps[0].Metrics.Counter("rpc.retries").Value(); n != 0 {
		t.Fatalf("non-idempotent call retried %d times", n)
	}
	if executions != 0 {
		t.Fatalf("dropped request executed %d times", executions)
	}
	if elapsed < 2*sim.Millisecond {
		t.Fatalf("failed before the timeout: %v", elapsed)
	}
}

func TestRetryBackoffExhaustsToTimeout(t *testing.T) {
	// Everything is dropped: the idempotent caller retransmits with
	// backoff, then fails at exactly the original call budget — retries
	// never accuse a server faster than a single-attempt call would.
	f := newFixture(t, 2)
	executions := 0
	registerIdem(f.eps[0], &executions)
	registerIdem(f.eps[1], &executions)
	f.m.FaultHook = func(msg *machine.SIPSMsg) machine.MsgFaultDecision {
		return machine.MsgFaultDecision{Fault: machine.FaultDrop}
	}
	const budget = 10 * sim.Millisecond
	var elapsed sim.Time
	hints := 0
	f.eps[0].HintSink = func(cell int, reason string) { hints++ }
	f.run(t, func(tk *sim.Task) {
		start := tk.Now()
		_, _, err := f.eps[0].Call(tk, f.m.Procs[0], 1, procIdem, nil, CallOpts{Timeout: budget})
		elapsed = tk.Now() - start
		if !errors.Is(err, ErrTimeout) {
			t.Errorf("err = %v, want ErrTimeout", err)
		}
	})
	if n := f.eps[0].Metrics.Counter("rpc.retries").Value(); n != RetryMaxAttempts-1 {
		t.Fatalf("rpc.retries = %d, want %d", n, RetryMaxAttempts-1)
	}
	if elapsed < budget {
		t.Fatalf("gave up after %v, before the %v budget", elapsed, budget)
	}
	if hints != 1 {
		t.Fatalf("hints = %d, want 1 (one failure hint per failed call)", hints)
	}
}

func TestLateReplyDiscardedAndIDsNeverReused(t *testing.T) {
	// A reply that arrives after its call timed out must be discarded —
	// and because call ids are never reused, it can never be delivered to
	// a later call.
	f := newFixture(t, 2)
	f.eps[1].Register(procSleepy, "sleepy",
		func(t *sim.Task, req *Request) (any, sim.Time, error) {
			t.Sleep(5 * sim.Millisecond)
			return "late", 0, nil
		}, Queued())
	registerNull(f.eps[1])
	f.run(t, func(tk *sim.Task) {
		_, _, err := f.eps[0].Call(tk, f.m.Procs[0], 1, procSleepy, nil,
			CallOpts{Timeout: sim.Millisecond, NoHint: true})
		if !errors.Is(err, ErrTimeout) {
			t.Errorf("err = %v, want ErrTimeout", err)
		}
		// A fresh call while the late reply is still in flight: it must
		// complete with its own result, untouched by the late reply.
		got, _, err := f.eps[0].Call(tk, f.m.Procs[0], 1, procNull, nil, CallOpts{})
		if err != nil || got != nil {
			t.Errorf("fresh call: %v, %v", got, err)
		}
		tk.Sleep(10 * sim.Millisecond) // let the late reply land
	})
	if n := f.eps[0].Metrics.Counter("rpc.stale_replies").Value(); n != 1 {
		t.Fatalf("rpc.stale_replies = %d, want 1", n)
	}
}

func TestShutdownMidCallReturnsCleanError(t *testing.T) {
	// The calling endpoint is shut down (cell panic) while a call is
	// outstanding: the caller gets ErrShutdown immediately — not a 100 ms
	// timeout accusing the healthy callee — and no failure hint is raised.
	f := newFixture(t, 2)
	f.eps[1].Register(procSleepy, "sleepy",
		func(t *sim.Task, req *Request) (any, sim.Time, error) {
			t.Sleep(5 * sim.Millisecond)
			return nil, 0, nil
		}, Queued())
	hints := 0
	f.eps[0].HintSink = func(cell int, reason string) { hints++ }
	f.e.At(sim.Millisecond, func() { f.eps[0].Shutdown() })
	var elapsed sim.Time
	f.run(t, func(tk *sim.Task) {
		start := tk.Now()
		_, _, err := f.eps[0].Call(tk, f.m.Procs[0], 1, procSleepy, nil, CallOpts{})
		elapsed = tk.Now() - start
		if !errors.Is(err, ErrShutdown) {
			t.Errorf("err = %v, want ErrShutdown", err)
		}
	})
	if elapsed > 2*sim.Millisecond {
		t.Fatalf("shutdown abort took %v, want immediate", elapsed)
	}
	if hints != 0 {
		t.Fatalf("shutdown raised %d failure hints against a healthy callee", hints)
	}
	if n := f.eps[0].Metrics.Counter("rpc.shutdown_aborts").Value(); n != 1 {
		t.Fatalf("rpc.shutdown_aborts = %d", n)
	}
}

// newWideFixture builds two cells of two processors each (cell 0 on
// processors 0 and 1, cell 1 on 2 and 3), so consecutive lines to one
// cell go to different processors.
func newWideFixture(t testing.TB) *fixture {
	t.Helper()
	e := sim.NewEngine(11)
	cfg := machine.DefaultConfig()
	cfg.Nodes = 4
	cfg.MemPerNodeMB = 1
	m := machine.New(e, cfg)
	f := &fixture{e: e, m: m}
	for c := 0; c < 2; c++ {
		procs := []*machine.Processor{m.Procs[2*c], m.Procs[2*c+1]}
		f.eps = append(f.eps, NewEndpoint(m, c, procs, 2))
	}
	Connect(f.eps...)
	return f
}

// line is one SIPS line a fault hook saw launched: the line object, the
// processor it was addressed to then, and the one it reached, if any.
type line struct {
	msg      *machine.SIPSMsg
	to, onto int
}

// watchLines records every RPC line of kind reply (or request) that the
// fault hook sees, delaying the first by delay, and notes the processor
// each one is delivered to.
func watchLines(f *fixture, reply bool, delay sim.Time) *[]line {
	var lines []line
	f.m.FaultHook = func(msg *machine.SIPSMsg) machine.MsgFaultDecision {
		if meta, ok := ClassifySIPS(msg); !ok || meta.IsReply != reply {
			return machine.MsgFaultDecision{}
		}
		lines = append(lines, line{msg: msg, to: msg.To, onto: -1})
		if len(lines) == 1 {
			return machine.MsgFaultDecision{Fault: machine.FaultDelay, Delay: delay}
		}
		return machine.MsgFaultDecision{}
	}
	for _, n := range f.m.Nodes {
		onSIPS := n.OnSIPS
		n.OnSIPS = func(p *machine.Processor, arg any) {
			for i := range lines {
				if lines[i].msg == arg {
					lines[i].onto = p.ID
				}
			}
			onSIPS(p, arg)
		}
	}
	return &lines
}

// checkLines asserts two distinct lines were launched to different
// processors and the delayed first one reached the processor it was
// addressed to at launch, still carrying that address.
func checkLines(t *testing.T, lines []line) {
	t.Helper()
	if len(lines) != 2 {
		t.Fatalf("hook saw %d lines, want 2", len(lines))
	}
	first, second := lines[0], lines[1]
	if first.msg == second.msg {
		t.Fatal("the second launch reused the line still in flight")
	}
	if first.to == second.to {
		t.Fatalf("both lines addressed to processor %d; the fixture must alternate", first.to)
	}
	if first.onto != first.to || first.msg.To != first.to {
		t.Fatalf("delayed line addressed to %d reached %d carrying To=%d",
			first.to, first.onto, first.msg.To)
	}
}

func TestRetryTakesFreshLine(t *testing.T) {
	// The first request line is delayed past the first attempt's budget,
	// so it and the retry are in flight at once: each needs its own line.
	f := newWideFixture(t)
	executions := 0
	registerIdem(f.eps[0], &executions)
	registerIdem(f.eps[1], &executions)
	lines := watchLines(f, false, 2*RetryBaseTimeout)
	f.run(t, func(tk *sim.Task) {
		got, _, err := f.eps[0].Call(tk, f.m.Procs[0], 1, procIdem, nil, CallOpts{})
		if err != nil || got != "ok" {
			t.Errorf("call with a delayed first line: %v, %v", got, err)
		}
	})
	checkLines(t, *lines)
	if executions != 1 {
		t.Fatalf("service executed %d times, want 1", executions)
	}
}

func TestReplyResendTakesFreshLine(t *testing.T) {
	// The first reply line is delayed past the retry budget, so the
	// client retries and the server resends the reply while the first
	// line is still in flight: the resend takes its own line, carrying
	// the same reply.
	f := newWideFixture(t)
	executions := 0
	registerIdem(f.eps[0], &executions)
	registerIdem(f.eps[1], &executions)
	lines := watchLines(f, true, 2*RetryBaseTimeout)
	f.run(t, func(tk *sim.Task) {
		got, _, err := f.eps[0].Call(tk, f.m.Procs[0], 1, procIdem, nil, CallOpts{})
		if err != nil || got != "ok" {
			t.Errorf("call with a delayed reply: %v, %v", got, err)
		}
	})
	checkLines(t, *lines)
	if a, b := (*lines)[0].msg.Payload, (*lines)[1].msg.Payload; a != b {
		t.Fatalf("the resend carries reply %p, the first line %p", b, a)
	}
	if executions != 1 {
		t.Fatalf("service executed %d times, want 1", executions)
	}
}

func TestReServiceAfterEvictionKeepsFirstReply(t *testing.T) {
	// The first request line is delayed 100 ms, past the retry the server
	// serves. While fewer than dedupCap other requests have reached the
	// server since that retry, the delayed line is a duplicate, answered
	// with the first reply. From the dedupCap-th on the request has left
	// the server's window, as it has for a server endpoint rebuilt in
	// between: the server executes it again, into a fresh reply, and the
	// result and error the client already returned do not change.
	for _, tc := range []struct {
		name    string
		others  int  // requests reaching the server between retry and line
		rebuild bool // the server's endpoint is rebuilt after the call
		runs    int  // executions of the service
	}{
		{"last arrival in the window", dedupCap - 1, false, 1},
		{"first arrival past the window", dedupCap, false, 2},
		{"server endpoint rebuilt", 0, true, 2},
	} {
		t.Run(tc.name, func(t *testing.T) {
			f := newFixture(t, 2)
			executions := 0
			fail := func(_ *sim.Task, req *Request) (any, sim.Time, error) {
				executions++
				return executions, 0, fmt.Errorf("execution %d", executions)
			}
			f.eps[0].Register(procIdem, "idem-fail", fail, Idempotent())
			f.eps[1].Register(procIdem, "idem-fail", fail, Idempotent())
			registerNull(f.eps[1])
			var replies []*reply
			f.m.FaultHook = func(msg *machine.SIPSMsg) machine.MsgFaultDecision {
				meta, ok := ClassifySIPS(msg)
				if !ok || meta.Proc != procIdem {
					return machine.MsgFaultDecision{}
				}
				if meta.IsReply {
					replies = append(replies, msg.Payload.(*reply))
				} else if meta.ID == 1 && msg == &msg.Payload.(*Request).line {
					return machine.MsgFaultDecision{Fault: machine.FaultDelay, Delay: 100 * sim.Millisecond}
				}
				return machine.MsgFaultDecision{}
			}
			server := f.eps[1]
			var got any
			var err error
			f.run(t, func(tk *sim.Task) {
				got, _, err = f.eps[0].Call(tk, f.m.Procs[0], 1, procIdem, nil, CallOpts{})
				f.nullCalls(t, tc.others)(tk)
				if tc.rebuild {
					f.eps[1].Shutdown()
					f.eps[1] = NewEndpoint(f.m, 1, []*machine.Processor{f.m.Procs[1]}, 2)
					f.eps[1].Register(procIdem, "idem-fail", fail, Idempotent())
					Connect(f.eps...)
				}
			})
			if executions != tc.runs {
				t.Fatalf("service executed %d times, want %d", executions, tc.runs)
			}
			if len(replies) != 2 || (replies[0] == replies[1]) != (tc.runs == 1) {
				t.Fatalf("replies = %v: want the first twice for one execution, two distinct for two", replies)
			}
			if dups := server.Metrics.Counter("rpc.dup_requests").Value(); dups != int64(2-tc.runs) {
				t.Fatalf("first server counted %d duplicate requests, want %d", dups, 2-tc.runs)
			}
			if got != 1 || err == nil || err.Error() != "execution 1" {
				t.Fatalf("client returned %v, %v; want 1, execution 1", got, err)
			}
			if n := f.eps[0].Metrics.Counter("rpc.stale_replies").Value(); n != 1 {
				t.Fatalf("rpc.stale_replies = %d, want 1", n)
			}
		})
	}
}

func TestReplyToPreviousEndpointIsStale(t *testing.T) {
	// Cell 0's endpoint is rebuilt, as a reboot rebuilds it, while the
	// reply to its timed-out call is still being served. The fresh
	// endpoint numbers its calls from the start, so its outstanding call
	// has the old call's id. The late reply must not resolve that call:
	// it is counted stale, and the call gets its own result.
	f := newFixture(t, 2)
	f.eps[1].Register(procSleepy, "sleepy",
		func(t *sim.Task, req *Request) (any, sim.Time, error) {
			t.Sleep(sim.Time(req.Arg.W[0]))
			return req.Arg.W[0], 0, nil
		}, Queued())
	var ids []uint64
	f.m.FaultHook = func(msg *machine.SIPSMsg) machine.MsgFaultDecision {
		if meta, ok := ClassifySIPS(msg); ok && !meta.IsReply {
			ids = append(ids, meta.ID)
		}
		return machine.MsgFaultDecision{}
	}
	sleep := func(d sim.Time) CallOpts { return CallOpts{Arg: Line{W: [3]int64{int64(d)}}} }
	var got any
	var err error
	f.run(t, func(tk *sim.Task) {
		opts := sleep(5 * sim.Millisecond)
		opts.Timeout, opts.NoHint = sim.Millisecond, true
		if _, _, err := f.eps[0].Call(tk, f.m.Procs[0], 1, procSleepy, nil, opts); !errors.Is(err, ErrTimeout) {
			t.Errorf("old call: err = %v, want ErrTimeout", err)
		}
		f.eps[0].Shutdown()
		f.eps[0] = NewEndpoint(f.m, 0, []*machine.Processor{f.m.Procs[0]}, 2)
		Connect(f.eps...)
		got, _, err = f.eps[0].Call(tk, f.m.Procs[0], 1, procSleepy, nil, sleep(10*sim.Millisecond))
	})
	if len(ids) != 2 || ids[0] != ids[1] {
		t.Fatalf("request ids %v, want the same id twice", ids)
	}
	if err != nil || got != int64(10*sim.Millisecond) {
		t.Fatalf("fresh call returned %v, %v; want its own result %d", got, err, int64(10*sim.Millisecond))
	}
	if n := f.eps[0].Metrics.Counter("rpc.stale_replies").Value(); n != 1 {
		t.Fatalf("fresh endpoint's rpc.stale_replies = %d, want 1", n)
	}
}
