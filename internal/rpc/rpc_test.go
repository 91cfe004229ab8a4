package rpc

import (
	"errors"
	"fmt"
	"testing"
	"unsafe"

	"repro/internal/machine"
	"repro/internal/sim"
)

// fixture builds a 2-cell machine (one node per cell) with connected
// endpoints.
type fixture struct {
	e   *sim.Engine
	m   *machine.Machine
	eps []*Endpoint
}

func newFixture(t testing.TB, cells int) *fixture {
	t.Helper()
	e := sim.NewEngine(11)
	cfg := machine.DefaultConfig()
	cfg.Nodes = cells
	cfg.MemPerNodeMB = 1
	m := machine.New(e, cfg)
	f := &fixture{e: e, m: m}
	for c := 0; c < cells; c++ {
		f.eps = append(f.eps, NewEndpoint(m, c, []*machine.Processor{m.Procs[c]}, 2))
	}
	Connect(f.eps...)
	return f
}

func (f *fixture) run(t testing.TB, fn func(tk *sim.Task)) {
	t.Helper()
	f.e.Go("client", fn)
	f.e.Run(0)
}

const (
	procNull ProcID = iota
	procEcho
	procBig
	procQueuedNull
	procBlocky
)

func registerNull(ep *Endpoint) {
	ep.Register(procNull, "null",
		func(_ *sim.Task, req *Request) (any, sim.Time, error) { return nil, 0, nil })
}

func TestNullRPCLatency(t *testing.T) {
	// §6: minimum end-to-end null RPC latency is 7.2 µs.
	f := newFixture(t, 2)
	registerNull(f.eps[1])
	var lat sim.Time
	f.run(t, func(tk *sim.Task) {
		start := tk.Now()
		_, _, err := f.eps[0].Call(tk, f.m.Procs[0], 1, procNull, nil, CallOpts{})
		if err != nil {
			t.Errorf("call: %v", err)
		}
		lat = tk.Now() - start
	})
	if us := lat.Micros(); us < 6.8 || us > 7.6 {
		t.Fatalf("null RPC = %.2f µs, want ≈7.2 µs", us)
	}
}

// nullCalls makes n null calls from cell 0 to cell 1 and returns the task
// body that makes them.
func (f *fixture) nullCalls(t testing.TB, n int) func(tk *sim.Task) {
	return func(tk *sim.Task) {
		for i := 0; i < n; i++ {
			if _, _, err := f.eps[0].Call(tk, f.m.Procs[0], 1, procNull, nil, CallOpts{}); err != nil {
				t.Errorf("call %d: %v", i, err)
				return
			}
		}
	}
}

// TestNullRPCAllocations checks that a warm interrupt-level round trip
// allocates nothing: its Request, which holds its future, its request
// line, its reply and the reply's line, comes from the freelist. A call
// whose handler fails allocates nothing either: the endpoint reuses its
// last remote error while the text repeats. The warm-up makes more than
// dedupCap calls, so the server's dedup window is full, as on a server
// that has run for a while.
func TestNullRPCAllocations(t *testing.T) {
	errNo := errors.New("server says no")
	f := newFixture(t, 2)
	registerNull(f.eps[1])
	f.eps[1].Register(procEcho, "no",
		func(_ *sim.Task, req *Request) (any, sim.Time, error) { return nil, 0, errNo })
	f.run(t, f.nullCalls(t, dedupCap+1000))
	call := f.nullCalls(t, 1)
	var allocs, errAllocs float64
	var err error
	f.run(t, func(tk *sim.Task) {
		allocs = testing.AllocsPerRun(2000, func() { call(tk) })
		errAllocs = testing.AllocsPerRun(2000, func() {
			_, _, err = f.eps[0].Call(tk, f.m.Procs[0], 1, procEcho, nil, CallOpts{})
		})
	})
	if allocs > 0 {
		t.Errorf("a warm null RPC allocates %v times, want 0", allocs)
	}
	if errAllocs > 0 {
		t.Errorf("a warm failing RPC allocates %v times, want 0", errAllocs)
	}
	if err == nil || err.Error() != errNo.Error() {
		t.Errorf("failing RPC err = %v, want %q", err, errNo.Error())
	}
}

// TestRequestSize keeps a Request, a round trip's one host object, in the
// 448-byte size class: the dedup window rides on it.
func TestRequestSize(t *testing.T) {
	if got := unsafe.Sizeof(Request{}); got > 448 {
		t.Errorf("a Request is %d bytes, want at most 448", got)
	}
}

// BenchmarkNullRPC measures the interrupt-level null RPC round trip on the
// 2-cell fixture, after a warm-up that fills the server's dedup window.
func BenchmarkNullRPC(b *testing.B) {
	b.ReportAllocs()
	f := newFixture(b, 2)
	registerNull(f.eps[1])
	f.run(b, f.nullCalls(b, dedupCap+1000))
	b.ResetTimer()
	f.run(b, f.nullCalls(b, b.N))
}

func TestRealRPCComponentLatency(t *testing.T) {
	// §6: commonly-used interrupt-level requests measure 9.6 µs of RPC
	// component (stub execution above the null RPC).
	f := newFixture(t, 2)
	f.eps[1].Register(procEcho, "echo",
		func(_ *sim.Task, req *Request) (any, sim.Time, error) { return req.Args, 0, nil })
	var lat sim.Time
	f.run(t, func(tk *sim.Task) {
		start := tk.Now()
		got, _, err := f.eps[0].Call(tk, f.m.Procs[0], 1, procEcho, "hi", CallOpts{DataBytes: 64})
		if err != nil || got != "hi" {
			t.Errorf("call: %v %v", got, err)
		}
		lat = tk.Now() - start
	})
	if us := lat.Micros(); us < 9.0 || us > 10.2 {
		t.Fatalf("real RPC = %.2f µs, want ≈9.6 µs", us)
	}
}

func TestOversizeRPCMatchesTable52(t *testing.T) {
	// Table 5.2: the remote fault's RPC component is 17.3 µs — stubs,
	// hardware, the >1-line copy through shared memory, and arg memory
	// alloc/free.
	f := newFixture(t, 2)
	f.eps[1].Register(procBig, "big",
		func(_ *sim.Task, req *Request) (any, sim.Time, error) { return nil, 0, nil })
	var lat sim.Time
	f.run(t, func(tk *sim.Task) {
		start := tk.Now()
		_, _, err := f.eps[0].Call(tk, f.m.Procs[0], 1, procBig, nil,
			CallOpts{DataBytes: 512})
		if err != nil {
			t.Errorf("call: %v", err)
		}
		lat = tk.Now() - start
	})
	if us := lat.Micros(); us < 16.4 || us > 18.2 {
		t.Fatalf("oversize RPC = %.2f µs, want ≈17.3 µs", us)
	}
}

func TestQueuedNullRPCLatency(t *testing.T) {
	// §6: minimum end-to-end null queued RPC latency is 34 µs.
	f := newFixture(t, 2)
	f.eps[1].Register(procQueuedNull, "queued-null",
		func(t *sim.Task, req *Request) (any, sim.Time, error) { return nil, 0, nil }, Queued())
	var lat sim.Time
	f.run(t, func(tk *sim.Task) {
		start := tk.Now()
		_, _, err := f.eps[0].Call(tk, f.m.Procs[0], 1, procQueuedNull, nil, CallOpts{})
		if err != nil {
			t.Errorf("call: %v", err)
		}
		lat = tk.Now() - start
	})
	if us := lat.Micros(); us < 31 || us > 37 {
		t.Fatalf("queued null RPC = %.2f µs, want ≈34 µs", us)
	}
}

func TestIntrFallbackToQueued(t *testing.T) {
	// Best-effort interrupt-level service that falls back (§6): called
	// without a task the handler declines, and with one it completes.
	f := newFixture(t, 2)
	intrTried := false
	f.eps[1].Register(procBlocky, "blocky",
		func(t *sim.Task, req *Request) (any, sim.Time, error) {
			if t == nil {
				intrTried = true
				return nil, 0, ErrQueue // "lock busy"
			}
			return "queued-result", 0, nil
		})
	f.run(t, func(tk *sim.Task) {
		got, _, err := f.eps[0].Call(tk, f.m.Procs[0], 1, procBlocky, nil, CallOpts{})
		if err != nil || got != "queued-result" {
			t.Errorf("got %v, %v", got, err)
		}
	})
	if !intrTried {
		t.Fatal("interrupt-level path never tried")
	}
	if f.eps[1].Metrics.Counter("rpc.intr_fallbacks").Value() != 1 {
		t.Fatal("fallback not counted")
	}
}

func TestCallToFailedCellTimesOutWithHint(t *testing.T) {
	f := newFixture(t, 2)
	registerNull(f.eps[1])
	var hints []int
	f.eps[0].HintSink = func(cell int, reason string) { hints = append(hints, cell) }
	var start, end sim.Time
	f.run(t, func(tk *sim.Task) {
		// Fail the callee after the send is in flight: halt only the
		// processor so the send succeeds but no service runs.
		f.m.Procs[1].Halt()
		start = tk.Now()
		_, _, err := f.eps[0].Call(tk, f.m.Procs[0], 1, procNull, nil,
			CallOpts{Timeout: 500 * sim.Microsecond})
		end = tk.Now()
		if !errors.Is(err, ErrTimeout) {
			t.Errorf("err = %v", err)
		}
	})
	if len(hints) != 1 || hints[0] != 1 {
		t.Fatalf("hints = %v", hints)
	}
	if d := end - start; d < 500*sim.Microsecond {
		t.Fatalf("returned before timeout: %v", d)
	}
}

func TestCallToFailStoppedNodeFailsFast(t *testing.T) {
	// A fully failed node produces an immediate bus error on the SIPS
	// send — the fault model's no-indefinite-stall guarantee.
	f := newFixture(t, 2)
	f.m.Nodes[1].FailStop()
	var hints int
	f.eps[0].HintSink = func(cell int, reason string) { hints++ }
	f.run(t, func(tk *sim.Task) {
		_, _, err := f.eps[0].Call(tk, f.m.Procs[0], 1, procNull, nil, CallOpts{})
		if !errors.Is(err, ErrSendFailed) {
			t.Errorf("err = %v", err)
		}
	})
	if hints != 1 {
		t.Fatalf("hints = %d", hints)
	}
}

func TestNoServiceError(t *testing.T) {
	f := newFixture(t, 2)
	f.run(t, func(tk *sim.Task) {
		_, _, err := f.eps[0].Call(tk, f.m.Procs[0], 1, ProcID(99), nil, CallOpts{})
		if err == nil || err.Error() != ErrNoService.Error() {
			t.Errorf("err = %v", err)
		}
	})
}

func TestHandlerErrorPropagates(t *testing.T) {
	f := newFixture(t, 2)
	f.eps[1].Register(procEcho, "err",
		func(_ *sim.Task, req *Request) (any, sim.Time, error) {
			return nil, 0, fmt.Errorf("server says no")
		})
	f.run(t, func(tk *sim.Task) {
		_, _, err := f.eps[0].Call(tk, f.m.Procs[0], 1, procEcho, nil, CallOpts{})
		if err == nil || err.Error() != "server says no" {
			t.Errorf("err = %v", err)
		}
	})
}

func TestConcurrentCallsFromManyCells(t *testing.T) {
	f := newFixture(t, 4)
	served := 0
	f.eps[0].Register(procEcho, "count",
		func(_ *sim.Task, req *Request) (any, sim.Time, error) {
			served++
			return served, 2000, nil
		})
	for c := 1; c < 4; c++ {
		c := c
		f.e.Go(fmt.Sprintf("client%d", c), func(tk *sim.Task) {
			for i := 0; i < 10; i++ {
				if _, _, err := f.eps[c].Call(tk, f.m.Procs[c], 0, procEcho, nil, CallOpts{}); err != nil {
					t.Errorf("cell %d call %d: %v", c, i, err)
				}
			}
		})
	}
	f.e.Run(0)
	if served != 30 {
		t.Fatalf("served = %d", served)
	}
}

func TestShutdownStopsService(t *testing.T) {
	f := newFixture(t, 2)
	registerNull(f.eps[1])
	f.eps[1].Shutdown()
	f.run(t, func(tk *sim.Task) {
		_, _, err := f.eps[0].Call(tk, f.m.Procs[0], 1, procNull, nil,
			CallOpts{Timeout: 200 * sim.Microsecond, NoHint: true})
		if !errors.Is(err, ErrTimeout) {
			t.Errorf("err = %v", err)
		}
	})
	if !f.eps[1].dead {
		t.Fatal("endpoint not dead")
	}
}

func TestQueuedHandlerMayBlock(t *testing.T) {
	f := newFixture(t, 2)
	f.eps[1].Register(procBlocky, "sleepy",
		func(t *sim.Task, req *Request) (any, sim.Time, error) {
			t.Sleep(300 * sim.Microsecond) // e.g. disk I/O
			return "slow", 0, nil
		}, Queued())
	var lat sim.Time
	f.run(t, func(tk *sim.Task) {
		start := tk.Now()
		got, _, err := f.eps[0].Call(tk, f.m.Procs[0], 1, procBlocky, nil, CallOpts{})
		lat = tk.Now() - start
		if err != nil || got != "slow" {
			t.Errorf("got %v, %v", got, err)
		}
	})
	if lat < 300*sim.Microsecond {
		t.Fatalf("latency %v shorter than handler sleep", lat)
	}
}

func TestServerPoolParallelism(t *testing.T) {
	// Two pool servers should overlap two blocking requests.
	f := newFixture(t, 3)
	f.eps[0].Register(procBlocky, "sleepy",
		func(t *sim.Task, req *Request) (any, sim.Time, error) {
			t.Sleep(1 * sim.Millisecond)
			return nil, 0, nil
		}, Queued())
	var done sim.Time
	finished := 0
	for c := 1; c < 3; c++ {
		c := c
		f.e.Go(fmt.Sprintf("client%d", c), func(tk *sim.Task) {
			f.eps[c].Call(tk, f.m.Procs[c], 0, procBlocky, nil, CallOpts{Timeout: 10 * sim.Millisecond})
			finished++
			done = max(done, tk.Now())
		})
	}
	f.e.Run(0)
	if finished != 2 {
		t.Fatalf("%d of 2 calls returned", finished)
	}
	if done > 2*sim.Millisecond {
		t.Fatalf("blocking requests serialized: done at %v", done)
	}
}

func TestTargetProcSkipsHalted(t *testing.T) {
	// A cell with two processors keeps serving when one halts.
	e := sim.NewEngine(5)
	cfg := machine.DefaultConfig()
	cfg.Nodes = 2
	cfg.ProcsPerNode = 2
	cfg.MemPerNodeMB = 1
	m := machine.New(e, cfg)
	ep0 := NewEndpoint(m, 0, m.Nodes[0].Procs, 2)
	ep1 := NewEndpoint(m, 1, m.Nodes[1].Procs, 2)
	Connect(ep0, ep1)
	registerNull(ep1)
	m.Procs[2].Halt() // cell 1's first CPU
	ok := false
	e.Go("client", func(tk *sim.Task) {
		for i := 0; i < 4; i++ {
			if _, _, err := ep0.Call(tk, m.Procs[0], 1, procNull, nil, CallOpts{}); err != nil {
				t.Errorf("call %d: %v", i, err)
				return
			}
		}
		ok = true
	})
	e.Run(sim.Second)
	if !ok {
		t.Fatal("calls failed with one CPU halted")
	}
}
