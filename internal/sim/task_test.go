package sim

import (
	"fmt"
	"runtime"
	"strings"
	"testing"
)

// Kill unwinding through a task's coroutine: whatever a task is parked in,
// Kill must unwind its stack (defers in LIFO order) exactly once, and leave
// behind a wake event that resumes nothing when it later fires.

func TestKillUnwindsParkedTask(t *testing.T) {
	// The ways a task can park with a wake event of its own pending, each
	// for 100ns.
	parkKinds := []struct {
		name string
		park func(tk *Task, slot **Event)
	}{
		{"Sleep", func(tk *Task, _ **Event) { tk.Sleep(100) }},
		{"BlockTimeout", func(tk *Task, _ **Event) { tk.BlockTimeout(100) }},
		{"SleepEvent", func(tk *Task, slot **Event) { tk.SleepEvent(100, slot) }},
	}
	// Two ways to run the engine until idle.
	runners := []struct {
		name string
		run  func(e *Engine)
	}{
		{"Run", func(e *Engine) { e.Run(0) }},
		{"Step", func(e *Engine) {
			for e.Step() {
			}
		}},
	}
	for _, pk := range parkKinds {
		for _, rn := range runners {
			t.Run(pk.name+"/"+rn.name, func(t *testing.T) {
				e := NewEngine(1)
				var log []string
				var runs []Time
				e.Trace = func(at Time, what string) {
					if what == "run victim" {
						runs = append(runs, at)
					}
				}
				var slot *Event
				victim := e.Go("victim", func(tk *Task) {
					defer func() { log = append(log, "defer1") }()
					defer func() { log = append(log, "defer2") }()
					pk.park(tk, &slot)
					t.Error("victim resumed past its park")
				})
				e.At(10, func() { victim.Kill() })
				rn.run(e)

				if got, want := strings.Join(log, " "), "defer2 defer1"; got != want {
					t.Errorf("unwind order = %q, want %q", got, want)
				}
				if !victim.Done() || !victim.Killed() {
					t.Errorf("Done=%v Killed=%v, want both true", victim.Done(), victim.Killed())
				}
				// One run to start, one to unwind at the kill; the wake
				// event abandoned at t=100 must resume nothing.
				if len(runs) != 2 || runs[1] != 10 {
					t.Errorf("victim dispatched at %v, want [0 10]", runs)
				}
				if e.Now() != 100 {
					t.Errorf("engine idle at %v, want 100 (the abandoned wake fired)", e.Now())
				}
				if got := e.Pending(); got != 0 {
					t.Errorf("Pending = %d, want 0", got)
				}
				if got := e.LiveTasks(); got != 0 {
					t.Errorf("LiveTasks = %d, want 0", got)
				}
			})
		}
	}
}

func TestTaskKillsItself(t *testing.T) {
	e := NewEngine(1)
	var log []string
	tk := e.Go("suicide", func(tk *Task) {
		defer func() { log = append(log, "defer1") }()
		defer func() { log = append(log, "defer2") }()
		tk.Sleep(5)
		tk.Kill()
		t.Error("task ran past its own Kill")
	})
	e.Run(0)
	if got, want := strings.Join(log, " "), "defer2 defer1"; got != want {
		t.Errorf("unwind order = %q, want %q", got, want)
	}
	if !tk.Done() || !tk.Killed() {
		t.Errorf("Done=%v Killed=%v, want both true", tk.Done(), tk.Killed())
	}
	if got := e.Pending(); got != 0 {
		t.Errorf("Pending = %d, want 0", got)
	}
}

// TestStepDrivesTaskWake checks that Step alone fires a task-carrying wake:
// one Step starts the task, the next resumes it from Sleep at its wake time.
func TestStepDrivesTaskWake(t *testing.T) {
	e := NewEngine(1)
	var woke Time = -1
	e.Go("sleeper", func(tk *Task) {
		tk.Sleep(30)
		woke = tk.Now()
	})
	if !e.Step() || woke != -1 || e.Pending() != 1 {
		t.Fatalf("after the first Step: woke=%v Pending=%d, want parked with 1 pending", woke, e.Pending())
	}
	if !e.Step() || woke != 30 {
		t.Fatalf("after the second Step: woke=%v, want 30", woke)
	}
	if e.Step() {
		t.Fatal("Step found an event after the task finished")
	}
}

// The wake paths allocate nothing once the freelist is warm. Each case parks
// a task in an endless loop and measures one resume-and-park round.
func TestWakePathsAllocateNothing(t *testing.T) {
	cases := []struct {
		name string
		loop func(tk *Task, slot **Event)
		kick bool // WakeSoon before each Step, waking the task early
	}{
		{"Sleep", func(tk *Task, _ **Event) { tk.Sleep(10) }, false},
		{"WakeSoon", func(tk *Task, _ **Event) { tk.Block() }, true},
		{"BlockTimeout/expires", func(tk *Task, _ **Event) { tk.BlockTimeout(10) }, false},
		{"BlockTimeout/woken", func(tk *Task, _ **Event) { tk.BlockTimeout(1000) }, true},
		{"SleepEvent", func(tk *Task, slot **Event) { tk.SleepEvent(10, slot) }, false},
	}
	for _, c := range cases {
		t.Run(c.name, func(t *testing.T) {
			e := NewEngine(1)
			var slot *Event
			tk := e.Go("looper", func(tk *Task) {
				for {
					c.loop(tk, &slot)
				}
			})
			round := func() {
				if c.kick {
					tk.WakeSoon()
				}
				e.Step()
			}
			// Warm up past the first compaction of lazily cancelled
			// timeouts, so the freelist and heap have reached their
			// steady size.
			for i := 0; i < 1000; i++ {
				round()
			}
			if n := testing.AllocsPerRun(1000, round); n != 0 {
				t.Errorf("%v allocations per wake, want 0", n)
			}
		})
	}
}

func TestSleepEventSlot(t *testing.T) {
	t.Run("nil after return", func(t *testing.T) {
		e := NewEngine(1)
		var slot, seen *Event
		e.Go("sleeper", func(tk *Task) {
			tk.SleepEvent(100, &slot)
			if slot != nil {
				t.Errorf("slot = %p after SleepEvent returned, want nil", slot)
			}
		})
		e.At(50, func() { seen = slot })
		e.Run(0)
		if seen == nil {
			t.Fatal("slot was empty during the sleep")
		}
	})

	t.Run("overlap keeps the later event", func(t *testing.T) {
		e := NewEngine(1)
		var slot, later *Event
		e.Go("first", func(tk *Task) {
			tk.SleepEvent(100, &slot) // t=0..100
			if slot != later || !later.Pending() {
				t.Errorf("after the first sleep: slot=%p, want the later pending event %p", slot, later)
			}
		})
		e.Go("second", func(tk *Task) {
			tk.Sleep(10)
			tk.SleepEvent(100, &slot) // t=10..110
			if slot != nil {
				t.Errorf("after the second sleep: slot=%p, want nil", slot)
			}
		})
		e.At(50, func() { later = slot })
		e.Run(0)
		if e.Now() != 110 {
			t.Fatalf("engine idle at %v, want 110", e.Now())
		}
	})

	t.Run("kill leaves the event unrecycled", func(t *testing.T) {
		e := NewEngine(1)
		var slot *Event
		victim := e.Go("victim", func(tk *Task) { tk.SleepEvent(100, &slot) })
		e.At(10, func() { victim.Kill() })
		e.Run(0)
		ev := slot
		if ev == nil {
			t.Fatal("kill cleared the slot")
		}
		if ev.Pending() || ev.Reschedule(500) {
			t.Fatal("the fired wake event of a killed task is still pending")
		}
		// Churn the freelist: a recycled slot event would be handed out
		// again here and come back to life.
		e.Go("churn", func(tk *Task) {
			for i := 0; i < 50; i++ {
				tk.Sleep(1)
			}
		})
		e.Run(0)
		for _, f := range e.free {
			if f == ev {
				t.Fatal("the slot's event was recycled")
			}
		}
		if ev.Pending() || ev.When() != 100 {
			t.Fatalf("slot event was reused: Pending=%v When=%v", ev.Pending(), ev.When())
		}
	})
}

// Stop ends every live task whatever it is parked in, running each task's
// defers exactly once, and every idle coroutine, and leaves no goroutine
// behind. Two tasks finish before Stop, so their coroutines are idle; the
// task started last, never dispatched, is handed the most recently idled
// one. In the panicked case one more task sleeps and then panics, Run's
// panic is recovered, and Stop must end the engine all the same without
// raising that panic again.
func TestStopEndsEveryTask(t *testing.T) {
	for _, panicked := range []bool{false, true} {
		t.Run(fmt.Sprintf("panicked=%v", panicked), func(t *testing.T) {
			base := runtime.NumGoroutine()
			e := NewEngine(1)
			defers := map[string]int{}
			var m Mutex
			var slot *Event
			var tasks []*Task
			park := func(name string, body func(tk *Task)) {
				tasks = append(tasks, e.Go(name, func(tk *Task) {
					defer func() { defers[name]++ }()
					body(tk)
					t.Errorf("%s resumed past its park", name)
				}))
			}
			park("Sleep", func(tk *Task) { tk.Sleep(1000) })
			park("BlockTimeout", func(tk *Task) { tk.BlockTimeout(1000) })
			park("SleepEvent", func(tk *Task) { tk.SleepEvent(1000, &slot) })
			park("holder", func(tk *Task) { m.Lock(tk); tk.Block() })
			park("Mutex", func(tk *Task) { tk.Sleep(1); m.Lock(tk) })
			finished := []string{"finished", "finished later"}
			for _, name := range finished {
				e.Go(name, func(tk *Task) {
					defer func() { defers[name]++ }()
					tk.Sleep(2)
				})
			}
			if panicked {
				finished = append(finished, "faulty")
				e.Go("faulty", func(tk *Task) {
					defer func() { defers["faulty"]++ }()
					tk.Sleep(3)
					panic("boom")
				})
				func() {
					defer func() {
						if r := recover(); r == nil || !strings.Contains(fmt.Sprint(r), "boom") {
							t.Fatalf("Run raised %v, want the task's panic", r)
						}
					}()
					e.Run(10)
				}()
			} else {
				e.Run(10)
			}
			if got := len(e.idle); got != len(finished) {
				t.Fatalf("%d idle coroutines after %d tasks finished, want %d", got, len(finished), len(finished))
			}
			reused := e.idle[len(e.idle)-1]
			ran := false
			unstarted := e.Go("unstarted", func(tk *Task) {
				defer func() { defers["unstarted"]++ }()
				ran = true
			})
			tasks = append(tasks, unstarted)
			if unstarted.c != reused {
				t.Fatal("the new task was not handed the most recently idled coroutine")
			}
			if got := e.LiveTasks(); got != len(tasks) {
				t.Fatalf("LiveTasks = %d before Stop, want %d", got, len(tasks))
			}

			func() {
				defer func() {
					if r := recover(); r != nil {
						t.Errorf("Stop panicked: %v", r)
					}
				}()
				e.Stop()
			}()
			for _, name := range append([]string{"Sleep", "BlockTimeout", "SleepEvent", "holder", "Mutex"}, finished...) {
				if defers[name] != 1 {
					t.Errorf("%s: defers ran %d times, want 1", name, defers[name])
				}
			}
			if ran || defers["unstarted"] != 0 {
				t.Errorf("the never-dispatched task ran its body (ran=%v, defers=%d)", ran, defers["unstarted"])
			}
			for _, tk := range tasks {
				if !tk.Done() || !tk.Killed() {
					t.Errorf("%s: Done=%v Killed=%v, want both true", tk.Name(), tk.Done(), tk.Killed())
				}
			}
			if got := e.LiveTasks(); got != 0 {
				t.Errorf("LiveTasks = %d after Stop, want 0", got)
			}
			if got := len(e.idle); got != 0 {
				t.Errorf("%d idle coroutines after Stop, want 0", got)
			}
			waitForGoroutines(t, base)

			e.Stop() // a second Stop finds nothing to end
			if defers["Sleep"] != 1 {
				t.Errorf("the second Stop ran defers again: %v", defers)
			}
			mustPanic(t, "Run", func() { e.Run(0) })
			mustPanic(t, "Go", func() { e.Go("late", func(*Task) {}) })
		})
	}
}

// A task that a defer starts while Stop unwinds its task never runs, on a
// new coroutine or an idle one, and Stop ends it too.
func TestStopEndsTasksItsDefersStart(t *testing.T) {
	for _, idle := range []bool{false, true} {
		t.Run(fmt.Sprintf("idle=%v", idle), func(t *testing.T) {
			base := runtime.NumGoroutine()
			e := NewEngine(1)
			if idle { // leaves one idle coroutine for the late task
				e.Go("finished", func(*Task) {})
			}
			ran := false
			e.Go("reaper", func(tk *Task) {
				defer e.Go("late", func(*Task) { ran = true })
				tk.Block()
			})
			e.Run(0)
			e.Stop()
			if ran {
				t.Error("the task a defer started during Stop ran")
			}
			if got := e.LiveTasks(); got != 0 {
				t.Errorf("LiveTasks = %d after Stop, want 0", got)
			}
			waitForGoroutines(t, base)
		})
	}
}

// A genuine panic in a task running on a reused coroutine is re-raised by
// Run and names that task, not the coroutine's earlier one.
func TestPanicOnReusedCoroutineNamesItsTask(t *testing.T) {
	e := NewEngine(1)
	e.Go("first", func(*Task) {})
	e.Run(0)
	if len(e.idle) != 1 {
		t.Fatalf("%d idle coroutines after the first task finished, want 1", len(e.idle))
	}
	first := e.idle[0]
	if tk := e.Go("second", func(*Task) { panic("boom") }); tk.c != first {
		t.Fatal("the second task was not handed the first task's coroutine")
	}
	defer func() {
		r := recover()
		if s, _ := r.(string); !strings.Contains(s, `"second"`) || !strings.Contains(s, "boom") {
			t.Fatalf("Run raised %v, want the second task's boom", r)
		}
	}()
	e.Run(0)
	t.Fatal("Run returned after a task panicked")
}

// On a warm engine a task costs one allocation, its Task: its coroutine is
// a finished task's and its start event comes from the freelist. Handing a
// queued item, a semaphore's permit or a mutex from one task to another
// allocates nothing: the wait lists keep their arrays.
func TestTaskAndHandoffAllocations(t *testing.T) {
	t.Run("Go", func(t *testing.T) {
		e := NewEngine(1)
		body := func(*Task) {}
		round := func() {
			e.Go("short", body)
			e.Run(0)
		}
		for i := 0; i < 100; i++ {
			round()
		}
		if n := testing.AllocsPerRun(1000, round); n != 1 {
			t.Errorf("%v allocations per task, want 1 (the Task)", n)
		}
	})
	handoffs := []struct {
		name  string
		start func(e *Engine)
	}{
		{"Queue", func(e *Engine) {
			var q Queue
			item := new(int)
			e.Go("producer", func(tk *Task) {
				for {
					q.Push(item)
					tk.Sleep(10)
				}
			})
			e.Go("consumer", func(tk *Task) {
				for {
					q.Pop(tk)
				}
			})
		}},
		{"Semaphore", func(e *Engine) {
			s := NewSemaphore(1)
			for _, name := range []string{"a", "b"} {
				e.Go(name, func(tk *Task) {
					for {
						s.Acquire(tk)
						tk.Sleep(10)
						s.Release()
					}
				})
			}
		}},
		{"Mutex", func(e *Engine) {
			var m Mutex
			for _, name := range []string{"a", "b"} {
				e.Go(name, func(tk *Task) {
					for {
						m.Lock(tk)
						tk.Sleep(10)
						m.Unlock(tk)
					}
				})
			}
		}},
	}
	for _, h := range handoffs {
		t.Run(h.name, func(t *testing.T) {
			e := NewEngine(1)
			h.start(e)
			// Each task sleeps 10ns between handoffs: one handoff a round.
			round := func() { e.Run(e.Now() + 10) }
			for i := 0; i < 100; i++ {
				round()
			}
			if n := testing.AllocsPerRun(1000, round); n != 0 {
				t.Errorf("%v allocations per handoff, want 0", n)
			}
		})
	}
}

// waitForGoroutines fails t unless the goroutine count falls back to base,
// giving ended coroutines a few scheduler rounds to exit.
func waitForGoroutines(t *testing.T, base int) {
	t.Helper()
	for i := 0; runtime.NumGoroutine() > base && i < 100; i++ {
		runtime.Gosched()
	}
	if got := runtime.NumGoroutine(); got > base {
		t.Errorf("%d goroutines after Stop, want the baseline %d", got, base)
	}
}

// A genuine panic raised by a defer while Stop unwinds a task is re-raised
// on the caller's goroutine, as dispatch re-raises one from a running task.
func TestStopReraisesDeferPanic(t *testing.T) {
	e := NewEngine(1)
	e.Go("faulty", func(tk *Task) {
		defer func() { panic("boom") }()
		tk.Block()
	})
	e.Run(0)
	defer func() {
		r := recover()
		if s, _ := r.(string); !strings.Contains(s, `"faulty"`) || !strings.Contains(s, "boom") {
			t.Fatalf("Stop raised %v, want the faulty task's boom", r)
		}
	}()
	e.Stop()
	t.Fatal("Stop returned after a defer panicked")
}

func mustPanic(t *testing.T, what string, fn func()) {
	t.Helper()
	defer func() {
		if recover() == nil {
			t.Errorf("%s on a stopped engine did not panic", what)
		}
	}()
	fn()
}
