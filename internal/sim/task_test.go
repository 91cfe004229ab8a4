package sim

import (
	"strings"
	"testing"
)

// Kill unwinding through a task's coroutine: whatever a task is parked in,
// Kill must unwind its stack (defers in LIFO order), then run its OnKill
// callbacks exactly once, and leave behind a wake event that resumes nothing
// when it later fires.

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
					tk.OnKill(func() { log = append(log, "onkill") })
					defer func() { log = append(log, "defer1") }()
					defer func() { log = append(log, "defer2") }()
					pk.park(tk, &slot)
					t.Error("victim resumed past its park")
				})
				e.At(10, func() { victim.Kill() })
				rn.run(e)

				if got, want := strings.Join(log, " "), "defer2 defer1 onkill"; got != want {
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
		tk.OnKill(func() { log = append(log, "onkill") })
		defer func() { log = append(log, "defer1") }()
		defer func() { log = append(log, "defer2") }()
		tk.Sleep(5)
		tk.Kill()
		t.Error("task ran past its own Kill")
	})
	e.Run(0)
	if got, want := strings.Join(log, " "), "defer2 defer1 onkill"; got != want {
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
