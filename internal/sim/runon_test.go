package sim

import (
	"fmt"
	"reflect"
	"strings"
	"testing"
)

// The run-on rule: inside Run, a sleep whose wake would be the next event
// fired ends without parking. These tests pin each condition of the rule
// and check that running on leaves the engine as the park path does.

// sleeps are the two sleeps that may run on.
var sleeps = []struct {
	name  string
	sleep func(tk *Task, d Time, slot **Event)
}{
	{"Sleep", func(tk *Task, d Time, _ **Event) { tk.Sleep(d) }},
	{"SleepEvent", func(tk *Task, d Time, slot **Event) { tk.SleepEvent(d, slot) }},
}

// TestSleepRunsOnWhenItsWakeIsNext plays one script under Run, where sleeps
// may run on, and under Step, which always parks. Under Run a sleep whose
// wake precedes every queued event schedules nothing; both ways end with
// the same clock, dispatch count, trace lines and order of work.
func TestSleepRunsOnWhenItsWakeIsNext(t *testing.T) {
	type outcome struct {
		now        Time
		dispatched uint64
		trace, log []string
		ranOn      []bool // per sleep: it scheduled no event
	}
	play := func(drive func(e *Engine)) outcome {
		e := NewEngine(1)
		var o outcome
		e.Trace = func(at Time, what string) {
			o.trace = append(o.trace, fmt.Sprintf("%v %s", at, what))
		}
		e.At(100, func() { o.log = append(o.log, fmt.Sprintf("event@%v", e.Now())) })
		e.Go("sleeper", func(tk *Task) {
			var slot *Event
			for i := 0; i < 5; i++ {
				slot = new(Event) // another task's burst, which a SleepEvent overwrites
				seq := e.seq
				sleeps[i%2].sleep(tk, 30, &slot)
				o.ranOn = append(o.ranOn, e.seq == seq)
				if i%2 == 1 && slot != nil {
					t.Errorf("SleepEvent %d left slot = %p, want nil", i, slot)
				}
				o.log = append(o.log, fmt.Sprintf("woke@%v", tk.Now()))
			}
		})
		drive(e)
		o.now, o.dispatched = e.Now(), e.Dispatched()
		return o
	}
	ran := play(func(e *Engine) { e.Run(0) })
	stepped := play(func(e *Engine) {
		for e.Step() {
		}
	})

	// The wakes at 30, 60 and 90 precede the event at 100, the one at 120
	// follows it, and the one at 150 finds the queue empty.
	if want := []bool{true, true, true, false, true}; !reflect.DeepEqual(ran.ranOn, want) {
		t.Errorf("under Run the sleeps ran on %v, want %v", ran.ranOn, want)
	}
	if want := make([]bool, 5); !reflect.DeepEqual(stepped.ranOn, want) {
		t.Errorf("under Step the sleeps ran on %v, want every one parked", stepped.ranOn)
	}
	want := "woke@30ns woke@60ns woke@90ns event@100ns woke@120ns woke@150ns"
	if got := strings.Join(ran.log, " "); got != want {
		t.Errorf("under Run: %s, want %s", got, want)
	}
	if ran.now != 150 || ran.dispatched != 7 {
		t.Errorf("under Run: Now=%v Dispatched=%d, want 150ns and 7 (start, five wakes, event)",
			ran.now, ran.dispatched)
	}
	ran.ranOn, stepped.ranOn = nil, nil
	if !reflect.DeepEqual(ran, stepped) {
		t.Errorf("Run and Step differ:\nRun:  %+v\nStep: %+v", ran, stepped)
	}
}

// An event queued for the wake's own instant was scheduled first, so it
// fires first: the sleeper parks behind it instead of running on.
func TestRunOnKeepsFIFOAtTheWakeInstant(t *testing.T) {
	for _, s := range sleeps {
		t.Run(s.name, func(t *testing.T) {
			e := NewEngine(1)
			var log []string
			e.At(10, func() { log = append(log, "event") })
			e.Go("sleeper", func(tk *Task) {
				var slot *Event
				s.sleep(tk, 10, &slot)
				log = append(log, "sleeper")
			})
			e.Run(0)
			if got, want := strings.Join(log, " "), "event sleeper"; got != want {
				t.Errorf("order = %q, want %q", got, want)
			}
		})
	}
}

// A wake past Run's deadline parks: Run returns at the deadline with the
// task not resumed, and a later Run resumes it on time. A wake at the
// deadline itself resumes inside Run, as an event there fires.
func TestRunOnStopsAtTheDeadline(t *testing.T) {
	for _, s := range sleeps {
		t.Run(s.name, func(t *testing.T) {
			e := NewEngine(1)
			var woke []Time
			e.Go("sleeper", func(tk *Task) {
				var slot *Event
				for _, d := range []Time{100, 50} {
					s.sleep(tk, d, &slot)
					woke = append(woke, tk.Now())
				}
			})
			for _, step := range []struct {
				deadline, want Time
				woke           int
			}{{100, 100, 1}, {120, 120, 1}, {0, 150, 2}} {
				if got := e.Run(step.deadline); got != step.want || len(woke) != step.woke {
					t.Fatalf("Run(%v) = %v with wakes %v, want %v with %d wakes",
						step.deadline, got, woke, step.want, step.woke)
				}
			}
			if want := []Time{100, 150}; !reflect.DeepEqual(woke, want) {
				t.Errorf("woke at %v, want %v", woke, want)
			}
		})
	}

	// RunUntil's shape: Run in short steps until the task has resumed.
	e := NewEngine(1)
	var at Time = -1
	e.Go("sleeper", func(tk *Task) {
		tk.Sleep(25)
		at = tk.Now()
	})
	for step := Time(10); step <= 30; step += 10 {
		if got := e.Run(step); got != step {
			t.Fatalf("Run(%v) returned at %v", step, got)
		}
		want := Time(-1) // not resumed
		if step == 30 {
			want = 25
		}
		if at != want {
			t.Fatalf("after Run(%v) the sleeper woke at %v, want %v", step, at, want)
		}
	}
}

// Step keeps the park path, so it fires exactly one event per call even
// when a sleep's wake is the only event left.
func TestStepFiresOneEventPerCall(t *testing.T) {
	e := NewEngine(1)
	var woke []Time
	e.Go("sleeper", func(tk *Task) {
		for i := 0; i < 3; i++ {
			tk.Sleep(10)
			woke = append(woke, tk.Now())
		}
	})
	// Step 0 starts the task; step i resumes it from sleep i.
	for i := 0; i <= 3; i++ {
		if !e.Step() {
			t.Fatalf("Step %d found no event", i)
		}
		if e.Dispatched() != uint64(i+1) || len(woke) != i || e.Now() != Time(10*i) {
			t.Fatalf("after Step %d: Dispatched=%d wakes=%v Now=%v, want %d, %d wakes, %v",
				i, e.Dispatched(), woke, e.Now(), i+1, i, Time(10*i))
		}
	}
	if e.Step() {
		t.Fatal("Step found an event after the task finished")
	}
}

// A killed task that sleeps in a defer still unwinds: the sleep parks and
// the park ends it, whether Kill woke it inside Run or Stop ended it.
func TestKilledTaskSleepingInADeferUnwinds(t *testing.T) {
	for _, how := range []string{"Kill", "Stop"} {
		t.Run(how, func(t *testing.T) {
			e := NewEngine(1)
			after := false
			victim := e.Go("victim", func(tk *Task) {
				defer func() {
					tk.Sleep(5)
					after = true
				}()
				tk.Block()
				t.Error("victim resumed past Block")
			})
			if how == "Kill" {
				e.At(10, func() { victim.Kill() })
			}
			e.Run(0)
			if how == "Stop" {
				now, n := e.Now(), e.Dispatched()
				e.Stop()
				if e.Now() != now || e.Dispatched() != n {
					t.Errorf("Stop moved the engine: Now %v -> %v, Dispatched %d -> %d",
						now, e.Now(), n, e.Dispatched())
				}
			}
			if after {
				t.Error("the killed task's sleep returned inside its defer")
			}
			if !victim.Done() || !victim.Killed() {
				t.Errorf("Done=%v Killed=%v, want both true", victim.Done(), victim.Killed())
			}
		})
	}
}
