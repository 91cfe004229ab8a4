package sim

import (
	"testing"
	"time"
)

// BenchmarkEngineEventsPerSec measures wall-clock event throughput on the
// mix the Hive kernels actually generate: plain timers (Sleep), timeouts
// that expire (BlockTimeout), and timeouts that are cancelled by an early
// wake — the pattern of every RPC call. The events/sec metric is the upper
// bound on how much virtual time the full simulation can cover per second
// of real time.
func BenchmarkEngineEventsPerSec(b *testing.B) {
	b.ReportAllocs()
	e := NewEngine(1)
	var worker *Task
	worker = e.Go("worker", func(t *Task) {
		for i := 0; i < b.N; i++ {
			t.Sleep(10)            // timer that fires
			if t.BlockTimeout(5) { // timeout that expires
				_ = i
			}
		}
	})
	e.Go("waker", func(t *Task) {
		// Every 40ns wake the worker if it is parked: some BlockTimeouts
		// get cancelled early, exercising the lazy-cancel path.
		for !worker.Done() {
			t.Sleep(40)
			worker.WakeSoon()
		}
	})
	start := time.Now()
	b.ResetTimer()
	e.Run(0)
	b.StopTimer()
	if el := time.Since(start).Seconds(); el > 0 {
		// ~3 dispatched events per iteration (sleep wake, timeout, waker).
		b.ReportMetric(3*float64(b.N)/el, "events/sec")
	}
}

// BenchmarkEventCancel measures the schedule-then-cancel cycle that every
// completed-in-time RPC performs on its timeout timer.
func BenchmarkEventCancel(b *testing.B) {
	b.ReportAllocs()
	e := NewEngine(1)
	e.Go("driver", func(t *Task) {
		for i := 0; i < b.N; i++ {
			ev := e.handleAt(e.Now()+1000, func() {})
			ev.Cancel()
			t.Sleep(1) // drain so the heap stays small
		}
	})
	b.ResetTimer()
	e.Run(0)
}

// BenchmarkEventQueue drives the queue at the shape a pmake run gives it:
// after boot the pinned 4-cell run schedules 617,871 events into a queue
// holding 27.7 on average (at most 65), with one Reschedule per ten
// schedules and one Cancel per twenty. Chains of callbacks, each scheduling
// its successor, keep the queue near that size. A compute burst, re-armed
// whenever it fires, is moved later as an interrupt's StealTime moves it,
// and a timeout is cancelled and re-armed as an early wake clears
// BlockTimeout's. Both are released back to the engine as those paths
// release them, so a warm queue allocates nothing. Each op is one chain
// event fired.
func BenchmarkEventQueue(b *testing.B) {
	b.ReportAllocs()
	const chains = 23
	e := NewEngine(1)
	rng := e.Rand()
	fired, queued := 0, 0
	var burst, timeout *Event
	var tick, burstDone, timedOut func()
	tick = func() {
		fired++
		queued += len(e.events)
		if fired > b.N-chains {
			return
		}
		e.After(Time(1+rng.Intn(2000)), tick)
		switch r := rng.Intn(20); {
		case r < 2 && burst != nil:
			burst.Reschedule(burst.When() + Time(1+rng.Intn(200)))
		case r == 2:
			if timeout != nil {
				timeout.Cancel()
				e.release(timeout)
			}
			timeout = e.handleAt(e.now+4000, timedOut)
		}
	}
	armBurst := func() {
		burst = e.handleAt(e.now+Time(500+rng.Intn(2000)), burstDone)
	}
	burstDone = func() {
		e.release(burst)
		burst = nil
		if fired <= b.N-chains {
			armBurst()
		}
	}
	timedOut = func() {
		e.release(timeout)
		timeout = nil
	}
	for i := 0; i < chains; i++ {
		e.After(Time(1+rng.Intn(2000)), tick)
	}
	armBurst()
	b.ResetTimer()
	e.Run(0)
	b.StopTimer()
	if fired > 0 {
		b.ReportMetric(float64(queued)/float64(fired), "queued/op")
	}
}

// BenchmarkTaskChurn measures task creation and exit, which happen once per
// process, RPC service task, and interrupt thread.
func BenchmarkTaskChurn(b *testing.B) {
	b.ReportAllocs()
	e := NewEngine(1)
	const liveSet = 256 // long-lived tasks, as in a booted 4-cell Hive
	for i := 0; i < liveSet; i++ {
		e.Go("resident", func(t *Task) { t.Block() })
	}
	e.Go("driver", func(t *Task) {
		for i := 0; i < b.N; i++ {
			done := false
			e.Go("ephemeral", func(t2 *Task) { done = true })
			for !done {
				t.Sleep(1)
			}
		}
	})
	b.ResetTimer()
	e.Run(0)
}
