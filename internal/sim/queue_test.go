package sim

import (
	"math/rand"
	"slices"
	"testing"
)

// modelEvent is one queued event as the reference model sees it.
type modelEvent struct {
	ev     *Event
	id     int
	at     Time
	handle bool // scheduled through handleAt, so the test may cancel or move it
}

// TestQueueMatchesSortedModel runs seeded random streams of schedules
// (handles and engine-owned events, with many duplicate times), pops,
// cancels and reschedules (earlier and later) against a reference list kept
// sorted by (at, seq). Every pop must fire the model's first event, and
// after every operation each queued event must hold its own position while
// every handle out of the queue reads -1. Each stream grows the queue, then
// cancels most of it, crossing compact's trigger (at least 64 queued, more
// than half of them cancelled), then drains it.
func TestQueueMatchesSortedModel(t *testing.T) {
	// Percent weights of schedule, pop and cancel per phase of 1,000
	// operations; the rest reschedule.
	phases := [][3]int{{60, 15, 10}, {10, 10, 60}, {15, 60, 10}}
	compactions := 0
	for seed := int64(1); seed <= 20; seed++ {
		rng := rand.New(rand.NewSource(seed))
		e := NewEngine(seed)
		var model []modelEvent // queued, non-cancelled events, sorted by (at, seq)
		var handles []*Event   // every handle ever scheduled
		fired := -1            // id of the last event fired

		insert := func(m modelEvent) {
			i, _ := slices.BinarySearchFunc(model, m, func(a, b modelEvent) int {
				if before(a.ev, b.ev) {
					return -1
				}
				return 1
			})
			model = slices.Insert(model, i, m)
		}
		// pick returns a handle: half the time a queued one, if any.
		pick := func() (*Event, int) {
			if rng.Intn(2) == 0 {
				if i := rng.Intn(len(model) + 1); i < len(model) && model[i].handle {
					return model[i].ev, i
				}
			}
			ev := handles[rng.Intn(len(handles))]
			return ev, slices.IndexFunc(model, func(m modelEvent) bool { return m.ev == ev })
		}
		check := func(op string) {
			t.Helper()
			in := make(map[*Event]bool, len(e.events))
			for i, ev := range e.events {
				if int(ev.index) != i {
					t.Fatalf("seed %d, after %s: queue[%d].index = %d", seed, op, i, ev.index)
				}
				if i > 0 && before(ev, e.events[(i-1)/2]) {
					t.Fatalf("seed %d, after %s: queue[%d] sorts before its parent", seed, op, i)
				}
				in[ev] = true
			}
			for _, ev := range handles {
				if !in[ev] && ev.index != -1 {
					t.Fatalf("seed %d, after %s: a handle out of the queue reads index %d", seed, op, ev.index)
				}
			}
			if e.Pending() != len(model) {
				t.Fatalf("seed %d, after %s: Pending = %d, model holds %d", seed, op, e.Pending(), len(model))
			}
		}
		pop := func(op string) {
			t.Helper()
			want := model[0]
			model = model[1:]
			if !e.Step() || fired != want.id || e.Now() != want.at {
				t.Fatalf("seed %d: %s fired id %d at %v, model wants %d at %v", seed, op, fired, e.Now(), want.id, want.at)
			}
			check(op)
		}

		for op := 0; op < 1000*len(phases); op++ {
			w := phases[op/1000]
			switch r := rng.Intn(100); {
			case r < w[0]: // schedule, often at a time already queued
				m := modelEvent{id: op, at: e.Now() + Time(rng.Intn(30)), handle: rng.Intn(4) > 0}
				fn := func() { fired = m.id }
				if m.handle {
					m.ev = e.handleAt(m.at, fn)
					handles = append(handles, m.ev)
				} else {
					e.At(m.at, fn)
					m.ev = e.events[slices.IndexFunc(e.events, func(q *Event) bool { return q.seq == e.seq })]
				}
				insert(m)
				check("schedule")
			case r < w[0]+w[1]:
				if len(model) > 0 {
					pop("pop")
				} else if e.Step() {
					t.Fatalf("seed %d: Step fired an event the model does not hold", seed)
				}
			case len(handles) == 0: // nothing to cancel or move yet
			case r < w[0]+w[1]+w[2]: // cancel a handle, queued or not
				ev, i := pick()
				n := len(e.events)
				if got := ev.Cancel(); got != (i >= 0) {
					t.Fatalf("seed %d: Cancel = %v, model says queued = %v", seed, got, i >= 0)
				}
				if i >= 0 {
					model = slices.Delete(model, i, i+1)
				}
				if len(e.events) < n {
					compactions++
				}
				check("cancel")
			default: // move a handle up to 20 ns earlier or later
				ev, i := pick()
				at := ev.When() + Time(rng.Intn(41)-20)
				if got := ev.Reschedule(at); got != (i >= 0) {
					t.Fatalf("seed %d: Reschedule = %v, model says queued = %v", seed, got, i >= 0)
				}
				if i >= 0 {
					m := model[i]
					model = slices.Delete(model, i, i+1)
					m.at = max(at, e.Now())
					insert(m)
				}
				check("reschedule")
			}
		}
		for len(model) > 0 {
			pop("drain")
		}
		if e.Step() {
			t.Fatalf("seed %d: Step fired an event the model does not hold", seed)
		}
	}
	if compactions == 0 {
		t.Fatal("no stream crossed the compaction trigger")
	}
}

// TestAfterAllocatesNothing checks the At/After contract: the engine owns
// the event and recycles it once its callback returns, so a warm engine
// schedules and fires a callback without allocating, whether it is a plain
// func or a bound func with a pointer argument.
func TestAfterAllocatesNothing(t *testing.T) {
	e := NewEngine(1)
	fired := 0
	f := func() { fired++ }
	var got any
	arg := &fired
	g := func(a any) { got = a }
	for _, tc := range []struct {
		name  string
		round func()
	}{
		{"After", func() { e.After(1, f); e.Run(0) }},
		{"AfterArg", func() { e.AfterArg(1, g, arg); e.Run(0) }},
	} {
		tc.round()
		if n := testing.AllocsPerRun(1000, tc.round); n != 0 {
			t.Errorf("%s and Run allocate %v times per callback, want 0", tc.name, n)
		}
	}
	if fired != 1002 { // one warm-up round here, one in AllocsPerRun
		t.Errorf("%d callbacks fired, want 1002", fired)
	}
	if got != any(arg) {
		t.Errorf("AfterArg's callback got %v, want its argument %p", got, arg)
	}
}
