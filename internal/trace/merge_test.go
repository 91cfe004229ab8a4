package trace

import (
	"math/rand"
	"reflect"
	"sort"
	"testing"

	"repro/internal/sim"
)

// randomSet records a random stream into a Set of 1–5 cells whose rings
// hold 1–600 events each, so streams cross a growing ring's first
// doubling and wrap. Each trial draws its own mix of control and data
// kinds.
func randomSet(rng *rand.Rand) *Set {
	cells := 1 + rng.Intn(5)
	capPerCell := 1 + rng.Intn(600)
	s := NewSet(cells, capPerCell)
	n := rng.Intn(3*capPerCell*cells + 1)
	for i := 0; i < n; i++ {
		s.Record(rng.Intn(cells), Event{
			At:   sim.Time(i),
			Kind: Kind(rng.Intn(int(numKinds))),
			A:    int64(i),
		})
	}
	return s
}

// Events returns the ring's held events oldest-first: a copy of its two
// runs.
func (r *Ring) Events() []Event {
	older, newer := r.held()
	out := make([]Event, 0, len(older)+len(newer))
	out = append(out, older...)
	return append(out, newer...)
}

// referenceMerged is the merge Merged replaces: every ring's Events(),
// concatenated and stable-sorted by Seq.
func referenceMerged(s *Set) []Event {
	var all []Event
	for i := range s.ctl {
		all = append(all, s.ctl[i].Events()...)
		all = append(all, s.data[i].Events()...)
	}
	sort.SliceStable(all, func(a, b int) bool { return all[a].Seq < all[b].Seq })
	return all
}

func TestMergedMatchesStableSort(t *testing.T) {
	rng := rand.New(rand.NewSource(19))
	for trial := 0; trial < 120; trial++ {
		s := randomSet(rng)
		want := referenceMerged(s)
		got := s.Merged()
		if len(got) != len(want) || cap(got) != len(want) {
			t.Fatalf("trial %d: Merged holds %d events (cap %d), want %d", trial, len(got), cap(got), len(want))
		}
		if len(want) > 0 && !reflect.DeepEqual(got, want) {
			t.Fatalf("trial %d: Merged differs from the stable sort", trial)
		}
		for k := Kind(0); k < numKinds; k++ {
			var wantK []Event
			for _, e := range want {
				if e.Kind == k {
					wantK = append(wantK, e)
				}
			}
			if gotK := s.Filter(k); !reflect.DeepEqual(gotK, wantK) {
				t.Fatalf("trial %d: Filter(%v) holds %d events, want %d", trial, k, len(gotK), len(wantK))
			}
		}
		for _, n := range []int{-1, 0, 1, len(want) / 2, len(want), len(want) + 1} {
			wantT := want
			if n > 0 && n < len(want) {
				wantT = want[len(want)-n:]
			}
			if gotT := s.Tail(n); len(gotT) != len(wantT) || (len(wantT) > 0 && !reflect.DeepEqual(gotT, wantT)) {
				t.Fatalf("trial %d: Tail(%d) holds %d events, want %d", trial, n, len(gotT), len(wantT))
			}
		}
	}
}

func TestGrowingRingMatchesWholeRing(t *testing.T) {
	rng := rand.New(rand.NewSource(7))
	for trial := 0; trial < 300; trial++ {
		capacity := 1 + rng.Intn(600)
		whole, grown := NewRing(capacity), newGrowingRing(capacity)
		n := rng.Intn(3*capacity + 1)
		for i := 0; i < n; i++ {
			e := Event{At: sim.Time(i), Seq: uint64(i + 1), Kind: Kind(rng.Intn(int(numKinds))), A: int64(i)}
			whole.Record(e)
			grown.Record(e)
		}
		if got, want := grown.Events(), whole.Events(); len(got) != len(want) ||
			(len(want) > 0 && !reflect.DeepEqual(got, want)) {
			t.Fatalf("trial %d (cap %d, %d records): grown ring holds %d events, whole ring %d",
				trial, capacity, n, len(got), len(want))
		}
		if grown.Dropped() != whole.Dropped() {
			t.Fatalf("trial %d: grown ring dropped %d, whole ring %d", trial, grown.Dropped(), whole.Dropped())
		}
		// Storage doubles from growStart, capped at the ring's capacity.
		size := min(growStart, capacity)
		for size < n && size < capacity {
			size = min(2*size, capacity)
		}
		if len(grown.events) != size {
			t.Fatalf("trial %d (cap %d, %d records): storage %d events, want %d",
				trial, capacity, n, len(grown.events), size)
		}
	}
}

// BenchmarkMerged merges a 4-cell Set at the campaign's 65,536-event cap,
// filled the way the MsgDrop trial fills it: a few hundred control events
// per cell, two data rings wrapped and two at about 41k events.
func BenchmarkMerged(b *testing.B) {
	const capPerCell = 65536
	s := NewSet(4, capPerCell)
	rng := rand.New(rand.NewSource(1))
	dataLeft := []int{80000, 80000, 41000, 41000}
	ctlLeft := []int{170, 170, 170, 170}
	for sum(dataLeft)+sum(ctlLeft) > 0 {
		cell := rng.Intn(4)
		switch {
		case ctlLeft[cell] > 0 && rng.Intn(400) == 0:
			ctlLeft[cell]--
			s.Record(cell, Event{Kind: MsgDrop, A: int64(cell)})
		case dataLeft[cell] > 0:
			dataLeft[cell]--
			s.Record(cell, Event{Kind: SIPS, A: int64(cell)})
		case ctlLeft[cell] > 0:
			ctlLeft[cell]--
			s.Record(cell, Event{Kind: MsgDrop, A: int64(cell)})
		}
	}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if len(s.Merged()) == 0 {
			b.Fatal("empty merge")
		}
	}
}

func sum(xs []int) int {
	n := 0
	for _, x := range xs {
		n += x
	}
	return n
}
