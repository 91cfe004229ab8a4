package trace

import (
	"math/rand"
	"reflect"
	"runtime"
	"slices"
	"sort"
	"testing"
	"unsafe"

	"repro/internal/sim"
)

// randomSet records a random stream into a Set of 1–5 cells whose rings
// hold 1–600 events each, so streams cross a control ring's first
// doubling and wrap. Each trial draws its own mix of control and data
// kinds.
func randomSet(rng *rand.Rand) *Set {
	return randomSetOf(rng, 1+rng.Intn(5), 1+rng.Intn(600))
}

// randomSetOf is randomSet with a given shape.
func randomSetOf(rng *rand.Rand, cells, capPerCell int) *Set {
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

// newRing returns a ring as NewSet makes them: first is chunkLen for a
// data ring and ctlStart for a control ring.
func newRing(n, first int) *Ring {
	r := &Ring{}
	r.init(n, first)
	return r
}

// Events returns the ring's held events oldest-first: a copy of its runs.
func (r *Ring) Events() []Event {
	var out []Event
	for _, run := range r.runs(nil) {
		out = append(out, run...)
	}
	return out
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

func TestMergedMatchesStableSortAcrossChunks(t *testing.T) {
	// Rings of 4095 to 3·4096+6 events on one or two cells: each ring
	// holds up to four chunks, and wraps inside one.
	rng := rand.New(rand.NewSource(23))
	for trial := 0; trial < 8; trial++ {
		s := randomSetOf(rng, 1+trial%2, chunkLen-1+rng.Intn(2*chunkLen+8))
		want := referenceMerged(s)
		if got := s.Merged(); len(got) != len(want) || cap(got) != len(want) ||
			(len(want) > 0 && !reflect.DeepEqual(got, want)) {
			t.Fatalf("trial %d: Merged holds %d events (cap %d), want the stable sort's %d", trial, len(got), cap(got), len(want))
		}
	}
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

// wholeRing is a ring whose storage is allocated whole: the reference a
// chunked Ring must match.
type wholeRing struct {
	events  []Event
	next    int
	wrapped bool
	dropped uint64
}

func (w *wholeRing) record(e Event) {
	if w.wrapped {
		w.dropped++
	}
	w.events[w.next] = e
	w.next++
	if w.next == len(w.events) {
		w.next, w.wrapped = 0, true
	}
}

func (w *wholeRing) held() []Event {
	if !w.wrapped {
		return w.events[:w.next]
	}
	return append(slices.Clone(w.events[w.next:]), w.events[:w.next]...)
}

func TestChunkedRingMatchesWholeRing(t *testing.T) {
	rng := rand.New(rand.NewSource(7))
	for _, capacity := range []int{1, 255, 256, 4095, 4096, 4097, 3*chunkLen + 5} {
		for _, first := range []int{chunkLen, ctlStart} {
			for _, n := range []int{0, capacity - 1, capacity, capacity + 1, 2*capacity + 7, rng.Intn(3*capacity + 1)} {
				r := newRing(capacity, first)
				whole := &wholeRing{events: make([]Event, capacity)}
				var chunkAt []*Event // each chunk's storage once added
				for i := 0; i < n; i++ {
					e := Event{At: sim.Time(i), Seq: uint64(i + 1), Kind: Kind(rng.Intn(int(numKinds))), A: int64(i)}
					r.Record(e)
					whole.record(e)
					for c := range r.chunks[1:] {
						if c == len(chunkAt) {
							chunkAt = append(chunkAt, &r.chunks[c+1][0])
						} else if chunkAt[c] != &r.chunks[c+1][0] {
							t.Fatalf("cap %d, first %d: chunk %d moved at record %d", capacity, first, c+1, i)
						}
					}
				}
				if got, want := r.Events(), whole.held(); len(got) != len(want) ||
					(len(want) > 0 && !reflect.DeepEqual(got, want)) {
					t.Fatalf("cap %d, first %d, %d records: chunked ring holds %d events, whole ring %d",
						capacity, first, n, len(got), len(want))
				}
				if r.Dropped() != whole.dropped {
					t.Fatalf("cap %d, first %d, %d records: chunked ring dropped %d, whole ring %d",
						capacity, first, n, r.Dropped(), whole.dropped)
				}
				// The first chunk starts at first events and doubles, up to
				// a chunk; later chunks are added whole as the ring fills.
				held := min(n, capacity)
				size := min(first, capacity, chunkLen)
				for size < held && size < min(capacity, chunkLen) {
					size = min(2*size, capacity, chunkLen)
				}
				if len(r.chunks[0]) != size {
					t.Fatalf("cap %d, first %d, %d records: first chunk %d events, want %d",
						capacity, first, n, len(r.chunks[0]), size)
				}
				if want := max(1, (held+chunkLen-1)/chunkLen); len(r.chunks) != want {
					t.Fatalf("cap %d, first %d, %d records: %d chunks, want %d", capacity, first, n, len(r.chunks), want)
				}
				for c := 1; c < len(r.chunks); c++ {
					if want := min(chunkLen, capacity-c*chunkLen); len(r.chunks[c]) != want {
						t.Fatalf("cap %d: chunk %d holds %d events, want %d", capacity, c, len(r.chunks[c]), want)
					}
				}
			}
		}
	}
}

// TestNewSetAllocatesFirstChunks pins what NewSet allocates: each data
// ring's first chunk and each control ring's first 256 events, at once,
// in no more allocations than whole rings took (23 for four cells).
func TestNewSetAllocatesFirstChunks(t *testing.T) {
	const cells, capPerCell = 4, 4096
	if n := testing.AllocsPerRun(20, func() { NewSet(cells, capPerCell) }); n > 23 {
		t.Errorf("NewSet(%d, %d) makes %v allocations, want at most 23", cells, capPerCell, n)
	}
	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	const runs = 20
	for i := 0; i < runs; i++ {
		NewSet(cells, capPerCell)
	}
	runtime.ReadMemStats(&after)
	storage := uint64(cells * (capPerCell + ctlStart) * int(unsafe.Sizeof(Event{})))
	if got := (after.TotalAlloc - before.TotalAlloc) / runs; got < storage || got > storage+4096 {
		t.Errorf("NewSet(%d, %d) allocates %d bytes, want the %d bytes of its first chunks plus under 4 KB",
			cells, capPerCell, got, storage)
	}
}

func TestSinkSeesEveryEventInSeqOrder(t *testing.T) {
	rng := rand.New(rand.NewSource(3))
	s := NewSet(3, 8) // small rings, so most events are dropped
	var seen []Event
	s.SetSink(func(e Event) { seen = append(seen, e) })
	const n = 500
	for i := 0; i < n; i++ {
		s.Record(rng.Intn(4), Event{At: sim.Time(i), Kind: Kind(rng.Intn(int(numKinds))), A: int64(i)})
	}
	if len(seen) != n {
		t.Fatalf("sink saw %d events, want %d", len(seen), n)
	}
	for i, e := range seen {
		if e.Seq != uint64(i+1) || e.A != int64(i) || e.Cell < 0 || e.Cell >= 3 {
			t.Fatalf("sink event %d = %+v, want Seq %d, A %d, a clamped cell", i, e, i+1, i)
		}
	}
	// What the rings hold is the tail of what the sink saw.
	held := s.Merged()
	if uint64(len(held))+s.TotalDropped() != n {
		t.Fatalf("rings hold %d and dropped %d of %d events", len(held), s.TotalDropped(), n)
	}
	for _, e := range held {
		if !reflect.DeepEqual(e, seen[e.Seq-1]) {
			t.Fatalf("ring holds %+v, sink saw %+v", e, seen[e.Seq-1])
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
