package trace

import (
	"strings"
	"testing"

	"repro/internal/sim"
)

func TestRingDroppedCounter(t *testing.T) {
	r := newRing(4, chunkLen)
	for i := 0; i < 10; i++ {
		r.Record(Event{At: sim.Time(i), Kind: Info})
	}
	if got := r.Dropped(); got != 6 {
		t.Fatalf("Dropped = %d, want 6 (10 records into cap 4)", got)
	}
}

func TestSetDroppedPerCell(t *testing.T) {
	s := NewSet(2, 4)
	// Flood cell 0's data ring; cell 1 stays under cap everywhere.
	for i := 0; i < 10; i++ {
		s.Tracer(0).Emit(sim.Time(i), SIPS, int64(i), 0, "")
	}
	s.Tracer(0).Emit(20, Hint, 1, 0, "x")
	s.Tracer(1).Emit(21, Hint, 0, 0, "y")

	ds := s.Dropped()
	if len(ds) != 2 {
		t.Fatalf("Dropped rows = %d, want 2", len(ds))
	}
	if ds[0].Cell != 0 || ds[0].Data != 6 || ds[0].Control != 0 {
		t.Fatalf("cell 0 drops = %+v, want {Cell:0 Control:0 Data:6}", ds[0])
	}
	if ds[1].Total() != 0 {
		t.Fatalf("cell 1 drops = %+v, want none", ds[1])
	}
	if s.TotalDropped() != 6 {
		t.Fatalf("TotalDropped = %d, want 6", s.TotalDropped())
	}
}

func TestNewKindsAreControlPlane(t *testing.T) {
	for _, k := range []Kind{Inject, CarefulAbort, RPCDedup} {
		if !k.control() {
			t.Errorf("%s must live on the control ring (forensics depends on it surviving data floods)", k)
		}
		if k.String() == "" || strings.HasPrefix(k.String(), "kind(") {
			t.Errorf("kind %d has no name", k)
		}
	}
}
