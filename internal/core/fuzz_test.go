package core

import (
	"slices"
	"testing"

	"repro/internal/trace"
)

// FuzzWaxTargets feeds arbitrary target hints across the Wax trust
// boundary (§3.2: a damaged Wax may cost performance, never correctness).
// An input is a hint kind (place or alloc), a receiving cell and a target
// list, one signed byte per target, applied to a booted 4-cell hive whose
// cell 3 has failed. The list is installed, as a copy, exactly when it
// holds at most 4 live cells other than the receiver with no repeats;
// otherwise the call errs and the installed list is unchanged. Either way
// the hint is counted once, applied or rejected, and traced once.
func FuzzWaxTargets(f *testing.F) {
	// The rejections TestCellRejectsBadWaxHints (internal/wax) makes:
	// self, out of range, repeated, dead.
	f.Add(false, uint8(0), []byte{0})
	f.Add(false, uint8(0), []byte{99})
	f.Add(false, uint8(0), []byte{1, 1})
	f.Add(false, uint8(0), []byte{3})
	// One accepted list per hint.
	f.Add(false, uint8(0), []byte{2, 1})
	f.Add(true, uint8(1), []byte{0, 2})

	h := Boot(testConfig())
	defer h.Eng.Stop()
	h.Cells[3].FailHardware()
	var hints []trace.Event
	h.Trace.SetSink(func(ev trace.Event) {
		if ev.Kind == trace.WaxHint {
			hints = append(hints, ev)
		}
	})

	f.Fuzz(func(t *testing.T, place bool, receiver uint8, list []byte) {
		c := h.Cells[int(receiver)%len(h.Cells)]
		targets := make([]int, len(list))
		for i, b := range list {
			targets[i] = int(int8(b))
		}
		valid := len(targets) <= len(h.Cells)
		for i, tc := range targets {
			valid = valid && tc >= 0 && tc < len(h.Cells) && tc != c.ID &&
				!h.Cells[tc].Failed() && !slices.Contains(targets[:i], tc)
		}
		installed, apply, name := &c.VM.AllocTargets, c.ApplyAllocTargets, "alloc-targets"
		if place {
			installed, apply, name = &c.PlaceTargets, c.ApplyPlaceTargets, "place-targets"
		}
		before := slices.Clone(*installed)
		applied := c.Metrics.Counter("cell.wax_hints_applied").Value()
		rejected := c.Metrics.Counter("cell.wax_hints_rejected").Value()
		hints = hints[:0]

		err := apply(targets)

		if valid != (err == nil) {
			t.Fatalf("%s %v on cell %d: err = %v, want valid=%v", name, targets, c.ID, err, valid)
		}
		want, wantB := before, int64(0)
		if valid {
			want, wantB = targets, 1
			applied++
		} else {
			rejected++
		}
		if !slices.Equal(*installed, want) {
			t.Fatalf("%s %v on cell %d: installed %v, want %v", name, targets, c.ID, *installed, want)
		}
		if valid && len(targets) > 0 {
			targets[0] = -1
			if (*installed)[0] == -1 {
				t.Fatalf("%s installed the caller's slice, not a copy", name)
			}
		}
		if a, r := c.Metrics.Counter("cell.wax_hints_applied").Value(),
			c.Metrics.Counter("cell.wax_hints_rejected").Value(); a != applied || r != rejected {
			t.Fatalf("%s %v: applied/rejected counters %d/%d, want %d/%d", name, targets, a, r, applied, rejected)
		}
		if len(hints) != 1 || hints[0].Cell != c.ID || hints[0].S != name || hints[0].B != wantB {
			t.Fatalf("%s %v on cell %d: WaxHint events %+v, want one with B=%d", name, targets, c.ID, hints, wantB)
		}
	})
}
