package vm

import (
	"math/rand"
	"slices"
	"testing"

	"repro/internal/machine"
)

// TestPageHashMatchesMapModel drives the pfdat hash and a Go map with the
// same random puts, gets and deletes. The key space is small, so probe
// runs collide, wrap past the last slot and shift back on delete. After
// every operation the table is at most half full, and each slot is empty
// or holds one of the model's pfdats (the test marks those with Refs 1),
// reachable from its home slot through full slots: a delete that left a
// tombstone, or shifted an entry before its home slot, fails here.
func TestPageHashMatchesMapModel(t *testing.T) {
	// Percent weights of put and delete per phase of 1,000 operations;
	// the rest are gets.
	phases := [][2]int{{60, 20}, {20, 60}, {35, 35}}
	var keys []LogicalPage
	for _, kind := range []ObjKind{FileObj, AnonObj} {
		for home := 0; home < 2; home++ {
			for num := uint64(0); num < 4; num++ {
				for off := int64(0); off < 4; off++ {
					keys = append(keys, LogicalPage{Obj: ObjID{Kind: kind, Home: home, Num: num}, Off: off})
				}
			}
		}
	}
	wraps, shifts := 0, 0
	for seed := int64(1); seed <= 20; seed++ {
		rng := rand.New(rand.NewSource(seed))
		var h pageHash
		model := map[LogicalPage]*Pfdat{}
		frame := 0
		check := func(i int, op string, lp LogicalPage) {
			t.Helper()
			if got := h.get(lp); got != model[lp] {
				t.Fatalf("seed %d op %d, after %s %v: get = %p, model holds %p", seed, i, op, lp, got, model[lp])
			}
			if h.n != len(model) || 2*h.n > len(h.slots) {
				t.Fatalf("seed %d op %d, after %s %v: %d held in %d slots, model holds %d", seed, i, op, lp, h.n, len(h.slots), len(model))
			}
			// Walk the slots once from an empty one, counting the full
			// slots before each: an entry is reachable from its home slot
			// when its distance from home is no more than that run.
			mask := len(h.slots) - 1
			start := slices.Index(h.slots, nil)
			held, run := 0, 0
			for k := 1; k <= len(h.slots); k++ {
				s := (start + k) & mask
				pf := h.slots[s]
				if pf == nil {
					run = 0
					continue
				}
				held++
				if pf.Refs != 1 {
					t.Fatalf("seed %d op %d, after %s %v: slot %d holds a pfdat labelled %v the model does not", seed, i, op, lp, s, pf.LP)
				}
				home := int(hashPage(pf.LP)) & mask
				if s < home {
					wraps++
				}
				if (s-home)&mask > run {
					t.Fatalf("seed %d op %d, after %s %v: slot %d, %v, is past an empty slot from its home %d", seed, i, op, lp, s, pf.LP, home)
				}
				run++
			}
			if held != len(model) {
				t.Fatalf("seed %d op %d, after %s %v: %d slots full, model holds %d", seed, i, op, lp, held, len(model))
			}
		}
		for i := 0; i < 20_000; i++ {
			w := phases[i/1000%len(phases)]
			lp := keys[rng.Intn(len(keys))]
			switch r := rng.Intn(100); {
			case r < w[0]:
				frame++
				pf := &Pfdat{LP: lp, Frame: machine.PageNum(frame), Refs: 1}
				h.put(pf)
				if old := model[lp]; old != nil {
					old.Refs = 0
				}
				model[lp] = pf
				check(i, "put", lp)
			case r < w[0]+w[1]:
				hole := -1
				if pf := model[lp]; pf != nil {
					hole = slices.Index(h.slots, pf)
					pf.Refs = 0
				}
				h.del(lp)
				delete(model, lp)
				if hole >= 0 && h.slots[hole] != nil {
					shifts++
				}
				check(i, "delete", lp)
			default:
				check(i, "get", lp)
			}
		}
		sorted := h.sorted()
		want := make([]*Pfdat, 0, len(model))
		for _, pf := range model {
			want = append(want, pf)
		}
		slices.SortStableFunc(want, func(a, b *Pfdat) int { return a.LP.compare(b.LP) })
		if !slices.Equal(sorted, want) {
			t.Fatalf("seed %d: sorted() does not list the model's pfdats in label order", seed)
		}
	}
	if wraps == 0 || shifts == 0 {
		t.Fatalf("no probe run wrapped (%d) or shifted back (%d): the key space is too sparse", wraps, shifts)
	}
}
