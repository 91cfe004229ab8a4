package vm

import (
	"cmp"
	"slices"
)

// pageHash is the pfdat hash of §5.1: the cell's cached pages, each filed
// under its own label, pf.LP. It is an open-addressed table with linear
// probing whose slots hold only the pfdat pointer; a lookup compares the
// label in the pfdat it reaches, so a slot needs no copy of the 32-byte
// key. It is at most half full, doubles from pageHashMin slots, and
// starts with none, so a cell that caches nothing allocates nothing. A
// delete shifts the rest of its probe run back, leaving no tombstones.
//
// A pfdat must not be relabelled while it is in the table: it would sit
// where its old label hashes. CheckInvariants reports one that is not
// found under its own label.
type pageHash struct {
	slots []*Pfdat // nil is empty; the length is 0 or a power of two
	n     int      // pfdats held
}

// pageHashMin is the table's first size.
const pageHashMin = 64

// hashPage mixes the four fields of a logical page into a slot hash by
// multiply-xor. Each field enters at the low bits, where a product
// carries it upward, and each fold brings the high half down, so the low
// bits the mask keeps depend on every field.
func hashPage(lp LogicalPage) uint64 {
	const k = 0x9e3779b97f4a7c15
	h := uint64(lp.Obj.Kind)<<8 | uint64(lp.Obj.Home)
	h = (h*k ^ uint64(lp.Obj.Num)) * k
	h = (h ^ h>>32 ^ uint64(lp.Off)) * k
	return h ^ h>>32
}

// get returns the pfdat labelled lp, or nil.
func (h *pageHash) get(lp LogicalPage) *Pfdat {
	if h.n == 0 {
		return nil
	}
	mask := uint64(len(h.slots) - 1)
	for i := hashPage(lp) & mask; ; i = (i + 1) & mask {
		if pf := h.slots[i]; pf == nil || pf.LP == lp {
			return pf
		}
	}
}

// put files pf under its label, replacing any pfdat labelled the same.
func (h *pageHash) put(pf *Pfdat) {
	if 2*(h.n+1) > len(h.slots) {
		h.grow()
	}
	mask := uint64(len(h.slots) - 1)
	for i := hashPage(pf.LP) & mask; ; i = (i + 1) & mask {
		switch cur := h.slots[i]; {
		case cur == nil:
			h.slots[i] = pf
			h.n++
			return
		case cur.LP == pf.LP:
			h.slots[i] = pf
			return
		}
	}
}

// del removes the pfdat labelled lp, if any. Each later entry of the
// probe run moves back into the hole unless its own home slot lies
// after the hole, so every entry stays reachable from its home slot.
func (h *pageHash) del(lp LogicalPage) {
	if h.n == 0 {
		return
	}
	mask := uint64(len(h.slots) - 1)
	i := hashPage(lp) & mask
	for h.slots[i] != nil && h.slots[i].LP != lp {
		i = (i + 1) & mask
	}
	if h.slots[i] == nil {
		return
	}
	for j := (i + 1) & mask; h.slots[j] != nil; j = (j + 1) & mask {
		if home := hashPage(h.slots[j].LP) & mask; (j-home)&mask >= (j-i)&mask {
			h.slots[i] = h.slots[j]
			i = j
		}
	}
	h.slots[i] = nil
	h.n--
}

// grow doubles the table and files every pfdat again.
func (h *pageHash) grow() {
	old := h.slots
	h.slots = make([]*Pfdat, max(2*len(old), pageHashMin))
	mask := uint64(len(h.slots) - 1)
	for _, pf := range old {
		if pf == nil {
			continue
		}
		i := hashPage(pf.LP) & mask
		for h.slots[i] != nil {
			i = (i + 1) & mask
		}
		h.slots[i] = pf
	}
}

// sorted returns the table's pfdats ordered by label, then frame: the
// one iteration over the table, so a sweep never depends on slot order.
func (h *pageHash) sorted() []*Pfdat {
	out := make([]*Pfdat, 0, h.n)
	for _, pf := range h.slots {
		if pf != nil {
			out = append(out, pf)
		}
	}
	slices.SortStableFunc(out, func(a, b *Pfdat) int {
		if c := a.LP.compare(b.LP); c != 0 {
			return c
		}
		return cmp.Compare(a.Frame, b.Frame)
	})
	return out
}
