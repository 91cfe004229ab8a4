// Package kmem models each cell's kernel memory as a word-addressed arena
// that other cells may read directly through shared memory (§4.1 of the
// paper). It exists to make remote reads *dangerous in the same ways they
// are on real hardware*: a wild pointer dereference returns garbage rather
// than failing cleanly, a pointer into a failed node's memory raises a bus
// error, and a freed object's allocator-written type tag is gone — exactly
// the hazards the careful reference protocol defends against.
package kmem

import (
	"errors"
	"fmt"
	"sort"
)

// Addr is a simulated kernel virtual address: cell number in the high 16
// bits, byte offset in the low 48. The zero Addr is the nil pointer.
type Addr uint64

// NilAddr is the nil kernel pointer.
const NilAddr Addr = 0

// WordSize is the machine word size in bytes; all kernel objects are
// word-aligned arrays of words.
const WordSize = 8

// arenaLimit bounds each cell's kernel address space; addresses beyond it
// are not backed by memory and raise bus errors.
const arenaLimit = 1 << 40

// MakeAddr builds an address from a cell and byte offset.
func MakeAddr(cell int, off uint64) Addr {
	return Addr(uint64(cell)<<48 | off&(1<<48-1))
}

// Cell extracts the owning cell number.
func (a Addr) Cell() int { return int(a >> 48) }

// Offset extracts the byte offset within the cell's arena.
func (a Addr) Offset() uint64 { return uint64(a) & (1<<48 - 1) }

// Aligned reports whether the address is word-aligned.
func (a Addr) Aligned() bool { return a.Offset()%WordSize == 0 }

// String formats the address for diagnostics.
func (a Addr) String() string {
	if a == NilAddr {
		return "nil"
	}
	return fmt.Sprintf("cell%d:0x%x", a.Cell(), a.Offset())
}

// TypeTag identifies the type of an allocated kernel object. The allocator
// writes it and the deallocator removes it (§4.1), so a stale pointer's tag
// check fails.
type TypeTag uint32

// ErrBusError is raised for addresses outside any backed range or on a
// failed/cut-off node.
var ErrBusError = errors.New("kmem: bus error")

// initialBacking is the most words an object is backed by at Alloc.
const initialBacking = 32

// object is one allocated kernel object of n words. Only a prefix of them
// is backed: the backing starts at min(n, initialBacking) words and
// doubles, capped at n, when a write lands past it. A word past the backing
// has never been written and reads 0, as it would from a zeroed array.
// A COW node is 4,098 words, most of them never written.
type object struct {
	tag   TypeTag
	n     int
	words []uint64
}

// set stores v into word i (0 <= i < n), growing the backing to reach it.
func (o *object) set(i int, v uint64) {
	if i >= len(o.words) {
		size := 2 * len(o.words)
		for size <= i {
			size *= 2
		}
		words := make([]uint64, min(size, o.n))
		copy(words, o.words)
		o.words = words
	}
	o.words[i] = v
}

// Arena is one cell's kernel heap.
type Arena struct {
	cell    int
	objects map[uint64]*object // keyed by byte offset
	nextOff uint64

	// Accessible, if set, gates every access with the machine fault
	// model (bus error when the backing node failed or is cut off).
	Accessible func() error

	allocs, frees int64
}

// NewArena returns an empty arena for the given cell.
func NewArena(cell int) *Arena {
	return &Arena{
		cell:    cell,
		objects: make(map[uint64]*object),
		nextOff: 64, // keep offset 0 unmapped so NilAddr never resolves
	}
}

// Reset discards every object and returns the arena to its freshly-booted
// state, keeping the *Arena pointer itself valid: peers hold the pointer
// through Space, so a cell microboot must empty the heap in place rather
// than swap in a new arena. The Accessible gate is left for the caller to
// rebind (the fresh cell image installs its own).
func (a *Arena) Reset() {
	a.objects = make(map[uint64]*object)
	a.nextOff = 64
	a.allocs, a.frees = 0, 0
}

// Alloc allocates an object of nwords words with the given type tag and
// returns its address. Objects are 64-byte aligned like real allocations,
// and the address space advances by the whole object however little of it
// is backed.
func (a *Arena) Alloc(tag TypeTag, nwords int) Addr {
	if nwords <= 0 {
		panic("kmem: non-positive allocation")
	}
	off := a.nextOff
	a.nextOff += uint64((nwords*WordSize + 63) / 64 * 64)
	a.objects[off] = &object{tag: tag, n: nwords, words: make([]uint64, min(nwords, initialBacking))}
	a.allocs++
	return MakeAddr(a.cell, off)
}

// Free releases the object at addr, removing its type tag. Freeing an
// unknown address, or another cell's, is a no-op (double frees are a kernel
// bug we tolerate in simulation rather than crash the host).
func (a *Arena) Free(addr Addr) {
	if a.lookup(addr) != nil {
		delete(a.objects, addr.Offset())
		a.frees++
	}
}

// EachTagged calls fn for every live object carrying the given type tag,
// in address order — the deterministic iteration the kernel's periodic
// consistency audits need.
func (a *Arena) EachTagged(tag TypeTag, fn func(Addr)) {
	offs := make([]uint64, 0, len(a.objects))
	for off, obj := range a.objects {
		if obj.tag == tag {
			offs = append(offs, off)
		}
	}
	sort.SliceStable(offs, func(i, j int) bool { return offs[i] < offs[j] })
	for _, off := range offs {
		fn(MakeAddr(a.cell, off))
	}
}

// garbage produces a deterministic junk word for unmapped reads, so wild
// pointer traversals behave identically across runs.
func garbage(addr Addr, i int) uint64 {
	x := uint64(addr) ^ uint64(i)*0x9e3779b97f4a7c15
	x ^= x >> 33
	x *= 0xff51afd7ed558ccd
	x ^= x >> 33
	return x
}

// lookup finds the object containing addr, if any. addr may point at the
// object's base only (interior pointers read garbage — matching the paper's
// alignment check, which rejects them before any read), and must name this
// arena's cell: another cell's address resolves to nothing here, however
// its offset falls.
func (a *Arena) lookup(addr Addr) *object {
	if addr.Cell() != a.cell {
		return nil
	}
	return a.objects[addr.Offset()]
}

// check validates that addr is backed by this arena's address range.
func (a *Arena) check(addr Addr) error {
	if a.Accessible != nil {
		if err := a.Accessible(); err != nil {
			return err
		}
	}
	if addr.Offset() >= arenaLimit {
		return ErrBusError
	}
	return nil
}

// ReadWord reads word i of the object at addr. Unmapped or out-of-bounds
// reads return deterministic garbage with a nil error — like real memory.
// Bus errors are returned only per the fault model (failed node, unbacked
// address range).
func (a *Arena) ReadWord(addr Addr, i int) (uint64, error) {
	if err := a.check(addr); err != nil {
		return 0, err
	}
	obj := a.lookup(addr)
	if obj == nil || i < 0 || i >= obj.n {
		return garbage(addr, i), nil
	}
	if i >= len(obj.words) {
		return 0, nil
	}
	return obj.words[i], nil
}

// WriteWord stores v into word i of the object at addr; only the owning
// cell's kernel calls this (cells never write each other's internals, §3.1).
// Writes to unmapped addresses vanish, like stores to reused memory.
func (a *Arena) WriteWord(addr Addr, i int, v uint64) {
	obj := a.lookup(addr)
	if obj == nil || i < 0 || i >= obj.n {
		return
	}
	obj.set(i, v)
}

// TagAt reads the allocator type tag at addr. Unmapped addresses yield a
// garbage tag (with nil error), which is precisely what a stale pointer
// check must detect.
func (a *Arena) TagAt(addr Addr) (TypeTag, error) {
	if err := a.check(addr); err != nil {
		return 0, err
	}
	obj := a.lookup(addr)
	if obj == nil {
		return TypeTag(garbage(addr, -1)), nil
	}
	return obj.tag, nil
}

// CorruptWord overwrites word i at addr regardless of bounds bookkeeping —
// the software fault injector's hook (§7.4 corrupts kernel data structures
// in place).
func (a *Arena) CorruptWord(addr Addr, i int, v uint64) bool {
	obj := a.lookup(addr)
	if obj == nil || i < 0 || i >= obj.n {
		return false
	}
	obj.set(i, v)
	return true
}

// Space is the collection of every cell's arena: the machine-wide kernel
// address space view used for cross-cell reads.
type Space struct {
	arenas []*Arena
}

// NewSpace creates arenas for n cells.
func NewSpace(n int) *Space {
	s := &Space{}
	for i := 0; i < n; i++ {
		s.arenas = append(s.arenas, NewArena(i))
	}
	return s
}

// Arena returns cell c's arena.
func (s *Space) Arena(c int) *Arena { return s.arenas[c] }

// ReadWord resolves addr to its owning arena and reads word i. An address
// naming a nonexistent cell is a bus error.
func (s *Space) ReadWord(addr Addr, i int) (uint64, error) {
	c := addr.Cell()
	if c < 0 || c >= len(s.arenas) {
		return 0, ErrBusError
	}
	return s.arenas[c].ReadWord(addr, i)
}

// TagAt resolves addr and reads its type tag.
func (s *Space) TagAt(addr Addr) (TypeTag, error) {
	c := addr.Cell()
	if c < 0 || c >= len(s.arenas) {
		return 0, ErrBusError
	}
	return s.arenas[c].TagAt(addr)
}
