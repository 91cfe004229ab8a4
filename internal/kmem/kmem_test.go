package kmem

import (
	"math/rand"
	"testing"
	"testing/quick"
)

func TestAddrEncoding(t *testing.T) {
	a := MakeAddr(3, 0x1000)
	if a.Cell() != 3 || a.Offset() != 0x1000 || !a.Aligned() {
		t.Fatalf("addr %v: cell=%d off=%#x", a, a.Cell(), a.Offset())
	}
	if NilAddr.String() != "nil" {
		t.Fatalf("nil string = %q", NilAddr.String())
	}
	if MakeAddr(1, 0x1003).Aligned() {
		t.Fatal("unaligned address reported aligned")
	}
}

func TestAllocReadWrite(t *testing.T) {
	a := NewArena(2)
	addr := a.Alloc(7, 4)
	if addr.Cell() != 2 {
		t.Fatalf("cell = %d", addr.Cell())
	}
	a.WriteWord(addr, 1, 0xabc)
	v, err := a.ReadWord(addr, 1)
	if err != nil || v != 0xabc {
		t.Fatalf("read = %#x, %v", v, err)
	}
	tag, err := a.TagAt(addr)
	if err != nil || tag != 7 {
		t.Fatalf("tag = %d, %v", tag, err)
	}
	if a.Size(addr) != 4 {
		t.Fatalf("size = %d", a.Size(addr))
	}
}

func TestFreeRemovesTag(t *testing.T) {
	a := NewArena(0)
	addr := a.Alloc(7, 2)
	a.Free(addr)
	tag, err := a.TagAt(addr)
	if err != nil {
		t.Fatalf("tag read errored: %v", err)
	}
	if tag == 7 {
		t.Fatal("tag survived free — stale pointers would pass checks")
	}
	if a.Live() != 0 {
		t.Fatalf("live = %d", a.Live())
	}
	a.Free(addr) // double free is a tolerated no-op
}

func TestUnmappedReadsReturnDeterministicGarbage(t *testing.T) {
	a := NewArena(0)
	wild := MakeAddr(0, 0x424240)
	v1, err1 := a.ReadWord(wild, 3)
	v2, err2 := a.ReadWord(wild, 3)
	if err1 != nil || err2 != nil {
		t.Fatalf("errs: %v %v", err1, err2)
	}
	if v1 != v2 {
		t.Fatal("garbage not deterministic")
	}
	v3, _ := a.ReadWord(wild, 4)
	if v3 == v1 {
		t.Fatal("garbage not position-dependent")
	}
}

func TestOutOfBoundsReadIsGarbageNotPanic(t *testing.T) {
	a := NewArena(0)
	addr := a.Alloc(1, 2)
	if _, err := a.ReadWord(addr, 99); err != nil {
		t.Fatalf("oob read errored: %v", err)
	}
	a.WriteWord(addr, 99, 5) // silently vanishes
}

func TestAccessibleGate(t *testing.T) {
	a := NewArena(0)
	addr := a.Alloc(1, 1)
	a.Accessible = func() error { return ErrBusError }
	if _, err := a.ReadWord(addr, 0); err != ErrBusError {
		t.Fatalf("err = %v", err)
	}
	if _, err := a.TagAt(addr); err != ErrBusError {
		t.Fatalf("tag err = %v", err)
	}
}

func TestUnbackedRangeBusError(t *testing.T) {
	a := NewArena(0)
	far := MakeAddr(0, arenaLimit+8)
	if _, err := a.ReadWord(far, 0); err != ErrBusError {
		t.Fatalf("err = %v", err)
	}
}

func TestCorruptWord(t *testing.T) {
	a := NewArena(0)
	addr := a.Alloc(1, 3)
	a.WriteWord(addr, 2, 10)
	if !a.CorruptWord(addr, 2, 0xbad) {
		t.Fatal("corrupt failed")
	}
	v, _ := a.ReadWord(addr, 2)
	if v != 0xbad {
		t.Fatalf("v = %#x", v)
	}
	if a.CorruptWord(MakeAddr(0, 0x999940), 0, 1) {
		t.Fatal("corrupted unmapped address")
	}
}

func TestSpaceRouting(t *testing.T) {
	s := NewSpace(3)
	addr := s.Arena(1).Alloc(5, 1)
	s.Arena(1).WriteWord(addr, 0, 42)
	v, err := s.ReadWord(addr, 0)
	if err != nil || v != 42 {
		t.Fatalf("v=%d err=%v", v, err)
	}
	tag, err := s.TagAt(addr)
	if err != nil || tag != 5 {
		t.Fatalf("tag=%d err=%v", tag, err)
	}
	if _, err := s.ReadWord(MakeAddr(9, 64), 0); err != ErrBusError {
		t.Fatalf("bogus cell err = %v", err)
	}
	if s.NumCells() != 3 {
		t.Fatalf("cells = %d", s.NumCells())
	}
}

func TestAllocationsDoNotOverlap(t *testing.T) {
	a := NewArena(0)
	seen := map[uint64]bool{}
	for i := 0; i < 100; i++ {
		addr := a.Alloc(TypeTag(i), 10)
		if seen[addr.Offset()] {
			t.Fatalf("offset %#x reused", addr.Offset())
		}
		seen[addr.Offset()] = true
	}
}

// Property: round-tripping any (cell, offset) pair through an Addr is exact
// for in-range values.
func TestPropertyAddrRoundTrip(t *testing.T) {
	f := func(cell uint16, off uint32) bool {
		a := MakeAddr(int(cell), uint64(off))
		return a.Cell() == int(cell) && a.Offset() == uint64(off)
	}
	if err := quick.Check(f, nil); err != nil {
		t.Fatal(err)
	}
}

// Property: data written to distinct live objects never bleeds between them.
func TestPropertyObjectIsolation(t *testing.T) {
	f := func(vals []uint64) bool {
		if len(vals) == 0 {
			return true
		}
		a := NewArena(0)
		addrs := make([]Addr, len(vals))
		for i, v := range vals {
			addrs[i] = a.Alloc(1, 1)
			a.WriteWord(addrs[i], 0, v)
		}
		for i, v := range vals {
			got, err := a.ReadWord(addrs[i], 0)
			if err != nil || got != v {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 50}); err != nil {
		t.Fatal(err)
	}
}

// refArena is the arena as it was before objects were lazily backed: every
// object fully backed by n zeroed words. The equivalence test drives it and
// a real Arena with the same operations and requires the same answers.
type refArena struct {
	cell    int
	nextOff uint64
	objects map[uint64]*refObject
}

type refObject struct {
	tag   TypeTag
	words []uint64
}

func (r *refArena) lookup(addr Addr) *refObject {
	if addr.Cell() != r.cell {
		return nil
	}
	return r.objects[addr.Offset()]
}

func (r *refArena) alloc(tag TypeTag, n int) Addr {
	off := r.nextOff
	r.nextOff += uint64((n*WordSize + 63) / 64 * 64)
	r.objects[off] = &refObject{tag: tag, words: make([]uint64, n)}
	return MakeAddr(r.cell, off)
}

func (r *refArena) read(addr Addr, i int) uint64 {
	obj := r.lookup(addr)
	if obj == nil || i < 0 || i >= len(obj.words) {
		return garbage(addr, i)
	}
	return obj.words[i]
}

func (r *refArena) write(addr Addr, i int, v uint64) bool {
	obj := r.lookup(addr)
	if obj == nil || i < 0 || i >= len(obj.words) {
		return false
	}
	obj.words[i] = v
	return true
}

func (r *refArena) tag(addr Addr) TypeTag {
	if obj := r.lookup(addr); obj != nil {
		return obj.tag
	}
	return TypeTag(garbage(addr, -1))
}

func (r *refArena) free(addr Addr) {
	if r.lookup(addr) != nil {
		delete(r.objects, addr.Offset())
	}
}

// Property: a lazily backed arena answers every operation exactly as a
// fully backed one does — reads, tags, CorruptWord's result, the live count
// and Size — across random sequences of Alloc, WriteWord, CorruptWord,
// ReadWord, TagAt and Free, at indices −1, 0, n−1, n, past n and between.
func TestLazyBackingMatchesFullBacking(t *testing.T) {
	for seed := int64(1); seed <= 20; seed++ {
		rng := rand.New(rand.NewSource(seed))
		a := NewArena(1)
		ref := &refArena{cell: 1, nextOff: 64, objects: map[uint64]*refObject{}}
		type obj struct {
			addr Addr
			n    int
		}
		var objs []obj
		pick := func() (Addr, int) {
			if len(objs) == 0 || rng.Intn(10) == 0 {
				// Wild, foreign-cell or interior addresses.
				switch rng.Intn(3) {
				case 0:
					return MakeAddr(1, uint64(rng.Intn(1<<16))*8), 8
				case 1:
					return MakeAddr(2, 64), 8
				default:
					return MakeAddr(1, 72), 8
				}
			}
			o := objs[rng.Intn(len(objs))]
			return o.addr, o.n
		}
		index := func(n int) int {
			switch rng.Intn(7) {
			case 0:
				return -1
			case 1:
				return 0
			case 2:
				return n - 1
			case 3:
				return n
			case 4:
				return n + 1 + rng.Intn(100)
			default:
				return rng.Intn(n)
			}
		}
		for step := 0; step < 3000; step++ {
			switch op := rng.Intn(12); {
			case op == 0:
				n := 1 + rng.Intn(100)
				if rng.Intn(4) == 0 {
					n = 4098 // a COW node
				}
				tag := TypeTag(1 + rng.Intn(3))
				got, want := a.Alloc(tag, n), ref.alloc(tag, n)
				if got != want {
					t.Fatalf("seed %d step %d: Alloc = %v, want %v", seed, step, got, want)
				}
				objs = append(objs, obj{got, n})
			case op <= 3:
				addr, n := pick()
				i, v := index(n), rng.Uint64()
				a.WriteWord(addr, i, v)
				ref.write(addr, i, v)
			case op == 4:
				addr, n := pick()
				i, v := index(n), rng.Uint64()
				if got, want := a.CorruptWord(addr, i, v), ref.write(addr, i, v); got != want {
					t.Fatalf("seed %d step %d: CorruptWord(%v, %d) = %v, want %v", seed, step, addr, i, got, want)
				}
			case op <= 8:
				addr, n := pick()
				i := index(n)
				got, err := a.ReadWord(addr, i)
				if want := ref.read(addr, i); got != want || err != nil {
					t.Fatalf("seed %d step %d: ReadWord(%v, %d) = %#x, %v, want %#x", seed, step, addr, i, got, err, want)
				}
			case op <= 10:
				addr, _ := pick()
				got, err := a.TagAt(addr)
				if want := ref.tag(addr); got != want || err != nil {
					t.Fatalf("seed %d step %d: TagAt(%v) = %d, %v, want %d", seed, step, addr, got, err, want)
				}
			default:
				addr, _ := pick()
				a.Free(addr)
				ref.free(addr)
			}
			if a.Live() != len(ref.objects) {
				t.Fatalf("seed %d step %d: Live = %d, want %d", seed, step, a.Live(), len(ref.objects))
			}
		}
		for _, o := range objs {
			want := 0
			if ref.lookup(o.addr) != nil {
				want = o.n
			}
			if got := a.Size(o.addr); got != want {
				t.Fatalf("seed %d: Size(%v) = %d, want %d", seed, o.addr, got, want)
			}
		}
	}
}

// A word never written reads 0, wherever it lies in the object and however
// far the backing has grown.
func TestUnwrittenWordReadsZero(t *testing.T) {
	a := NewArena(0)
	addr := a.Alloc(1, 4098)
	if a.Size(addr) != 4098 {
		t.Fatalf("size = %d, want the nominal 4098", a.Size(addr))
	}
	check := func(when string) {
		for _, i := range []int{0, 31, 32, 100, 4097} {
			if v, err := a.ReadWord(addr, i); v != 0 || err != nil {
				t.Fatalf("%s: word %d = %#x, %v, want 0", when, i, v, err)
			}
		}
	}
	check("fresh")
	a.WriteWord(addr, 50, 7)
	check("after a write past the initial backing")
	if v, _ := a.ReadWord(addr, 50); v != 7 {
		t.Fatalf("word 50 = %d, want 7", v)
	}
	if a.Size(addr) != 4098 {
		t.Fatalf("size = %d after growth, want the nominal 4098", a.Size(addr))
	}
}

// An arena answers only for its own cell: another cell's address reads
// garbage and an unknown tag, and a write, a corruption or a free through
// it touches nothing here, even where this arena holds an object at the
// same offset.
func TestForeignCellAddressResolvesToNothing(t *testing.T) {
	a := NewArena(0)
	own := a.Alloc(7, 4)
	a.WriteWord(own, 0, 42)
	foreign := MakeAddr(1, own.Offset())

	t.Run("read", func(t *testing.T) {
		v, err := a.ReadWord(foreign, 0)
		if err != nil || v != garbage(foreign, 0) {
			t.Fatalf("read = %#x, %v, want the garbage word %#x", v, err, garbage(foreign, 0))
		}
		if tag, _ := a.TagAt(foreign); tag == 7 {
			t.Fatal("a foreign address carried this arena's type tag")
		}
	})
	t.Run("write", func(t *testing.T) {
		a.WriteWord(foreign, 0, 99)
		if a.CorruptWord(foreign, 1, 99) {
			t.Fatal("CorruptWord through a foreign address reported success")
		}
		for i, want := range []uint64{42, 0} {
			if v, _ := a.ReadWord(own, i); v != want {
				t.Fatalf("own word %d = %d after foreign writes, want %d", i, v, want)
			}
		}
	})
	t.Run("free", func(t *testing.T) {
		a.Free(foreign)
		if a.Live() != 1 {
			t.Fatalf("live = %d after freeing a foreign address, want 1", a.Live())
		}
		if tag, _ := a.TagAt(own); tag != 7 {
			t.Fatalf("own tag = %d after freeing a foreign address, want 7", tag)
		}
	})
}
