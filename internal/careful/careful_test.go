package careful

import (
	"errors"
	"testing"

	"repro/internal/kmem"
	"repro/internal/machine"
	"repro/internal/sim"
)

type fixture struct {
	e     *sim.Engine
	m     *machine.Machine
	space *kmem.Space
	r     *Reader
	hints []int
}

func newFixture(t *testing.T) *fixture {
	t.Helper()
	e := sim.NewEngine(5)
	cfg := machine.DefaultConfig()
	cfg.Nodes = 2
	cfg.MemPerNodeMB = 1
	m := machine.New(e, cfg)
	f := &fixture{e: e, m: m, space: kmem.NewSpace(2)}
	f.r = &Reader{M: m, Space: f.space,
		HintSink: func(cell int, reason string) { f.hints = append(f.hints, cell) }}
	// Wire arena accessibility to the machine fault model (cell i on node i).
	for i := 0; i < 2; i++ {
		node := m.Nodes[i]
		f.space.Arena(i).Accessible = func() error {
			if node.Failed() || node.CutOff() {
				return kmem.ErrBusError
			}
			return nil
		}
	}
	return f
}

func (f *fixture) run(t *testing.T, fn func(tk *sim.Task)) {
	t.Helper()
	f.e.Go("test", fn)
	f.e.Run(0)
}

func TestCleanRemoteRead(t *testing.T) {
	f := newFixture(t)
	const tagT kmem.TypeTag = 9
	addr := f.space.Arena(1).Alloc(tagT, 2)
	f.space.Arena(1).WriteWord(addr, 0, 123)
	f.run(t, func(tk *sim.Task) {
		c := f.r.On(tk, f.m.Procs[0], 1)
		if !c.CheckAddr(addr) || !c.CheckTag(addr, tagT) {
			t.Errorf("checks failed: %v", c.Err())
		}
		if v := c.ReadWord(addr, 0); v != 123 {
			t.Errorf("v = %d", v)
		}
		if err := c.Off(); err != nil {
			t.Errorf("Off: %v", err)
		}
	})
	if len(f.hints) != 0 {
		t.Fatalf("hints = %v", f.hints)
	}
}

func TestNilAndMisalignedPointers(t *testing.T) {
	f := newFixture(t)
	f.run(t, func(tk *sim.Task) {
		c := f.r.On(tk, f.m.Procs[0], 1)
		if c.CheckAddr(kmem.NilAddr) {
			t.Error("nil pointer passed")
		}
		if !errors.Is(c.Off(), ErrBadPointer) {
			t.Errorf("err = %v", c.Err())
		}

		c = f.r.On(tk, f.m.Procs[0], 1)
		if c.CheckAddr(kmem.MakeAddr(1, 0x1003)) {
			t.Error("misaligned pointer passed")
		}
		c.Off()
	})
}

func TestWrongCellPointerRejected(t *testing.T) {
	f := newFixture(t)
	addr := f.space.Arena(0).Alloc(1, 1) // cell 0 object
	f.run(t, func(tk *sim.Task) {
		c := f.r.On(tk, f.m.Procs[0], 1) // expecting cell 1
		if c.CheckAddr(addr) {
			t.Error("cross-cell pointer passed")
		}
		if !errors.Is(c.Off(), ErrBadPointer) {
			t.Errorf("err = %v", c.Err())
		}
	})
}

func TestStalePointerCaughtByTag(t *testing.T) {
	f := newFixture(t)
	const tagT kmem.TypeTag = 4
	addr := f.space.Arena(1).Alloc(tagT, 1)
	f.space.Arena(1).Free(addr)
	f.run(t, func(tk *sim.Task) {
		c := f.r.On(tk, f.m.Procs[0], 1)
		if c.CheckAddr(addr) && c.CheckTag(addr, tagT) {
			t.Error("stale pointer passed tag check")
		}
		if !errors.Is(c.Off(), ErrBadTag) {
			t.Errorf("err = %v", c.Err())
		}
	})
	if len(f.hints) != 1 || f.hints[0] != 1 {
		t.Fatalf("hints = %v", f.hints)
	}
}

func TestBusErrorSurvivedNotPanic(t *testing.T) {
	f := newFixture(t)
	addr := f.space.Arena(1).Alloc(2, 1)
	f.m.Nodes[1].FailStop()
	f.run(t, func(tk *sim.Task) {
		c := f.r.On(tk, f.m.Procs[0], 1)
		c.CheckAddr(addr)
		c.ReadWord(addr, 0)
		if !errors.Is(c.Off(), ErrBusError) {
			t.Errorf("err = %v", c.Err())
		}
	})
	// The reading task survived — that is the whole point of the protocol.
	if len(f.hints) != 1 {
		t.Fatalf("hints = %v", f.hints)
	}
}

func TestCopyObjectSnapshotsBeforeChecks(t *testing.T) {
	f := newFixture(t)
	addr := f.space.Arena(1).Alloc(3, 4)
	for i := 0; i < 4; i++ {
		f.space.Arena(1).WriteWord(addr, i, uint64(i*10))
	}
	f.run(t, func(tk *sim.Task) {
		c := f.r.On(tk, f.m.Procs[0], 1)
		snap := c.CopyObject(addr, make([]uint64, 4))
		// Remote cell mutates after the copy; the snapshot must not move.
		f.space.Arena(1).WriteWord(addr, 2, 999)
		if snap[2] != 20 {
			t.Errorf("snapshot changed: %v", snap)
		}
		c.Off()
	})
}

func TestCarefulClockReadLatency(t *testing.T) {
	// §4.1: the full careful_on → clock read → careful_off sequence
	// averages 1.16 µs, of which 0.7 µs is the remote cache miss.
	f := newFixture(t)
	var elapsed sim.Time
	f.run(t, func(tk *sim.Task) {
		start := tk.Now()
		c := f.r.On(tk, f.m.Procs[0], 1)
		c.ReadClock(1)
		if err := c.Off(); err != nil {
			t.Errorf("Off: %v", err)
		}
		elapsed = tk.Now() - start
	})
	us := elapsed.Micros()
	if us < 0.9 || us > 1.4 {
		t.Fatalf("careful clock read = %.2f µs, want ≈1.16 µs", us)
	}
}

func TestClockReadOfFailedNode(t *testing.T) {
	f := newFixture(t)
	f.m.Nodes[1].FailStop()
	f.run(t, func(tk *sim.Task) {
		c := f.r.On(tk, f.m.Procs[0], 1)
		c.ReadClock(1)
		if !errors.Is(c.Off(), ErrBusError) {
			t.Errorf("err = %v", c.Err())
		}
	})
}

func TestErrorIsSticky(t *testing.T) {
	f := newFixture(t)
	f.run(t, func(tk *sim.Task) {
		c := f.r.On(tk, f.m.Procs[0], 1)
		c.CheckAddr(kmem.NilAddr)
		first := c.Err()
		// Further operations are no-ops and don't overwrite the error.
		good := f.space.Arena(1).Alloc(1, 1)
		if c.CheckAddr(good) || c.CheckTag(good, 1) || c.ReadWord(good, 0) != 0 {
			t.Error("operations proceeded after failure")
		}
		if c.CopyObject(good, make([]uint64, 1)) != nil {
			t.Error("copy proceeded after failure")
		}
		if c.Err() != first {
			t.Error("error overwritten")
		}
		c.Off()
	})
}

func TestGarbageFromWildPointerIsCaughtBySanity(t *testing.T) {
	f := newFixture(t)
	wild := kmem.MakeAddr(1, 0x77440)
	f.run(t, func(tk *sim.Task) {
		c := f.r.On(tk, f.m.Procs[0], 1)
		if !c.CheckAddr(wild) {
			t.Fatal("aligned in-range wild pointer should pass address check")
		}
		if c.CheckTag(wild, 42) {
			t.Error("wild pointer passed tag check")
		}
		if !errors.Is(c.Off(), ErrBadTag) {
			t.Errorf("err = %v", c.Err())
		}
	})
}
