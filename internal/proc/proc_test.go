package proc

import (
	"testing"

	"repro/internal/careful"
	"repro/internal/cow"
	"repro/internal/fs"
	"repro/internal/kmem"
	"repro/internal/machine"
	"repro/internal/rpc"
	"repro/internal/sched"
	"repro/internal/sim"
	"repro/internal/vm"
)

type fixture struct {
	e   *sim.Engine
	m   *machine.Machine
	pts []*Table
	vms []*vm.VM
}

func newFixture(t *testing.T, cells int) *fixture {
	t.Helper()
	e := sim.NewEngine(77)
	cfg := machine.DefaultConfig()
	cfg.Nodes = cells
	cfg.MemPerNodeMB = 2
	m := machine.New(e, cfg)
	f := &fixture{e: e, m: m}
	space := kmem.NewSpace(cells)
	cellOfNode := make([]int, cells)
	for i := range cellOfNode {
		cellOfNode[i] = i
	}
	var eps []*rpc.Endpoint
	for c := 0; c < cells; c++ {
		eps = append(eps, rpc.NewEndpoint(m, c, []*machine.Processor{m.Procs[c]}, 2))
	}
	rpc.Connect(eps...)
	for c := 0; c < cells; c++ {
		v := vm.New(m, eps[c], c, []int{c}, cellOfNode, 16)
		f.vms = append(f.vms, v)
		fsys := fs.New(m, eps[c], v, c, nil, m.Nodes[c].Disk)
		reader := &careful.Reader{M: m, Space: space}
		cm := cow.New(m, eps[c], v, space, reader, c)
		s := sched.New(c, []*machine.Processor{m.Procs[c]})
		f.pts = append(f.pts, NewTable(c, cells, eps[c], s, fsys, cm, v))
	}
	return f
}

func (f *fixture) runUntil(cond func() bool, d sim.Time) bool {
	deadline := f.e.Now() + d
	for f.e.Now() < deadline {
		if cond() {
			return true
		}
		f.e.Run(f.e.Now() + sim.Millisecond)
	}
	return cond()
}

func TestSpawnReapAndPIDUniqueness(t *testing.T) {
	f := newFixture(t, 2)
	pids := map[int]bool{}
	n := 0
	for c := 0; c < 2; c++ {
		for i := 0; i < 5; i++ {
			p := f.pts[c].Spawn("w", 1, func(p *Process, tk *sim.Task) {
				p.Compute(tk, sim.Millisecond)
				n++
			})
			if pids[p.PID] {
				t.Fatalf("duplicate PID %d", p.PID)
			}
			pids[p.PID] = true
		}
	}
	if !f.runUntil(func() bool { return n == 10 }, sim.Second) {
		t.Fatalf("ran %d of 10", n)
	}
	if f.pts[0].Live()+f.pts[1].Live() != 0 {
		t.Fatal("processes not reaped")
	}
}

func TestForkWaitLocal(t *testing.T) {
	f := newFixture(t, 1)
	order := []string{}
	done := false
	f.pts[0].Spawn("parent", 1, func(p *Process, tk *sim.Task) {
		pid, err := f.pts[0].Fork(tk, p, 0, "child", func(cp *Process, ct *sim.Task) {
			ct.Sleep(5 * sim.Millisecond)
			order = append(order, "child")
		})
		if err != nil {
			t.Errorf("fork: %v", err)
			return
		}
		for _, live := f.pts[0].Get(pid); live; _, live = f.pts[0].Get(pid) {
			tk.Sleep(sim.Millisecond)
		}
		order = append(order, "parent")
		done = true
	})
	if !f.runUntil(func() bool { return done }, sim.Second) {
		t.Fatal("never finished")
	}
	if len(order) != 2 || order[0] != "child" {
		t.Fatalf("order = %v", order)
	}
}

func TestRemoteForkSanityChecks(t *testing.T) {
	f := newFixture(t, 2)
	done := false
	f.pts[0].Spawn("parent", 1, func(p *Process, tk *sim.Task) {
		defer func() { done = true }()
		// A spawn whose leaf is not local to the target is refused.
		_, _, err := f.pts[0].EP.Call(tk, f.m.Procs[0], 1, ProcSpawn,
			&spawnArgs{Name: "evil", Leaf: kmem.MakeAddr(0, 64),
				Body: func(p *Process, t *sim.Task) {}},
			rpc.CallOpts{NoHint: true})
		if err == nil {
			t.Error("foreign-leaf spawn accepted")
		}
		// A nil body is refused.
		_, _, err = f.pts[0].EP.Call(tk, f.m.Procs[0], 1, ProcSpawn,
			&spawnArgs{Name: "nobody", Leaf: kmem.MakeAddr(1, 64)},
			rpc.CallOpts{NoHint: true})
		if err == nil {
			t.Error("nil-body spawn accepted")
		}
	})
	if !f.runUntil(func() bool { return done }, sim.Second) {
		t.Fatal("never finished")
	}
}

// A process's dependencies are a set of up to 64 cells (core.MaxCells):
// both ends of the range hold, and a cell outside it is a bug Add refuses.
func TestCellsHoldSixtyFourCells(t *testing.T) {
	var s Cells
	for _, c := range []int{0, 63} {
		if s.Has(c) {
			t.Errorf("empty set has cell %d", c)
		}
		s.Add(c)
		if !s.Has(c) {
			t.Errorf("cell %d missing after Add", c)
		}
	}
	for _, c := range []int{-1, 1, 62, 64} {
		if s.Has(c) {
			t.Errorf("{0, 63} has cell %d", c)
		}
	}
	for _, c := range []int{64, -1} {
		func() {
			defer func() {
				if recover() == nil {
					t.Errorf("Add(%d) did not panic", c)
				}
			}()
			s.Add(c)
		}()
	}
}

func TestKillDependentsScopesToDeps(t *testing.T) {
	f := newFixture(t, 2)
	f.pts[0].Spawn("dependent", 1, func(p *Process, tk *sim.Task) {
		p.DependOn(1)
		for {
			p.Compute(tk, 10*sim.Millisecond)
		}
	})
	f.pts[0].Spawn("loner", 2, func(p *Process, tk *sim.Task) {
		for {
			p.Compute(tk, 10*sim.Millisecond)
		}
	})
	f.e.Run(20 * sim.Millisecond)
	killed := f.pts[0].KillDependents(1)
	if killed != 1 {
		t.Fatalf("killed = %d", killed)
	}
	f.e.Run(f.e.Now() + 50*sim.Millisecond)
	names := []string{}
	f.pts[0].Each(func(p *Process) { names = append(names, p.Name) })
	if len(names) != 1 || names[0] != "loner" {
		t.Fatalf("survivors = %v", names)
	}
}

func TestTouchAnonMappingCache(t *testing.T) {
	f := newFixture(t, 1)
	done := false
	f.pts[0].Spawn("p", 1, func(p *Process, tk *sim.Task) {
		defer func() { done = true }()
		if err := p.TouchAnon(tk, 3, true); err != nil {
			t.Errorf("touch: %v", err)
			return
		}
		misses := f.vms[0].Metrics.Counter("vm.fault_misses").Value()
		// Repeated touches hit the mapping cache, not the fault path.
		for i := 0; i < 10; i++ {
			if err := p.TouchAnon(tk, 3, true); err != nil {
				t.Errorf("retouch: %v", err)
			}
		}
		if got := f.vms[0].Metrics.Counter("vm.fault_misses").Value(); got != misses {
			t.Errorf("mapping cache missed: %d extra faults", got-misses)
		}
	})
	if !f.runUntil(func() bool { return done }, sim.Second) {
		t.Fatal("never finished")
	}
}

func TestExitReleasesImports(t *testing.T) {
	f := newFixture(t, 2)
	// A file page on cell 1 mapped writable by a process on cell 0:
	// when the process exits, the import is released and write access
	// revoked.
	var frame machine.PageNum
	setup := false
	f.pts[1].Spawn("server", 1, func(p *Process, tk *sim.Task) {
		hd, err := f.pts[1].FS.Create(tk, "/shared")
		if err != nil {
			return
		}
		f.pts[1].FS.Write(tk, hd, 1, 5)
		setup = true
	})
	if !f.runUntil(func() bool { return setup }, sim.Second) {
		t.Fatal("setup failed")
	}
	mapped := false
	f.pts[0].Spawn("mapper", 2, func(p *Process, tk *sim.Task) {
		lp := vm.LogicalPage{Obj: vm.ObjID{Kind: vm.FileObj, Home: 1, Num: 1}}
		pf, err := p.MapShared(tk, lp, true)
		if err != nil {
			t.Errorf("map: %v", err)
			return
		}
		frame = pf.Frame
		mapped = true
		tk.Sleep(10 * sim.Millisecond)
	})
	if !f.runUntil(func() bool { return mapped }, sim.Second) {
		t.Fatal("never mapped")
	}
	if f.vms[1].RemotelyWritablePages() != 1 {
		t.Fatalf("writable = %d", f.vms[1].RemotelyWritablePages())
	}
	// Wait for exit + async release.
	if !f.runUntil(func() bool { return f.vms[1].RemotelyWritablePages() == 0 }, sim.Second) {
		t.Fatal("write permission not revoked after exit")
	}
	_ = frame
}

func TestSpanningThreadIndex(t *testing.T) {
	f := newFixture(t, 2)
	idxs := map[int]bool{}
	launched := false
	f.pts[0].Spawn("launcher", 1, func(p *Process, tk *sim.Task) {
		span, err := f.pts[0].SpawnSpanning("par", 9,
			[]*Table{f.pts[0], f.pts[1]},
			func(tp *Process, tt *sim.Task) {
				idxs[tp.ThreadIndex()] = true
			})
		if err != nil || len(span.Threads) != 2 {
			t.Errorf("span: %v", err)
		}
		launched = true
	})
	if !f.runUntil(func() bool { return launched && len(idxs) == 2 }, sim.Second) {
		t.Fatalf("idxs = %v", idxs)
	}
	if !idxs[0] || !idxs[1] {
		t.Fatalf("thread indices = %v", idxs)
	}
}

func TestExecAndForkCosts(t *testing.T) {
	f := newFixture(t, 1)
	var forkCost, execCost sim.Time
	done := false
	f.pts[0].Spawn("p", 1, func(p *Process, tk *sim.Task) {
		defer func() { done = true }()
		start := tk.Now()
		_, err := f.pts[0].Fork(tk, p, 0, "c", func(cp *Process, ct *sim.Task) {})
		if err != nil {
			t.Errorf("fork: %v", err)
		}
		forkCost = tk.Now() - start
		start = tk.Now()
		f.pts[0].Exec(tk, p)
		execCost = tk.Now() - start
	})
	if !f.runUntil(func() bool { return done }, sim.Second) {
		t.Fatal("never finished")
	}
	if forkCost < ForkCost || execCost < ExecCost {
		t.Fatalf("fork=%v exec=%v", forkCost, execCost)
	}
}
