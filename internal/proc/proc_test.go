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
		f.pts[0].Wait(tk, pid)
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
		_, err := f.pts[0].EP.Call(tk, f.m.Procs[0], 1, ProcSpawn,
			&spawnArgs{Name: "evil", Leaf: kmem.MakeAddr(0, 64),
				Body: func(p *Process, t *sim.Task) {}},
			rpc.CallOpts{NoHint: true})
		if err == nil {
			t.Error("foreign-leaf spawn accepted")
		}
		// A nil body is refused.
		_, err = f.pts[0].EP.Call(tk, f.m.Procs[0], 1, ProcSpawn,
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

func TestSignalKillsGroupAcrossCells(t *testing.T) {
	f := newFixture(t, 3)
	for c := 0; c < 3; c++ {
		c := c
		f.pts[c].Spawn("member", 42, func(p *Process, tk *sim.Task) {
			for {
				p.Compute(tk, 10*sim.Millisecond)
			}
		})
		f.pts[c].Spawn("bystander", 7, func(p *Process, tk *sim.Task) {
			tk.Sleep(200 * sim.Millisecond)
		})
		_ = c
	}
	f.e.Run(20 * sim.Millisecond)
	killDone := false
	f.pts[0].Spawn("killer", 7, func(p *Process, tk *sim.Task) {
		f.pts[0].Signal(tk, 42)
		killDone = true
	})
	if !f.runUntil(func() bool {
		if !killDone {
			return false
		}
		for c := 0; c < 3; c++ {
			alive := 0
			f.pts[c].Each(func(p *Process) {
				if p.Group == 42 {
					alive++
				}
			})
			if alive > 0 {
				return false
			}
		}
		return true
	}, sim.Second) {
		t.Fatal("group members survived the signal")
	}
	// Bystanders unharmed.
	bystanders := 0
	for c := 0; c < 3; c++ {
		f.pts[c].Each(func(p *Process) {
			if p.Name == "bystander" {
				bystanders++
			}
		})
	}
	if bystanders != 3 {
		t.Fatalf("bystanders = %d", bystanders)
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
	killed := f.pts[0].KillDependents(map[int]bool{1: true})
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

func TestMigrateMovesProcessAndState(t *testing.T) {
	f := newFixture(t, 2)
	ConnectTables(f.pts...)
	done := false
	f.pts[0].Spawn("mover", 1, func(p *Process, tk *sim.Task) {
		defer func() { done = true }()
		// Write a page pre-migration.
		if err := p.TouchAnon(tk, 5, true); err != nil {
			t.Errorf("touch: %v", err)
			return
		}
		pid := p.PID
		if err := f.pts[0].Migrate(tk, p, 1); err != nil {
			t.Errorf("migrate: %v", err)
			return
		}
		if p.Cell != 1 || p.PID != pid {
			t.Errorf("cell=%d pid=%d", p.Cell, p.PID)
		}
		if p.Leaf.Cell() != 1 {
			t.Errorf("leaf still on cell %d", p.Leaf.Cell())
		}
		// The pre-migration page is reachable through the tree (its
		// data home stays on cell 0).
		if err := p.TouchAnon(tk, 5, false); err != nil {
			t.Errorf("post-migration touch: %v", err)
		}
		if !p.Deps[0] || !p.Deps[1] {
			t.Errorf("deps = %v", p.Deps)
		}
		// Compute now runs on cell 1's scheduler.
		p.Compute(tk, sim.Millisecond)
	})
	deadline := f.e.Now() + sim.Second
	for f.e.Now() < deadline && !done {
		f.e.Run(f.e.Now() + sim.Millisecond)
	}
	if !done {
		t.Fatal("never finished")
	}
	if _, ok := f.pts[0].Get(0); ok {
		t.Fatal("stale entry on source table")
	}
	if f.pts[1].Metrics.Counter("proc.migrated_in").Value() != 1 {
		t.Fatal("migration not counted")
	}
}

func TestCheckMigrationFollowsAdvice(t *testing.T) {
	f := newFixture(t, 2)
	ConnectTables(f.pts...)
	migrated := false
	f.pts[0].Spawn("seq", 1, func(p *Process, tk *sim.Task) {
		for i := 0; i < 20; i++ {
			p.Compute(tk, 2*sim.Millisecond)
			if p.CheckMigration(tk) {
				migrated = p.Cell == 1
			}
		}
	})
	f.e.Run(5 * sim.Millisecond)
	f.pts[0].MigrateAdvice(1)
	if !f.runUntil(func() bool { return migrated }, sim.Second) {
		t.Fatal("process never followed migration advice")
	}
}

func TestMigratedProcessDiesWithOldHome(t *testing.T) {
	// The migrated process depends on its former cell (tree interior
	// nodes live there): when that cell fails, recovery kills it.
	f := newFixture(t, 2)
	ConnectTables(f.pts...)
	var moved *Process
	f.pts[0].Spawn("mover", 1, func(p *Process, tk *sim.Task) {
		p.TouchAnon(tk, 1, true)
		if err := f.pts[0].Migrate(tk, p, 1); err != nil {
			t.Errorf("migrate: %v", err)
			return
		}
		moved = p
		for {
			p.Compute(tk, 5*sim.Millisecond)
		}
	})
	if !f.runUntil(func() bool { return moved != nil }, sim.Second) {
		t.Fatal("never migrated")
	}
	if n := f.pts[1].KillDependents(map[int]bool{0: true}); n != 1 {
		t.Fatalf("killed = %d", n)
	}
}

func TestSpanningSharedAddressSpace(t *testing.T) {
	f := newFixture(t, 2)
	ConnectTables(f.pts...)
	var span *Span
	phase := 0
	f.pts[0].Spawn("launcher", 1, func(p *Process, tk *sim.Task) {
		s, err := f.pts[0].SpawnSpanning("par", 9,
			[]*Table{f.pts[0], f.pts[1]},
			func(tp *Process, tt *sim.Task) {
				idx := tp.ThreadIndex()
				if idx == 0 {
					// Thread 0 writes shared page 5 first.
					if err := tp.TouchShared(tt, 5, true); err != nil {
						t.Errorf("t0 touch: %v", err)
					}
					phase = 1
				} else {
					// Thread 1 waits, then reads the same page across
					// cells through the shared map.
					for phase == 0 {
						tt.Sleep(sim.Millisecond)
					}
					if err := tp.TouchShared(tt, 5, false); err != nil {
						t.Errorf("t1 touch: %v", err)
					}
					// And writes its own page, claimed locally.
					if err := tp.TouchShared(tt, 9, true); err != nil {
						t.Errorf("t1 write: %v", err)
					}
					phase = 2
				}
				for phase != 2 {
					tt.Sleep(sim.Millisecond)
				}
			})
		if err != nil {
			t.Errorf("spanning: %v", err)
		}
		span = s
	})
	if !f.runUntil(func() bool { return phase == 2 }, sim.Second) {
		t.Fatalf("phase = %d", phase)
	}
	f.e.Run(f.e.Now() + 50*sim.Millisecond)
	// Page 5 is homed where thread 0 lives (cell 0); page 9 on cell 1 —
	// first-writer placement.
	if got := span.SharedPageHome(5); got != 0 {
		t.Fatalf("page 5 home = %d", got)
	}
	if got := span.SharedPageHome(9); got != 1 {
		t.Fatalf("page 9 home = %d", got)
	}
	if span.SharedPages() != 2 {
		t.Fatalf("shared pages = %d", span.SharedPages())
	}
	// Thread 1's read imported the page from cell 0.
	if f.vms[1].Metrics.Counter("vm.imports").Value() == 0 {
		t.Fatal("no cross-cell import for the shared page")
	}
}
