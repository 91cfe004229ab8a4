package core

import (
	"testing"

	"repro/internal/membership"
	"repro/internal/proc"
	"repro/internal/sim"
	"repro/internal/vm"
)

// testConfig returns a small 4-cell machine for fast tests.
func testConfig() Config {
	cfg := DefaultConfig()
	cfg.Machine.MemPerNodeMB = 4
	return cfg
}

func TestBootAndSteadyState(t *testing.T) {
	h := Boot(testConfig())
	h.Run(1 * sim.Second)
	if h.Coord.RoundsRun != 0 {
		t.Fatalf("false alarms in steady state: %d rounds", h.Coord.RoundsRun)
	}
	if len(h.LiveCells()) != 4 {
		t.Fatalf("live cells = %d", len(h.LiveCells()))
	}
	// Clocks are ticking on every node.
	for n := 0; n < 4; n++ {
		if h.M.ClockWordValue(n) < 50 {
			t.Fatalf("node %d clock = %d after 1s", n, h.M.ClockWordValue(n))
		}
	}
}

func TestProcessLifecycle(t *testing.T) {
	h := Boot(testConfig())
	done := false
	h.Cells[0].Procs.Spawn("worker", 1, func(p *proc.Process, tk *sim.Task) {
		p.Compute(tk, 5*sim.Millisecond)
		if err := p.TouchAnon(tk, 0, true); err != nil {
			t.Errorf("touch: %v", err)
		}
		done = true
	})
	if !h.RunUntil(func() bool { return done }, sim.Second) {
		t.Fatal("process never finished")
	}
	if h.Cells[0].Procs.Live() != 0 {
		t.Fatal("process not reaped")
	}
}

func TestCrossCellForkAndWait(t *testing.T) {
	h := Boot(testConfig())
	var childRan, parentDone bool
	h.Cells[0].Procs.Spawn("parent", 1, func(p *proc.Process, tk *sim.Task) {
		if err := p.TouchAnon(tk, 3, true); err != nil {
			t.Errorf("parent touch: %v", err)
		}
		pid, err := h.Cells[0].Procs.Fork(tk, p, 2, "child", func(cp *proc.Process, ct *sim.Task) {
			// The child on cell 2 sees the parent's pre-fork page
			// through the distributed COW tree.
			if err := cp.TouchAnon(ct, 3, false); err != nil {
				t.Errorf("child touch: %v", err)
			}
			childRan = true
		})
		if err != nil {
			t.Errorf("fork: %v", err)
			return
		}
		_ = pid
		tk.Sleep(50 * sim.Millisecond)
		parentDone = true
	})
	if !h.RunUntil(func() bool { return childRan && parentDone }, sim.Second) {
		t.Fatalf("childRan=%v parentDone=%v", childRan, parentDone)
	}
}

func TestHardwareFailureDetectedAndContained(t *testing.T) {
	h := Boot(testConfig())
	// Independent work on cell 2 that must survive.
	survived := false
	var injectAt sim.Time
	h.Cells[2].Procs.Spawn("independent", 7, func(p *proc.Process, tk *sim.Task) {
		for i := 0; i < 20; i++ {
			p.Compute(tk, 10*sim.Millisecond)
		}
		survived = true
	})
	h.Run(30 * sim.Millisecond)
	injectAt = h.Eng.Now()
	h.Cells[1].FailHardware()

	if !h.RunUntil(func() bool { return h.Coord.LiveCount() == 3 }, sim.Second) {
		t.Fatal("failure never confirmed by agreement")
	}
	detect := h.Coord.LastDetectAt - injectAt
	if detect <= 0 || detect > 100*sim.Millisecond {
		t.Fatalf("detection latency = %v", detect)
	}
	if !h.RunUntil(func() bool { return survived }, 2*sim.Second) {
		t.Fatal("independent process did not survive the failure")
	}
	// The surviving cells still provide service: spawn and run a check
	// process that uses the file system.
	ok := false
	h.Cells[0].Procs.Spawn("check", 8, func(p *proc.Process, tk *sim.Task) {
		hdl, err := h.Cells[0].FS.Create(tk, "/check")
		if err != nil {
			t.Errorf("create after failure: %v", err)
			return
		}
		if err := h.Cells[0].FS.Write(tk, hdl, 4, 1); err != nil {
			t.Errorf("write after failure: %v", err)
			return
		}
		ok = true
	})
	if !h.RunUntil(func() bool { return ok }, 2*sim.Second) {
		t.Fatal("survivors not functional after recovery")
	}
}

func TestDependentProcessesKilledIndependentSurvive(t *testing.T) {
	h := Boot(testConfig())
	var indepDone bool
	// Dependent: a process on cell 0 that imports a page from cell 1.
	dep := h.Cells[0].Procs.Spawn("dependent", 1, func(p *proc.Process, tk *sim.Task) {
		// Import a remote page from a file served by cell 1.
		h1, err := h.Cells[1].FS.Create(tk, "/served")
		if err != nil {
			t.Errorf("create: %v", err)
			return
		}
		if err := h.Cells[1].FS.Write(tk, h1, 2, 3); err != nil {
			t.Errorf("write: %v", err)
			return
		}
		lp := vm.LogicalPage{Obj: vm.ObjID{Kind: vm.FileObj, Home: 1, Num: uint64(h1.Key.ID)}}
		if _, err := p.MapShared(tk, lp, false); err != nil {
			t.Errorf("map: %v", err)
			return
		}
		for {
			p.Compute(tk, 10*sim.Millisecond) // runs until killed
		}
	})
	h.Cells[0].Procs.Spawn("independent", 2, func(p *proc.Process, tk *sim.Task) {
		for i := 0; i < 15; i++ {
			p.Compute(tk, 10*sim.Millisecond)
		}
		indepDone = true
	})
	h.Run(40 * sim.Millisecond)
	h.Cells[1].FailHardware()
	if !h.RunUntil(dep.Exited, sim.Second) {
		t.Fatal("dependent process not killed by recovery")
	}
	if !h.RunUntil(func() bool { return indepDone }, 2*sim.Second) {
		t.Fatal("independent process did not complete")
	}
}

func TestPanicEngagesCutoffAndIsDetected(t *testing.T) {
	h := Boot(testConfig())
	h.Run(20 * sim.Millisecond)
	h.Cells[3].Panic("injected kernel panic")
	if !h.M.Nodes[3].CutOff() {
		t.Fatal("memory cutoff not engaged by panic")
	}
	if !h.RunUntil(func() bool { return h.Coord.LiveCount() == 3 }, sim.Second) {
		t.Fatal("panicked cell never declared dead")
	}
}

func TestVotingAgreementConfirmsRealFailure(t *testing.T) {
	cfg := testConfig()
	cfg.Agreement = membership.Vote
	h := Boot(cfg)
	h.Run(20 * sim.Millisecond)
	h.Cells[1].FailHardware()
	if !h.RunUntil(func() bool { return h.Coord.LiveCount() == 3 }, sim.Second) {
		t.Fatal("vote never confirmed the failure")
	}
}

func TestVotingAgreementRejectsFalseAlarm(t *testing.T) {
	cfg := testConfig()
	cfg.Agreement = membership.Vote
	h := Boot(cfg)
	h.Run(20 * sim.Millisecond)
	// Cell 0 falsely accuses healthy cell 2.
	h.Cells[0].Mon.Hint(2, "spurious")
	h.Run(h.Eng.Now() + 200*sim.Millisecond)
	if h.Coord.LiveCount() != 4 {
		t.Fatalf("healthy cell voted out; live = %d", h.Coord.LiveCount())
	}
	if h.Coord.FalseAlarms != 1 {
		t.Fatalf("false alarms = %d", h.Coord.FalseAlarms)
	}
}

func TestCorruptAccuserRule(t *testing.T) {
	// §4.3: a cell that broadcasts the same alert twice and is voted
	// down both times is considered corrupt by the other cells.
	cfg := testConfig()
	cfg.Agreement = membership.Vote
	h := Boot(cfg)
	h.Run(20 * sim.Millisecond)
	h.Cells[0].Mon.Hint(2, "bogus #1")
	h.Run(h.Eng.Now() + 200*sim.Millisecond)
	h.Cells[0].Mon.Hint(2, "bogus #2")
	if !h.RunUntil(func() bool { return h.Cells[0].Failed() }, 2*sim.Second) {
		t.Fatal("repeatedly-false accuser not stopped")
	}
	if !h.RunUntil(func() bool { return h.Coord.LiveCount() == 3 }, 2*sim.Second) {
		t.Fatalf("live = %d after accuser branded corrupt", h.Coord.LiveCount())
	}
	if h.Cells[2].Failed() {
		t.Fatal("falsely accused cell was stopped")
	}
}

func TestRecoveryLatencyInPaperRange(t *testing.T) {
	h := Boot(testConfig())
	h.Run(20 * sim.Millisecond)
	h.Cells[1].FailHardware()
	if !h.RunUntil(func() bool { return h.Coord.RecoveryEndAt > 0 }, sim.Second) {
		t.Fatal("recovery never completed")
	}
	lat := h.Coord.RecoveryEndAt - h.Coord.FirstDetectAt
	// §7.4: recovery latency varied between 40 and 80 ms.
	if lat < 20*sim.Millisecond || lat > 120*sim.Millisecond {
		t.Fatalf("recovery latency = %v, want tens of ms", lat)
	}
}

func TestSpanningTask(t *testing.T) {
	h := Boot(testConfig())
	tables := []*proc.Table{h.Cells[0].Procs, h.Cells[1].Procs, h.Cells[2].Procs, h.Cells[3].Procs}
	ran := 0
	var span *proc.Span
	h.Cells[0].Procs.Spawn("launcher", 1, func(p *proc.Process, tk *sim.Task) {
		var err error
		span, err = h.Cells[0].Procs.SpawnSpanning("par", 5, tables,
			func(tp *proc.Process, tt *sim.Task) {
				tp.Compute(tt, 5*sim.Millisecond)
				ran++
			})
		if err != nil {
			t.Errorf("spanning: %v", err)
		}
	})
	if !h.RunUntil(func() bool { return ran == 4 }, sim.Second) {
		t.Fatalf("threads ran = %d", ran)
	}
	if span == nil || len(span.Threads) != 4 {
		t.Fatal("span malformed")
	}
	for _, th := range span.Threads {
		for c := 0; c < 4; c++ {
			if !th.Deps[c] {
				t.Fatal("spanning thread missing whole-machine dependency")
			}
		}
	}
}

func TestSpanningTaskDiesWithAnyCell(t *testing.T) {
	h := Boot(testConfig())
	tables := []*proc.Table{h.Cells[0].Procs, h.Cells[1].Procs, h.Cells[2].Procs, h.Cells[3].Procs}
	h.Cells[0].Procs.Spawn("launcher", 1, func(p *proc.Process, tk *sim.Task) {
		h.Cells[0].Procs.SpawnSpanning("par", 5, tables,
			func(tp *proc.Process, tt *sim.Task) {
				for {
					tp.Compute(tt, 10*sim.Millisecond)
				}
			})
	})
	h.Run(50 * sim.Millisecond)
	h.Cells[3].FailHardware()
	if !h.RunUntil(func() bool {
		return h.Cells[0].Procs.Live() == 0 && h.Cells[1].Procs.Live() == 0 && h.Cells[2].Procs.Live() == 0
	}, 2*sim.Second) {
		t.Fatal("spanning task threads survived a member-cell failure")
	}
}

func TestDeterministicBoot(t *testing.T) {
	runOnce := func() sim.Time {
		h := Boot(testConfig())
		done := false
		h.Cells[0].Procs.Spawn("p", 1, func(p *proc.Process, tk *sim.Task) {
			hdl, _ := h.Cells[0].FS.Create(tk, "/tmp/x")
			h.Cells[0].FS.Write(tk, hdl, 10, 1)
			p.Compute(tk, 3*sim.Millisecond)
			done = true
		})
		var at sim.Time
		h.RunUntil(func() bool {
			if done && at == 0 {
				at = h.Eng.Now()
			}
			return done
		}, sim.Second)
		return at
	}
	if a, b := runOnce(), runOnce(); a != b {
		t.Fatalf("nondeterministic: %v vs %v", a, b)
	}
}

func TestMultiNodeCells(t *testing.T) {
	// 8 nodes in 4 cells of 2: cells span nodes, so firewall masks,
	// frame ownership, and clock ticking must all be cell-wide.
	cfg := DefaultConfig()
	cfg.Machine.Nodes = 8
	cfg.Machine.MemPerNodeMB = 2
	cfg.Cells = 4
	h := Boot(cfg)
	if len(h.Cells[0].Nodes) != 2 {
		t.Fatalf("nodes per cell = %d", len(h.Cells[0].Nodes))
	}
	// A page on node 1 is writable by node 0's processor (same cell).
	done := false
	h.Cells[0].Procs.Spawn("writer", 1, func(p *proc.Process, tk *sim.Task) {
		defer func() { done = true }()
		lo, _ := h.M.NodePages(1)
		if err := h.M.WritePage(tk, h.M.Procs[0], lo, 1); err != nil {
			t.Errorf("intra-cell cross-node write: %v", err)
		}
		// But not by another cell's processor.
		if err := h.M.WritePage(tk, h.M.Procs[2], lo, 2); err == nil {
			t.Error("cross-cell write admitted")
		}
		// Cross-cell sharing still works.
		hd, err := h.Cells[0].FS.Create(tk, "/x")
		if err != nil {
			t.Errorf("create: %v", err)
			return
		}
		h.Cells[0].FS.Write(tk, hd, 4, 9)
		lp := vm.LogicalPage{Obj: vm.ObjID{Kind: vm.FileObj, Home: 0, Num: uint64(hd.Key.ID)}}
		pf, err := h.Cells[3].VM.Fault(tk, lp, true)
		if err != nil {
			t.Errorf("remote fault: %v", err)
			return
		}
		// Both processors of cell 3 can write (group grant policy).
		if err := h.M.WritePage(tk, h.M.Procs[6], pf.Frame, 3); err != nil {
			t.Errorf("cell 3 cpu 6 write: %v", err)
		}
		if err := h.M.WritePage(tk, h.M.Procs[7], pf.Frame, 3); err != nil {
			t.Errorf("cell 3 cpu 7 write: %v", err)
		}
	})
	if !h.RunUntil(func() bool { return done }, sim.Second) {
		t.Fatal("never finished")
	}
	// Failure of a multi-node cell is detected and contained.
	h.Cells[1].FailHardware()
	if !h.RunUntil(func() bool { return h.Coord.LiveCount() == 3 }, sim.Second) {
		t.Fatal("multi-node cell failure not confirmed")
	}
	for _, c := range h.Cells {
		if c.ID != 1 && c.Failed() {
			t.Fatalf("cell %d collaterally failed", c.ID)
		}
	}
}

func TestBootRejectsUnevenPartition(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("no panic for 3 cells over 4 nodes")
		}
	}()
	cfg := DefaultConfig()
	cfg.Cells = 3
	Boot(cfg)
}

func TestInvariantsHoldThroughSharingAndFailure(t *testing.T) {
	h := Boot(testConfig())
	// Build up cross-cell sharing: files served remotely, write mappings,
	// borrowed frames.
	done := false
	h.Cells[0].Procs.Spawn("driver", 1, func(p *proc.Process, tk *sim.Task) {
		hd, err := h.Cells[1].FS.Create(tk, "/served/f")
		if err != nil {
			return
		}
		h.Cells[1].FS.Write(tk, hd, 8, 3)
		for off := int64(0); off < 8; off++ {
			lp := vm.LogicalPage{Obj: vm.ObjID{Kind: vm.FileObj, Home: 1, Num: uint64(hd.Key.ID)}, Off: off}
			if _, err := p.MapShared(tk, lp, off%2 == 0); err != nil {
				t.Errorf("map: %v", err)
			}
		}
		// Borrow frames from cell 2.
		v := h.Cells[0].VM
		for i := 0; i < 3; i++ {
			if _, err := v.AllocFrame(tk, vm.AllocOpts{Acceptable: []int{2}}); err != nil {
				t.Errorf("borrow: %v", err)
			}
		}
		tk.Sleep(20 * sim.Millisecond)
		if bad := h.CheckInvariants(); len(bad) > 0 {
			t.Errorf("invariants violated mid-run:\n%s", joinLines(bad))
		}
		done = true
		for {
			p.Compute(tk, 10*sim.Millisecond)
		}
	})
	if !h.RunUntil(func() bool { return done }, 2*sim.Second) {
		t.Fatal("driver never reached steady state")
	}
	// Now fail a cell and re-audit after recovery.
	h.Cells[1].FailHardware()
	if !h.RunUntil(func() bool { return h.Coord.LiveCount() == 3 && h.Coord.RecoveryEndAt > 0 }, 2*sim.Second) {
		t.Fatal("recovery incomplete")
	}
	h.Run(h.Now() + 300*sim.Millisecond)
	if bad := h.CheckInvariants(); len(bad) > 0 {
		t.Fatalf("invariants violated after recovery:\n%s", joinLines(bad))
	}
}

func joinLines(ss []string) string {
	out := ""
	for _, s := range ss {
		out += "  " + s + "\n"
	}
	return out
}

func TestSixteenCellScale(t *testing.T) {
	// §10: "the multicellular architecture of Hive makes it inherently
	// scalable to multiprocessors significantly larger than current
	// systems". Boot 16 cells, share across distant cells, fail two of
	// them sequentially, and audit the final state.
	cfg := DefaultConfig()
	cfg.Machine.Nodes = 16
	cfg.Machine.MemPerNodeMB = 2
	cfg.Cells = 16
	h := Boot(cfg)
	done := 0
	for i := 0; i < 16; i += 5 {
		i := i
		h.Cells[i].Procs.Spawn("worker", 1, func(p *proc.Process, tk *sim.Task) {
			hd, err := h.Cells[(i+7)%16].FS.Create(tk, "/w")
			if err != nil {
				return
			}
			h.Cells[(i+7)%16].FS.Write(tk, hd, 4, 5)
			lp := vm.LogicalPage{Obj: vm.ObjID{Kind: vm.FileObj, Home: (i + 7) % 16, Num: uint64(hd.Key.ID)}}
			if _, err := p.MapShared(tk, lp, true); err != nil {
				t.Errorf("map: %v", err)
			}
			p.Compute(tk, 20*sim.Millisecond)
			done++
		})
	}
	if !h.RunUntil(func() bool { return done == 4 }, 2*sim.Second) {
		t.Fatalf("workers done = %d", done)
	}
	h.Cells[3].FailHardware()
	if !h.RunUntil(func() bool { return h.Coord.LiveCount() == 15 }, 2*sim.Second) {
		t.Fatal("first failure not confirmed at 16 cells")
	}
	h.Run(h.Now() + 100*sim.Millisecond)
	h.Cells[11].FailHardware()
	if !h.RunUntil(func() bool { return h.Coord.LiveCount() == 14 }, 2*sim.Second) {
		t.Fatal("second failure not confirmed")
	}
	h.Run(h.Now() + 300*sim.Millisecond)
	for _, c := range h.Cells {
		if c.ID != 3 && c.ID != 11 && c.Failed() {
			t.Fatalf("cell %d collaterally failed", c.ID)
		}
	}
	if bad := h.CheckInvariants(); len(bad) > 0 {
		t.Fatalf("invariants at scale:\n%s", joinLines(bad))
	}
}
