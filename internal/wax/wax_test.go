package wax

import (
	"testing"

	"repro/internal/core"
	"repro/internal/proc"
	"repro/internal/sim"
)

func testHive() *core.Hive {
	cfg := core.DefaultConfig()
	cfg.Machine.MemPerNodeMB = 4
	return core.Boot(cfg)
}

func TestWaxThreadsSpanAllCells(t *testing.T) {
	h := testHive()
	w := Start(h)
	h.Run(200 * sim.Millisecond)
	if !w.Alive() {
		t.Fatal("wax died in steady state")
	}
	if len(w.threads) != 4 {
		t.Fatalf("threads = %d", len(w.threads))
	}
	cells := map[int]bool{}
	for _, p := range w.threads {
		cells[p.Cell] = true
	}
	if len(cells) != 4 {
		t.Fatalf("threads span %d cells", len(cells))
	}
	if w.Metrics.Counter("wax.policy_rounds").Value() == 0 {
		t.Fatal("no policy rounds ran")
	}
	w.Stop()
}

func TestWaxRetargetsAllocationUnderPressure(t *testing.T) {
	h := testHive()
	w := Start(h)
	// Drain cell 0's free pool to put it under pressure.
	h.Eng.Go("drain", func(tk *sim.Task) {
		v := h.Cells[0].VM
		for v.FreePages() > 8 {
			f, err := v.AllocFrame(tk)
			if err != nil {
				break
			}
			_ = f
		}
	})
	h.Run(300 * sim.Millisecond)
	if w.AllocRetargets == 0 {
		t.Fatal("Wax never retargeted allocation despite pressure")
	}
	if len(h.Cells[0].VM.AllocTargets) == 0 {
		t.Fatal("pressured cell got no borrow targets")
	}
	for _, tc := range h.Cells[0].VM.AllocTargets {
		if tc == 0 {
			t.Fatal("cell told to borrow from itself")
		}
	}
	w.Stop()
}

func TestWaxInstallsPlacementHints(t *testing.T) {
	h := testHive()
	w := Start(h)
	h.Run(300 * sim.Millisecond)
	if w.PlaceRetargets == 0 {
		t.Fatal("Wax never installed placement hints")
	}
	for i, c := range h.Cells {
		if len(c.PlaceTargets) == 0 {
			t.Fatalf("cell %d got no spill list", i)
		}
		seen := map[int]bool{}
		for _, tc := range c.PlaceTargets {
			if tc == i {
				t.Fatalf("cell %d told to spill to itself", i)
			}
			if tc < 0 || tc >= len(h.Cells) {
				t.Fatalf("cell %d has out-of-range spill target %d", i, tc)
			}
			if seen[tc] {
				t.Fatalf("cell %d spill list repeats target %d", i, tc)
			}
			seen[tc] = true
		}
	}
	w.Stop()
}

func TestWaxDiesWithAnyCellAndSupervisorRestarts(t *testing.T) {
	h := testHive()
	sup := Supervise(h)
	first := sup.Cur
	h.Run(120 * sim.Millisecond)
	if !first.Alive() {
		t.Fatal("wax died prematurely")
	}
	h.Cells[2].FailHardware()
	if !h.RunUntil(func() bool { return !first.Alive() }, sim.Second) {
		t.Fatal("wax survived a cell failure")
	}
	if !h.RunUntil(func() bool { return sup.Restarts > 0 && sup.Cur.Alive() }, 2*sim.Second) {
		t.Fatal("supervisor never restarted wax")
	}
	// The new incarnation only spans live cells.
	for _, p := range sup.Cur.threads {
		if p.Cell == 2 {
			t.Fatal("new wax has a thread on the dead cell")
		}
	}
	sup.Stop()
}

func TestCellRejectsBadWaxHints(t *testing.T) {
	h := testHive()
	if err := h.Cells[0].ApplyAllocTargets([]int{0}); err == nil {
		t.Error("self target accepted")
	}
	if err := h.Cells[0].ApplyAllocTargets([]int{99}); err == nil {
		t.Error("out-of-range target accepted")
	}
	if err := h.Cells[0].ApplyAllocTargets([]int{1, 1}); err == nil {
		t.Error("duplicate targets accepted")
	}
	h.Cells[3].FailHardware()
	if err := h.Cells[0].ApplyAllocTargets([]int{3}); err == nil {
		t.Error("dead target accepted")
	}
	if h.Cells[0].Metrics.Counter("cell.wax_hints_rejected").Value() != 4 {
		t.Error("rejections not counted")
	}
}

func TestClockHandReturnsIdleBorrows(t *testing.T) {
	h := testHive()
	done := false
	h.Cells[0].Procs.Spawn("borrower", 1, func(p *proc.Process, tk *sim.Task) {
		v := h.Cells[0].VM
		// Drain local pool, then borrow from cell 1.
		for v.FreePages() > 0 {
			if _, err := v.AllocFrame(tk); err != nil {
				break
			}
		}
		if _, err := v.BorrowFrom(tk, 1); err != nil {
			t.Errorf("borrow: %v", err)
		}
		// Free one borrowed frame back into the local pool so it is idle.
		done = true
	})
	if !h.RunUntil(func() bool { return done }, sim.Second) {
		t.Fatal("setup never finished")
	}
	if h.Cells[0].VM.BorrowedFrames() == 0 {
		t.Fatal("no borrowed frames")
	}
	borrowedBefore := h.Cells[0].VM.BorrowedFrames()
	ok := false
	h.Eng.Go("hint", func(tk *sim.Task) {
		ok = h.Cells[0].ApplyClockHand(tk, 1)
	})
	h.Run(h.Eng.Now() + 100*sim.Millisecond)
	if !ok {
		t.Fatal("clock-hand hint returned nothing")
	}
	if h.Cells[0].VM.BorrowedFrames() >= borrowedBefore {
		t.Fatal("borrowed frames not reduced")
	}
}
