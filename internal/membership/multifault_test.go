// multifault_test.go — recovery under further faults: the v2 campaign's
// membership-layer guarantees. A second member dying mid-round shrinks the
// barriers instead of stranding the survivors; the round coordinator dying
// between its barriers restarts the round under the next live cell; an
// alert for a second suspect arriving while a round is busy is requeued,
// not dropped.
package membership

import (
	"testing"

	"repro/internal/sim"
)

// failMidRound fail-stops cell c the way the cell layer does on hardware
// failure: the node stops, the monitor dies, and the coordinator withdraws
// the member from any active round.
func (f *fixture) failMidRound(c int) {
	f.fail(c)
	f.mons[c].Stop()
	f.coord.CellDiedMidRound(c)
}

func TestSecondDeathMidRoundConverges(t *testing.T) {
	f := newFixture(t, 4, Oracle)
	failed := map[int]bool{}
	f.coord.OracleFailed = func(c int) bool { return failed[c] }
	var second int
	armed := false
	f.coord.OnBarrier1Open = func(join bool, suspect, coordinator int) {
		if join || armed || suspect != 1 {
			return
		}
		armed = true
		// Kill another round member while every survivor is between the
		// barriers.
		second = 3
		if coordinator == 3 {
			second = 2
		}
		failed[second] = true
		f.e.After(sim.Millisecond, func() { f.failMidRound(second) })
	}
	f.start()
	f.e.Run(30 * sim.Millisecond)
	failed[1] = true
	f.fail(1)
	if !f.runUntil(func() bool { return f.coord.LiveCount() == 2 && f.coord.RecoveryIdle() }, 3*sim.Second) {
		t.Fatalf("round never converged after mid-round death: live=%d idle=%v",
			f.coord.LiveCount(), f.coord.RecoveryIdle())
	}
	if !armed {
		t.Fatal("second fault never armed")
	}
	if f.coord.isLive(1) || f.coord.isLive(second) {
		t.Fatal("dead cells still in the live set")
	}
	// Both survivors resumed their user processes — nobody is stranded
	// frozen at a barrier that will never open.
	resumes := 0
	for _, c := range f.resumed {
		if c != 1 && c != second {
			resumes++
		}
	}
	if resumes < 2 {
		t.Fatalf("survivors not resumed: resumed=%v", f.resumed)
	}
}

func TestCoordinatorDeathMidRoundRestartsRound(t *testing.T) {
	f := newFixture(t, 4, Oracle)
	failed := map[int]bool{}
	f.coord.OracleFailed = func(c int) bool { return failed[c] }
	var deadCoord int
	armed := false
	f.coord.OnBarrier1Open = func(join bool, suspect, coordinator int) {
		if join || armed || suspect != 2 {
			return
		}
		armed = true
		deadCoord = coordinator
		failed[coordinator] = true
		f.e.After(sim.Millisecond, func() { f.failMidRound(coordinator) })
	}
	f.start()
	f.e.Run(30 * sim.Millisecond)
	failed[2] = true
	f.fail(2)
	if !f.runUntil(func() bool { return f.coord.LiveCount() == 2 && f.coord.RecoveryIdle() }, 3*sim.Second) {
		t.Fatalf("round never converged after coordinator death: live=%d", f.coord.LiveCount())
	}
	if !armed {
		t.Fatal("coordinator fault never armed")
	}
	if f.coord.RoundRestarts == 0 {
		t.Fatal("coordinator death did not restart the round")
	}
	if f.coord.isLive(2) || f.coord.isLive(deadCoord) {
		t.Fatal("dead cells still live")
	}
	// The round must have finished under a different, live coordinator.
	for _, c := range []int{0, 1, 3} {
		if c != deadCoord && !f.coord.isLive(c) {
			t.Fatalf("survivor %d lost", c)
		}
	}
}

func TestSixteenCellDoubleFaultContained(t *testing.T) {
	// The mid-round second death at the scaling suite's cell count: the
	// barriers shrink from 15 members to 14, and the fault must stay
	// contained — exactly the two faulted cells leave the live set, and
	// every one of the 14 survivors resumes its user processes.
	const cells = 16
	f := newFixture(t, cells, Oracle)
	failed := map[int]bool{}
	f.coord.OracleFailed = func(c int) bool { return failed[c] }
	var second int
	armed := false
	f.coord.OnBarrier1Open = func(join bool, suspect, coordinator int) {
		if join || armed || suspect != 1 {
			return
		}
		armed = true
		second = 9
		if coordinator == 9 {
			second = 10
		}
		failed[second] = true
		f.e.After(sim.Millisecond, func() { f.failMidRound(second) })
	}
	f.start()
	f.e.Run(30 * sim.Millisecond)
	failed[1] = true
	f.fail(1)
	if !f.runUntil(func() bool { return f.coord.LiveCount() == cells-2 && f.coord.RecoveryIdle() }, 5*sim.Second) {
		t.Fatalf("16-cell double fault never converged: live=%d idle=%v",
			f.coord.LiveCount(), f.coord.RecoveryIdle())
	}
	if !armed {
		t.Fatal("second fault never armed")
	}
	for c := 0; c < cells; c++ {
		if c == 1 || c == second {
			if f.coord.isLive(c) {
				t.Fatalf("dead cell %d still in the live set", c)
			}
			continue
		}
		if !f.coord.isLive(c) {
			t.Fatalf("fault not contained: survivor %d lost", c)
		}
	}
	// Recovery converged without thrashing: the second death shrinks the
	// running round (or at worst restarts it once); it must not ripple
	// into a restart per member.
	if f.coord.RoundRestarts > 2 {
		t.Fatalf("round restarts = %d, want <= 2", f.coord.RoundRestarts)
	}
	resumes := 0
	for _, c := range f.resumed {
		if c != 1 && c != second {
			resumes++
		}
	}
	if resumes < cells-2 {
		t.Fatalf("survivors not all resumed: %d of %d", resumes, cells-2)
	}
}

func TestSixteenCellCoordinatorDeathContained(t *testing.T) {
	// Coordinator death between the barriers at 16 cells: the 14 survivors
	// must restart the round under the next live cell, and the restart
	// count stays bounded — one death, at most a couple of restarts, never
	// a cascade across the membership.
	const cells = 16
	f := newFixture(t, cells, Oracle)
	failed := map[int]bool{}
	f.coord.OracleFailed = func(c int) bool { return failed[c] }
	var deadCoord int
	armed := false
	f.coord.OnBarrier1Open = func(join bool, suspect, coordinator int) {
		if join || armed || suspect != 5 {
			return
		}
		armed = true
		deadCoord = coordinator
		failed[coordinator] = true
		f.e.After(sim.Millisecond, func() { f.failMidRound(coordinator) })
	}
	f.start()
	f.e.Run(30 * sim.Millisecond)
	failed[5] = true
	f.fail(5)
	if !f.runUntil(func() bool { return f.coord.LiveCount() == cells-2 && f.coord.RecoveryIdle() }, 5*sim.Second) {
		t.Fatalf("16-cell coordinator death never converged: live=%d", f.coord.LiveCount())
	}
	if !armed {
		t.Fatal("coordinator fault never armed")
	}
	if f.coord.RoundRestarts == 0 {
		t.Fatal("coordinator death did not restart the round")
	}
	if f.coord.RoundRestarts > 2 {
		t.Fatalf("round restarts = %d, want <= 2 (one per coordinator death)", f.coord.RoundRestarts)
	}
	for c := 0; c < cells; c++ {
		if c == 5 || c == deadCoord {
			if f.coord.isLive(c) {
				t.Fatalf("dead cell %d still live", c)
			}
			continue
		}
		if !f.coord.isLive(c) {
			t.Fatalf("fault not contained: survivor %d lost", c)
		}
	}
}

func TestBusyRoundRequeuesAlertForSecondSuspect(t *testing.T) {
	// Two near-simultaneous independent failures: the alert for the second
	// suspect arrives while the coordinator is serving the first suspect's
	// round. It must be requeued and served after the first round drains —
	// the accuser will not re-broadcast, so dropping it would hang the
	// second recovery forever.
	f := newFixture(t, 4, Oracle)
	failed := map[int]bool{}
	f.coord.OracleFailed = func(c int) bool { return failed[c] }
	f.start()
	f.e.Run(30 * sim.Millisecond)
	failed[1] = true
	failed[2] = true
	f.failMidRound(1)
	f.failMidRound(2)
	if !f.runUntil(func() bool { return f.coord.LiveCount() == 2 && f.coord.RecoveryIdle() }, 3*sim.Second) {
		t.Fatalf("double failure never fully recovered: live=%d rounds=%d",
			f.coord.LiveCount(), f.coord.RoundsRun)
	}
	if f.coord.RoundsRun < 2 {
		t.Fatalf("rounds run = %d, want one per suspect", f.coord.RoundsRun)
	}
	if f.coord.isLive(1) || f.coord.isLive(2) {
		t.Fatal("dead cells still live")
	}
	if !f.coord.isLive(0) || !f.coord.isLive(3) {
		t.Fatal("survivors lost")
	}
}
