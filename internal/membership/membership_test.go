package membership

import (
	"testing"

	"repro/internal/machine"
	"repro/internal/rpc"
	"repro/internal/sim"
)

// fixture builds N single-node cells with monitors wired to a coordinator
// and simple in-test recovery hooks.
type fixture struct {
	e     *sim.Engine
	m     *machine.Machine
	coord *Coordinator
	mons  []*Monitor
	eps   []*rpc.Endpoint

	suspended []int
	resumed   []int
	phase1s   []int
	phase2s   []int
	finishes  []int
	panics    []int
}

func newFixture(t *testing.T, cells int, mode AgreementMode) *fixture {
	t.Helper()
	e := sim.NewEngine(99)
	cfg := machine.DefaultConfig()
	cfg.Nodes = cells
	cfg.MemPerNodeMB = 1
	m := machine.New(e, cfg)
	nodesByCell := make([][]int, cells)
	for i := range nodesByCell {
		nodesByCell[i] = []int{i}
	}
	f := &fixture{e: e, m: m, coord: NewCoordinator(cells, nodesByCell, mode)}
	for c := 0; c < cells; c++ {
		ep := rpc.NewEndpoint(m, c, []*machine.Processor{m.Procs[c]}, 2)
		f.eps = append(f.eps, ep)
	}
	rpc.Connect(f.eps...)
	for c := 0; c < cells; c++ {
		c := c
		mon := NewMonitor(m, f.eps[c], f.coord, c, []int{c})
		mon.Hooks = Hooks{
			SuspendUser: func() { f.suspended = append(f.suspended, c) },
			ResumeUser:  func() { f.resumed = append(f.resumed, c) },
			Phase1:      func(t *sim.Task) { f.phase1s = append(f.phase1s, c) },
			Phase2: func(t *sim.Task, failed map[int]bool) int {
				f.phase2s = append(f.phase2s, c)
				return 0
			},
			Finish: func() { f.finishes = append(f.finishes, c) },
			Panic: func(reason string) {
				f.panics = append(f.panics, c)
				f.mons[c].Stop()
				f.coord.CellDiedMidRound(c)
			},
		}
		f.mons = append(f.mons, mon)
	}
	return f
}

func (f *fixture) start() {
	for _, mon := range f.mons {
		mon.Start()
	}
}

// fail fail-stops a cell's node and tells the oracle.
func (f *fixture) fail(c int) {
	f.m.Nodes[c].FailStop()
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

func TestClockMonitorDetectsHaltedNeighbor(t *testing.T) {
	f := newFixture(t, 3, Oracle)
	failed := map[int]bool{}
	f.coord.OracleFailed = func(c int) bool { return failed[c] }
	f.start()
	f.e.Run(50 * sim.Millisecond)
	if f.coord.RoundsRun != 0 {
		t.Fatalf("false alarms: %d", f.coord.RoundsRun)
	}
	failed[1] = true
	f.fail(1)
	if !f.runUntil(func() bool { return f.coord.LiveCount() == 2 }, sim.Second) {
		t.Fatal("failure never confirmed")
	}
	f.e.Run(f.e.Now() + 300*sim.Millisecond) // let recovery phases finish
	// Every survivor suspended, ran both phases, finished, resumed.
	if len(f.phase1s) != 2 || len(f.phase2s) != 2 || len(f.finishes) != 2 {
		t.Fatalf("phases = %v %v %v", f.phase1s, f.phase2s, f.finishes)
	}
	if len(f.suspended) < 2 || len(f.resumed) < 2 {
		t.Fatalf("suspend/resume = %v/%v", f.suspended, f.resumed)
	}
}

func TestNeighborRingRetargets(t *testing.T) {
	f := newFixture(t, 4, Oracle)
	if nb := f.coord.neighborOf(3); nb != 0 {
		t.Fatalf("neighbor of 3 = %d", nb)
	}
	delete(f.coord.live, 0)
	if nb := f.coord.neighborOf(3); nb != 1 {
		t.Fatalf("neighbor of 3 after death of 0 = %d", nb)
	}
}

func TestOracleRejectsFalseAlarm(t *testing.T) {
	f := newFixture(t, 3, Oracle)
	f.coord.OracleFailed = func(c int) bool { return false }
	f.start()
	f.e.Run(30 * sim.Millisecond)
	f.mons[0].Hint(2, "spurious")
	f.e.Run(f.e.Now() + 300*sim.Millisecond)
	if f.coord.LiveCount() != 3 {
		t.Fatalf("live = %d", f.coord.LiveCount())
	}
	if f.coord.FalseAlarms != 1 {
		t.Fatalf("false alarms = %d", f.coord.FalseAlarms)
	}
	if len(f.phase1s) != 0 {
		t.Fatal("recovery phases ran on a false alarm")
	}
	// The suspect is never alerted, so only the two accuser-side members
	// suspend and resume.
	if len(f.resumed) < 2 {
		t.Fatalf("user processes not resumed: %v", f.resumed)
	}
}

func TestVoteConfirmsAndRejects(t *testing.T) {
	f := newFixture(t, 4, Vote)
	f.start()
	f.e.Run(30 * sim.Millisecond)
	// False accusation first.
	f.mons[0].Hint(2, "bogus")
	f.e.Run(f.e.Now() + 300*sim.Millisecond)
	if f.coord.LiveCount() != 4 || f.coord.FalseAlarms != 1 {
		t.Fatalf("live=%d false=%d", f.coord.LiveCount(), f.coord.FalseAlarms)
	}
	// Then a real failure.
	f.fail(3)
	if !f.runUntil(func() bool { return f.coord.LiveCount() == 3 }, sim.Second) {
		t.Fatal("real failure not confirmed by vote")
	}
}

func TestCorruptAccuserBranded(t *testing.T) {
	f := newFixture(t, 4, Vote)
	f.start()
	f.e.Run(30 * sim.Millisecond)
	f.mons[1].Hint(3, "lie #1")
	f.e.Run(f.e.Now() + 300*sim.Millisecond)
	f.mons[1].Hint(3, "lie #2")
	if !f.runUntil(func() bool { return len(f.panics) == 1 && f.panics[0] == 1 }, 2*sim.Second) {
		t.Fatalf("accuser not branded: panics=%v", f.panics)
	}
	if !f.runUntil(func() bool { return f.coord.LiveCount() == 3 }, 2*sim.Second) {
		t.Fatalf("live = %d", f.coord.LiveCount())
	}
	if !f.coord.isLive(3) {
		t.Fatal("innocent suspect was removed")
	}
}

func TestAlertSanityChecks(t *testing.T) {
	f := newFixture(t, 3, Oracle)
	f.start()
	done := false
	f.e.Go("forger", func(tk *sim.Task) {
		defer func() { done = true }()
		// A forged alert whose accuser field doesn't match the sender
		// is refused by the handler's sanity check.
		_, err := f.eps[0].Call(tk, f.m.Procs[0], 1, ProcAlert,
			&alertMsg{Suspect: 2, Accuser: 99, Sequence: 1}, rpc.CallOpts{NoHint: true})
		if err == nil {
			t.Error("forged alert accepted")
		}
		// An alert accusing the receiver itself is refused.
		_, err = f.eps[0].Call(tk, f.m.Procs[0], 1, ProcAlert,
			&alertMsg{Suspect: 1, Accuser: 0, Sequence: 2}, rpc.CallOpts{NoHint: true})
		if err == nil {
			t.Error("self-accusation accepted")
		}
	})
	f.runUntil(func() bool { return done }, sim.Second)
	f.e.Run(f.e.Now() + 100*sim.Millisecond)
	if f.coord.RoundsRun != 0 {
		t.Fatalf("forged alerts started %d rounds", f.coord.RoundsRun)
	}
}

func TestDetectionLatencyBoundedByClockCheck(t *testing.T) {
	f := newFixture(t, 4, Oracle)
	failed := map[int]bool{}
	f.coord.OracleFailed = func(c int) bool { return failed[c] }
	f.start()
	f.e.Run(35 * sim.Millisecond)
	at := f.e.Now()
	failed[2] = true
	f.fail(2)
	if !f.runUntil(func() bool { return f.coord.LiveCount() == 3 }, sim.Second) {
		t.Fatal("not confirmed")
	}
	d := f.coord.LastDetectAt - at
	// One clock-check period (2 ticks = 20 ms) plus agreement entry.
	if d <= 0 || d > 40*sim.Millisecond {
		t.Fatalf("detection latency = %v", d)
	}
}

// TestRecoveryMasterRunsDiagnostics checks that only the round's
// coordinator (the lowest live cell) runs hardware diagnostics on the
// failed cell, once, and that the cell stays out of the live set: only a
// join round brings it back.
func TestRecoveryMasterRunsDiagnostics(t *testing.T) {
	f := newFixture(t, 3, Oracle)
	failed := map[int]bool{}
	f.coord.OracleFailed = func(c int) bool { return failed[c] }
	f.start()
	f.e.Run(30 * sim.Millisecond)
	failed[1] = true
	f.fail(1)
	if !f.runUntil(func() bool { return f.coord.LiveCount() == 2 }, sim.Second) {
		t.Fatal("not confirmed")
	}
	f.e.Run(f.e.Now() + 500*sim.Millisecond)
	for c, mon := range f.mons {
		want := int64(0)
		if c == 0 {
			want = 1
		}
		if got := mon.Metrics.Counter("membership.diagnostics").Value(); got != want {
			t.Errorf("cell %d ran diagnostics %d times, want %d", c, got, want)
		}
	}
	if f.coord.LiveCount() != 2 {
		t.Fatal("failed cell rejoined without a join round")
	}
}

func TestTwoSequentialFailures(t *testing.T) {
	f := newFixture(t, 4, Oracle)
	failed := map[int]bool{}
	f.coord.OracleFailed = func(c int) bool { return failed[c] }
	f.start()
	f.e.Run(30 * sim.Millisecond)
	failed[1] = true
	f.fail(1)
	if !f.runUntil(func() bool { return f.coord.LiveCount() == 3 }, sim.Second) {
		t.Fatal("first failure not confirmed")
	}
	f.e.Run(f.e.Now() + 200*sim.Millisecond) // first recovery completes
	failed[3] = true
	f.fail(3)
	f.coord.CellDiedMidRound(3) // the cell layer does this on hardware failure
	if !f.runUntil(func() bool { return f.coord.LiveCount() == 2 }, sim.Second) {
		t.Fatal("second failure not confirmed")
	}
	if f.coord.isLive(1) || f.coord.isLive(3) {
		t.Fatal("dead cells still live")
	}
	if !f.coord.isLive(0) || !f.coord.isLive(2) {
		t.Fatal("survivors lost")
	}
}

func TestScenarioDedup(t *testing.T) {
	// Multiple hints about the same suspect during one round fold into a
	// single recovery round.
	f := newFixture(t, 4, Oracle)
	failed := map[int]bool{}
	f.coord.OracleFailed = func(c int) bool { return failed[c] }
	f.start()
	f.e.Run(30 * sim.Millisecond)
	failed[2] = true
	f.fail(2)
	f.mons[0].Hint(2, "a")
	f.mons[1].Hint(2, "b")
	f.mons[3].Hint(2, "c")
	if !f.runUntil(func() bool { return f.coord.LiveCount() == 3 }, sim.Second) {
		t.Fatal("not confirmed")
	}
	f.e.Run(f.e.Now() + 200*sim.Millisecond)
	if len(f.phase1s) != 3 {
		t.Fatalf("phase1 ran %d times, want 3 (once per survivor)", len(f.phase1s))
	}
}
