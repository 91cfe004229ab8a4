package core

import (
	"testing"

	"repro/internal/proc"
	"repro/internal/sim"
	"repro/internal/trace"
)

func rebootConfig() Config {
	cfg := DefaultConfig()
	cfg.Reboot = RebootPolicy{
		Enabled:     true,
		Delay:       20 * sim.Millisecond,
		BackoffBase: 10 * sim.Millisecond,
		MaxAttempts: 4,
	}
	return cfg
}

// waitDeath runs until the live set has shrunk to n (the verdict landed).
func waitDeath(t *testing.T, h *Hive, n int) {
	t.Helper()
	if !h.RunUntil(func() bool { return h.Coord.LiveCount() <= n }, h.Now()+2*sim.Second) {
		t.Fatalf("death never detected: live=%d", h.Coord.LiveCount())
	}
}

// waitRestored runs until every cell is live and the reboot controller has
// settled.
func waitRestored(t *testing.T, h *Hive, deadline sim.Time) {
	t.Helper()
	if !h.RunUntil(func() bool {
		return h.Coord.LiveCount() == h.Cfg.Cells && h.Rebooter.Idle()
	}, deadline) {
		t.Fatalf("capacity never restored: live=%d records=%+v",
			h.Coord.LiveCount(), h.Rebooter.Records)
	}
}

func TestRebooterFullLoop(t *testing.T) {
	h := Boot(rebootConfig())
	h.Run(30 * sim.Millisecond)
	h.Cells[1].FailHardware()
	if !h.RunUntil(func() bool { return h.Coord.LiveCount() == 3 }, h.Now()+sim.Second) {
		t.Fatal("death never detected")
	}
	waitRestored(t, h, h.Now()+5*sim.Second)

	if len(h.Rebooter.Records) != 1 {
		t.Fatalf("records = %+v, want one", h.Rebooter.Records)
	}
	rec := h.Rebooter.Records[0]
	if rec.Cell != 1 || !rec.Restored() || rec.GaveUp {
		t.Fatalf("bad record %+v", rec)
	}
	if rec.RejoinAt <= rec.RebootAt || rec.RebootAt <= rec.DeadAt {
		t.Fatalf("loop times out of order: %+v", rec)
	}
	if h.Rebooter.FullCapacityAt == 0 {
		t.Fatal("FullCapacityAt never set")
	}

	reboots, rejoins := 0, 0
	for _, e := range h.Trace.Merged() {
		switch e.Kind {
		case trace.Reboot:
			reboots++
		case trace.Rejoin:
			rejoins++
		}
	}
	if reboots != 1 || rejoins != 1 {
		t.Fatalf("trace has %d REBOOT / %d REJOIN events, want 1/1", reboots, rejoins)
	}

	// The rejoined cell must be fully usable: processes run on it again.
	ran := false
	h.Cells[1].Procs.Spawn("revived", 1, func(p *proc.Process, tk *sim.Task) {
		ran = true
	})
	h.Run(h.Now() + 10*sim.Millisecond)
	if !ran {
		t.Fatal("process on rejoined cell never ran")
	}
}

func TestRebooterJoinerDiesMidJoin(t *testing.T) {
	h := Boot(rebootConfig())
	h.Run(30 * sim.Millisecond)

	// One-shot: the joiner is killed the moment the join round's first
	// barrier opens; the round must abort and the next attempt succeed.
	fired := false
	h.Coord.OnBarrier1Open = func(join bool, joiner, coordinator int) {
		if !join || fired {
			return
		}
		fired = true
		h.Cells[joiner].FailHardware()
	}
	h.Cells[1].FailHardware()
	waitDeath(t, h, 3)
	waitRestored(t, h, h.Now()+10*sim.Second)

	if !fired {
		t.Fatal("join barrier hook never fired")
	}
	rec := h.Rebooter.Records[0]
	if rec.Attempts < 2 {
		t.Fatalf("record %+v: want a retried join after the mid-join death", rec)
	}
	if !rec.Restored() || rec.GaveUp {
		t.Fatalf("bad record %+v", rec)
	}
}

func TestRebooterCoordinatorDiesMidJoin(t *testing.T) {
	h := Boot(rebootConfig())
	h.Run(30 * sim.Millisecond)

	fired := false
	h.Coord.OnBarrier1Open = func(join bool, joiner, coordinator int) {
		if !join || fired {
			return
		}
		fired = true
		h.Cells[coordinator].FailHardware()
	}
	h.Cells[1].FailHardware()
	waitDeath(t, h, 3)
	// Both the original faultee and the killed round coordinator must come
	// back: the join round survives the coordinator's death (restart-safe),
	// and the coordinator's own death starts a second loop pass.
	waitRestored(t, h, h.Now()+10*sim.Second)
	if !fired {
		t.Fatal("join barrier hook never fired")
	}
	if len(h.Rebooter.Records) != 2 {
		t.Fatalf("records = %+v, want two passes", h.Rebooter.Records)
	}
	for _, rec := range h.Rebooter.Records {
		if !rec.Restored() || rec.GaveUp {
			t.Fatalf("bad record %+v", rec)
		}
	}
}

func TestRebooterSecondFaultDuringWarmup(t *testing.T) {
	h := Boot(rebootConfig())
	h.Run(30 * sim.Millisecond)
	h.Cells[1].FailHardware()
	waitDeath(t, h, 3)
	// Wait for the commit, then land a second fault while warm-up traffic
	// is still in flight.
	if !h.RunUntil(func() bool { return h.Coord.LiveCount() == 4 }, h.Now()+5*sim.Second) {
		t.Fatal("first rejoin never committed")
	}
	h.Cells[2].FailHardware()
	waitDeath(t, h, 3)
	waitRestored(t, h, h.Now()+10*sim.Second)
	if len(h.Rebooter.Records) != 2 {
		t.Fatalf("records = %+v, want two passes", h.Rebooter.Records)
	}
}

func TestRebooterCrashLoopHitsBackoffBound(t *testing.T) {
	cfg := rebootConfig()
	cfg.Reboot.MaxAttempts = 3
	h := Boot(cfg)
	h.Run(30 * sim.Millisecond)

	// Every join attempt kills the joiner again: a crash-looping cell.
	h.Coord.OnBarrier1Open = func(join bool, joiner, coordinator int) {
		if join {
			h.Cells[joiner].FailHardware()
		}
	}
	h.Cells[1].FailHardware()
	if !h.RunUntil(func() bool { return h.Rebooter.Idle() && len(h.Rebooter.Records) > 0 },
		h.Now()+20*sim.Second) {
		t.Fatal("controller never settled")
	}
	rec := h.Rebooter.Records[0]
	if !rec.GaveUp || rec.Restored() {
		t.Fatalf("record %+v: want give-up without restore", rec)
	}
	if rec.Attempts != 3 {
		t.Fatalf("attempts = %d, want the MaxAttempts bound 3", rec.Attempts)
	}
	if h.Coord.LiveCount() != 3 {
		t.Fatalf("live = %d, want the crash-looping cell kept out", h.Coord.LiveCount())
	}
	// The give-up is visible in the trace.
	sawGiveup := false
	for _, e := range h.Trace.Merged() {
		if e.Kind == trace.Reboot && e.B == 3 {
			sawGiveup = true
		}
	}
	if !sawGiveup {
		t.Fatal("no give-up REBOOT event in trace")
	}
}
