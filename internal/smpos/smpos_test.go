package smpos

import (
	"testing"

	"repro/internal/core"
	"repro/internal/sim"
)

func TestBootSingleKernel(t *testing.T) {
	sys := Boot(4, DefaultConfig())
	if len(sys.Hive.Cells) != 1 {
		t.Fatalf("cells = %d", len(sys.Hive.Cells))
	}
	if len(sys.Cell().Sched.Procs) != 4 {
		t.Fatalf("cpus = %d", len(sys.Cell().Sched.Procs))
	}
	if sys.Hive.Cfg.Machine.FirewallEnabled {
		t.Fatal("SMP baseline should not pay firewall checks")
	}
}

func TestKernelOpChargesServiceTime(t *testing.T) {
	sys := Boot(1, DefaultConfig())
	var elapsed sim.Time
	done := false
	sys.Hive.Eng.Go("p", func(tk *sim.Task) {
		start := tk.Now()
		sys.KernelOp(tk, 100*sim.Microsecond)
		elapsed = tk.Now() - start
		done = true
	})
	sys.Hive.Run(sim.Second)
	if !done || elapsed < 100*sim.Microsecond {
		t.Fatalf("elapsed = %v", elapsed)
	}
}

func TestGiantLockSaturates(t *testing.T) {
	const (
		op    = 80 * sim.Microsecond
		burst = 150 * sim.Microsecond
		dur   = 200 * sim.Millisecond
	)
	ops4 := Boot(4, DefaultConfig()).ThroughputProbe(12, op, burst, dur)
	ops16 := Boot(16, DefaultConfig()).ThroughputProbe(48, op, burst, dur)
	// A giant-locked kernel cannot scale 4×16; well under linear.
	if float64(ops16) > 2.5*float64(ops4) {
		t.Fatalf("giant lock scaled too well: %d -> %d", ops4, ops16)
	}
	if ops16 < ops4 {
		t.Fatalf("throughput regressed outright: %d -> %d", ops4, ops16)
	}
}

func TestTunedKernelScalesBetterThanGiant(t *testing.T) {
	const (
		op    = 80 * sim.Microsecond
		burst = 150 * sim.Microsecond
		dur   = 200 * sim.Millisecond
	)
	giant := Boot(16, DefaultConfig()).ThroughputProbe(48, op, burst, dur)
	// A kernel after several rounds of lock splitting.
	tuned := Boot(16, Config{KernelLocks: 4, LockedFraction: 0.35}).ThroughputProbe(48, op, burst, dur)
	if tuned <= giant {
		t.Fatalf("lock splitting did not help: giant=%d tuned=%d", giant, tuned)
	}
}

func TestHiveProbeScalesLinearly(t *testing.T) {
	const (
		op    = 80 * sim.Microsecond
		burst = 150 * sim.Microsecond
		dur   = 200 * sim.Millisecond
	)
	boot := func(n int) *core.Hive {
		cfg := core.DefaultConfig()
		cfg.Machine.Nodes = n
		cfg.Cells = n
		cfg.Mounts = nil
		return core.Boot(cfg)
	}
	ops4 := HiveThroughputProbe(boot(4), 3, op, burst, dur, DefaultConfig().LockedFraction)
	ops16 := HiveThroughputProbe(boot(16), 3, op, burst, dur, DefaultConfig().LockedFraction)
	ratio := float64(ops16) / float64(ops4)
	if ratio < 3.5 {
		t.Fatalf("multicellular scaling 4->16 CPUs only %.2fx", ratio)
	}
}

func TestContentionCounted(t *testing.T) {
	sys := Boot(2, DefaultConfig())
	sys.ThroughputProbe(8, 80*sim.Microsecond, 20*sim.Microsecond, 100*sim.Millisecond)
	if sys.Metrics.Counter("smpos.lock_contended").Value() == 0 {
		t.Fatal("no contention recorded under heavy kernel load")
	}
	if sys.Metrics.Counter("smpos.kernel_ops").Value() == 0 {
		t.Fatal("no kernel ops recorded")
	}
}
