package workload

import (
	"reflect"
	"testing"

	"repro/internal/core"
	"repro/internal/sim"
	"repro/internal/vm"
)

// filePageOf resolves an output file's first page id.
func filePageOf(h *core.Hive, out OutputFile) vm.LogicalPage {
	id := mustKey(h, out.Home, out.Path)
	return vm.LogicalPage{Obj: vm.ObjID{Kind: vm.FileObj, Home: out.Home, Num: id}}
}

// Small, fast configurations for unit assertions (the full calibrated runs
// are hivebench's t72 rows, which BENCH_hive.json pins).

func smallPmake() PmakeConfig {
	cfg := DefaultPmake()
	cfg.Files = 4
	cfg.CompileCPU = 40 * sim.Millisecond
	cfg.NamespaceOps = 60
	cfg.SharedPages = 48
	cfg.AnonPages = 16
	cfg.SrcPages = 8
	cfg.OutPages = 4
	cfg.TmpMapPages = 4
	return cfg
}

func TestPmakeCompletesAndVerifies(t *testing.T) {
	h := BootHive(4)
	res := RunPmake(h, smallPmake(), 60*sim.Second)
	if !res.Done {
		t.Fatalf("not done: %v", res.Errors)
	}
	if len(res.Outputs) != 4 {
		t.Fatalf("outputs = %d", len(res.Outputs))
	}
	bad, report := VerifyOutputs(h, res)
	if bad != 0 {
		t.Fatalf("integrity: %v", report)
	}
	if res.FaultHits == 0 || res.RemoteFaults == 0 {
		t.Fatalf("faults=%d remote=%d", res.FaultHits, res.RemoteFaults)
	}
}

func TestPmakeSingleCellHasNoRemoteTraffic(t *testing.T) {
	h := BootHive(1)
	res := RunPmake(h, smallPmake(), 60*sim.Second)
	if !res.Done {
		t.Fatalf("not done: %v", res.Errors)
	}
	if res.RemoteFaults != 0 {
		t.Fatalf("remote faults on one cell: %d", res.RemoteFaults)
	}
}

func TestPmakeDeterministic(t *testing.T) {
	run := func() sim.Time {
		h := BootHiveWith(4, 42, nil)
		return RunPmake(h, smallPmake(), 60*sim.Second).Elapsed
	}
	if a, b := run(), run(); a != b {
		t.Fatalf("nondeterministic: %v vs %v", a, b)
	}
}

// TestBootIRIXWith checks that the IRIX baseline is the one-cell hive
// with the firewall off: BootIRIX boots the configuration it always
// booted, and BootIRIXWith reads its seed and its hook (hivesim's -seed
// and widened trace rings).
func TestBootIRIXWith(t *testing.T) {
	want := core.DefaultConfig()
	want.Cells = 1
	want.Machine.FirewallEnabled = false
	want.Mounts = standardMounts(1)
	h := BootIRIX()
	defer h.Eng.Stop()
	if !reflect.DeepEqual(h.Cfg, want) {
		t.Errorf("BootIRIX config:\n got %+v\nwant %+v", h.Cfg, want)
	}
	h = BootIRIXWith(9, func(cfg *core.Config) { cfg.TraceCap = 1 << 16 })
	defer h.Eng.Stop()
	want.Seed, want.TraceCap = 9, 1<<16
	if !reflect.DeepEqual(h.Cfg, want) {
		t.Errorf("BootIRIXWith config:\n got %+v\nwant %+v", h.Cfg, want)
	}
}

func TestPmakeSlowdownShape(t *testing.T) {
	cfg := smallPmake()
	cfg.CompileCPU = 250 * sim.Millisecond
	cfg.NamespaceOps = 400
	base := RunPmake(BootIRIX(), cfg, 60*sim.Second).Elapsed
	four := RunPmake(BootHive(4), cfg, 60*sim.Second).Elapsed
	if four <= base {
		t.Fatalf("4-cell (%v) not slower than IRIX (%v)", four, base)
	}
	if float64(four)/float64(base) > 1.6 {
		t.Fatalf("4-cell slowdown implausibly high: %v vs %v", four, base)
	}
}

func TestOceanWriteSharesAcrossCells(t *testing.T) {
	h := BootHive(4)
	cfg := DefaultOcean()
	cfg.GridPages = 200
	cfg.Iterations = 3
	cfg.StepCPU = 10 * sim.Millisecond
	// Sample during the run via an event probe.
	var peak int
	h.Eng.After(50*sim.Millisecond, func() {})
	probe := func() {
		total := 0
		for _, c := range h.Cells {
			total += c.VM.RemotelyWritablePages()
		}
		if total > peak {
			peak = total
		}
	}
	stop := false
	var tick func()
	tick = func() {
		if stop {
			return
		}
		probe()
		h.Eng.After(10*sim.Millisecond, tick)
	}
	h.Eng.After(10*sim.Millisecond, tick)
	res := RunOcean(h, cfg, 60*sim.Second)
	stop = true
	if !res.Done {
		t.Fatalf("not done: %v", res.Errors)
	}
	// All 200 grid pages end up write-shared (50 per cell, each open to
	// the other three).
	if peak < 150 {
		t.Fatalf("peak remotely-writable = %d, want ≈200", peak)
	}
}

func TestRaytraceCrossCellCOWTraffic(t *testing.T) {
	h := BootHive(4)
	cfg := DefaultRaytrace()
	cfg.Tiles = 8
	cfg.TileCPU = 5 * sim.Millisecond
	cfg.ScenePages = 60
	res := RunRaytrace(h, cfg, 60*sim.Second)
	if !res.Done {
		t.Fatalf("not done: %v", res.Errors)
	}
	visits := int64(0)
	for _, c := range h.Cells {
		visits += c.COW.Metrics.Counter("cow.remote_visits").Value()
	}
	if visits == 0 {
		t.Fatal("no cross-cell COW traversals — scene sharing not exercised")
	}
	if res.RemoteFaults == 0 {
		t.Fatal("no scene imports")
	}
}

func TestWorkloadAbortsWhenCoordinatorCellDies(t *testing.T) {
	h := BootHive(4)
	cfg := smallPmake()
	cfg.CompileCPU = 200 * sim.Millisecond
	h.Eng.At(100*sim.Millisecond, func() { h.Cells[0].FailHardware() })
	res := RunPmake(h, cfg, 60*sim.Second)
	if res.Done {
		t.Fatal("reported done despite coordinator-cell failure")
	}
	// The run must abort promptly, not ride the deadline.
	if res.Elapsed > 5*sim.Second {
		t.Fatalf("aborted run took %v", res.Elapsed)
	}
}

func TestVerifyOutputsFlagsCorruption(t *testing.T) {
	h := BootHive(2)
	res := RunPmake(h, smallPmake(), 60*sim.Second)
	if !res.Done {
		t.Fatalf("not done: %v", res.Errors)
	}
	// Corrupt one output page behind the file system's back.
	out := res.Outputs[0]
	cell := h.Cells[out.Home]
	lp := filePageOf(h, out)
	pf, ok := cell.VM.Lookup(lp)
	if !ok {
		t.Fatal("output page not cached")
	}
	h.M.MarkCorrupt(pf.Frame)
	bad, _ := VerifyOutputs(h, res)
	if bad == 0 {
		t.Fatal("corruption not detected by verification")
	}
}

func TestMountsRouteToHomes(t *testing.T) {
	h := BootHive(4)
	if got := tmpHome(h); got != 3 {
		t.Fatalf("/tmp home = %d", got)
	}
	h1 := BootHive(2)
	if got := tmpHome(h1); got != 1 {
		t.Fatalf("/tmp home (2 cells) = %d", got)
	}
}
