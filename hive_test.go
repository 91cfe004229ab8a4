package hive

import (
	"testing"
	"testing/quick"
)

// The root-package tests exercise the public API end to end; the
// subsystem-level behaviour is covered by the internal packages' suites.

func TestPublicBootAndRun(t *testing.T) {
	h := Boot(DefaultConfig())
	h.Run(100 * Millisecond)
	if got := len(h.LiveCells()); got != 4 {
		t.Fatalf("live cells = %d", got)
	}
	if h.Now() < 100*Millisecond {
		t.Fatalf("now = %v", h.Now())
	}
}

func TestPublicWorkloadSmall(t *testing.T) {
	h := BootCells(2)
	cfg := DefaultPmake()
	cfg.Files = 3
	cfg.CompileCPU = 30 * Millisecond
	cfg.NamespaceOps = 40
	cfg.SharedPages = 32
	cfg.AnonPages = 16
	cfg.SrcPages = 4
	cfg.OutPages = 2
	res := RunPmake(h, cfg, 30*Second)
	if !res.Done {
		t.Fatalf("pmake incomplete: %v", res.Errors)
	}
	if bad, report := VerifyOutputs(h, res); bad != 0 {
		t.Fatalf("integrity: %v", report)
	}
}

func TestValidateCellsRejectsUnsupportedCounts(t *testing.T) {
	for _, cells := range []int{-1, 0, MaxCells + 1, 1000} {
		if err := ValidateCells(cells); err == nil {
			t.Fatalf("ValidateCells(%d) = nil, want error", cells)
		}
	}
	for _, cells := range []int{1, 2, 3, 4, 8, 16, 32, MaxCells} {
		if err := ValidateCells(cells); err != nil {
			t.Fatalf("ValidateCells(%d) = %v, want nil", cells, err)
		}
	}
}

func TestBootCellsPanicsOnUnsupportedCounts(t *testing.T) {
	// BootCells panics where ValidateCells errors: an unsupported count is
	// a programming mistake, not a runtime condition.
	for _, cells := range []int{0, MaxCells + 1} {
		cells := cells
		func() {
			defer func() {
				if recover() == nil {
					t.Fatalf("BootCells(%d) did not panic", cells)
				}
			}()
			BootCells(cells)
		}()
	}
}

func TestPublicFaultInjection(t *testing.T) {
	tr := RunTrial(NodeFailRandom, 3)
	if !tr.OK() {
		t.Fatalf("trial failed: %+v", tr)
	}
	if tr.DetectMs <= 0 || tr.DetectMs > 100 {
		t.Fatalf("detect = %.1f ms", tr.DetectMs)
	}
}

func TestScenarioMetadata(t *testing.T) {
	total := 0
	hw := 0
	hardware := map[Scenario]bool{NodeFailProcCreate: true, NodeFailCOWSearch: true, NodeFailRandom: true}
	for _, s := range []Scenario{NodeFailProcCreate, NodeFailCOWSearch, NodeFailRandom, CorruptAddrMap, CorruptCOWTree} {
		if s.String() == "unknown" {
			t.Fatalf("scenario %d unnamed", s)
		}
		total += s.DefaultTests()
		if hardware[s] {
			hw += s.DefaultTests()
		}
	}
	if total != 69 || hw != 49 {
		t.Fatalf("campaign = %d trials (%d hardware), want 69 (49)", total, hw)
	}
}

// Property: booting with any valid seed is deterministic — two boots with
// the same seed reach an identical virtual time after identical work.
func TestPropertyDeterministicBoot(t *testing.T) {
	f := func(seed int16) bool {
		run := func() Time {
			cfg := DefaultConfig()
			cfg.Machine.MemPerNodeMB = 2
			cfg.Seed = int64(seed)
			h := Boot(cfg)
			h.Run(50 * Millisecond)
			return h.Now()
		}
		return run() == run()
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 5}); err != nil {
		t.Fatal(err)
	}
}

// Property: a fail-stop fault in any single cell of a healthy 4-cell
// system is always detected and never takes down another cell.
func TestPropertySingleFaultAlwaysContained(t *testing.T) {
	f := func(cellRaw, seedRaw uint8) bool {
		cell := int(cellRaw) % 4
		cfg := DefaultConfig()
		cfg.Machine.MemPerNodeMB = 2
		cfg.Seed = int64(seedRaw) + 1
		h := Boot(cfg)
		h.Run(30 * Millisecond)
		h.Cells[cell].FailHardware()
		if !h.RunUntil(func() bool { return h.Coord.LiveCount() == 3 }, h.Now()+Second) {
			return false
		}
		for _, c := range h.Cells {
			if c.ID != cell && c.Failed() {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 12}); err != nil {
		t.Fatal(err)
	}
}

// Property: a run that includes a failure + recovery is reproducible —
// same seed, same fault time, same final observable state.
func TestPropertyDeterministicRecovery(t *testing.T) {
	run := func() (Time, int64) {
		cfg := DefaultConfig()
		cfg.Machine.MemPerNodeMB = 4
		cfg.Seed = 4242
		h := Boot(cfg)
		res := RunPmake(h, smallTestPmake(), 30*Second)
		_ = res
		h.Eng.At(h.Now(), func() {})
		at := h.Now()
		h.Cells[1].FailHardware()
		h.RunUntil(func() bool { return h.Coord.LiveCount() == 3 }, at+Second)
		h.Run(h.Now() + 200*Millisecond)
		var discards int64
		for _, c := range h.Cells {
			discards += c.VM.Metrics.Counter("vm.recovery_discards").Value()
		}
		return h.Coord.LastDetectAt, discards
	}
	d1, n1 := run()
	d2, n2 := run()
	if d1 != d2 || n1 != n2 {
		t.Fatalf("recovery not deterministic: (%v,%d) vs (%v,%d)", d1, n1, d2, n2)
	}
}

func smallTestPmake() PmakeConfig {
	cfg := DefaultPmake()
	cfg.Files = 3
	cfg.CompileCPU = 30 * Millisecond
	cfg.NamespaceOps = 40
	cfg.SharedPages = 32
	cfg.AnonPages = 16
	cfg.SrcPages = 4
	cfg.OutPages = 2
	cfg.TmpMapPages = 2
	return cfg
}
