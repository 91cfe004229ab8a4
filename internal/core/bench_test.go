package core_test

import (
	"testing"

	"repro/internal/sim"
	"repro/internal/workload"
)

// BenchmarkCheckInvariants audits a 4-cell hive whose page caches a short
// pmake has filled: the per-unit audit cost of perfbench's pmake workload.
func BenchmarkCheckInvariants(b *testing.B) {
	h := workload.BootHive(4)
	cfg := workload.DefaultPmake()
	cfg.Files = 4
	if res := workload.RunPmake(h, cfg, 60*sim.Second); !res.Done || len(res.Errors) > 0 {
		b.Fatalf("pmake: done=%v errors=%v", res.Done, res.Errors)
	}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if bad := h.CheckInvariants(); len(bad) != 0 {
			b.Fatalf("audit not clean: %v", bad)
		}
	}
}
