package harness

import (
	"math"
	"sync"
	"testing"
)

// near asserts v is within frac of want.
func near(t *testing.T, name string, v, want, frac float64) {
	t.Helper()
	if want == 0 {
		if v != 0 {
			t.Errorf("%s = %v, want 0", name, v)
		}
		return
	}
	if math.Abs(v-want)/want > frac {
		t.Errorf("%s = %.2f, want ≈%.2f (±%.0f%%)", name, v, want, frac*100)
	}
}

func TestCareful41MatchesPaper(t *testing.T) {
	c := RunCareful41()
	near(t, "careful read µs", c.CarefulReadUs, 1.16, 0.10)
	near(t, "null RPC µs", c.NullRPCUs, 7.2, 0.06)
	if c.NullRPCUs < 5*c.CarefulReadUs {
		t.Errorf("careful read not substantially faster than RPC: %.2f vs %.2f",
			c.CarefulReadUs, c.NullRPCUs)
	}
}

func TestRPC6MatchesPaper(t *testing.T) {
	r := RunRPC6()
	near(t, "null µs", r.NullUs, 7.2, 0.06)
	near(t, "real µs", r.RealUs, 9.6, 0.06)
	near(t, "oversize µs", r.OversizeUs, 17.3, 0.06)
	near(t, "queued µs", r.QueuedUs, 34, 0.08)
}

func TestTable52MatchesPaper(t *testing.T) {
	x := RunTable52()
	near(t, "local fault µs", x.LocalUs, 6.9, 0.06)
	near(t, "remote fault µs", x.RemoteUs, 50.7, 0.06)
	near(t, "breakdown total µs", x.ComponentTotal(), 50.7, 0.05)
}

func TestTable73MatchesPaper(t *testing.T) {
	x := RunTable73()
	near(t, "read local ms", x.Read4MBLocalMs, 65.0, 0.08)
	near(t, "read remote ms", x.Read4MBRemoteMs, 76.2, 0.08)
	near(t, "write local ms", x.Write4MBLocalMs, 83.7, 0.08)
	near(t, "write remote ms", x.Write4MBRemoteMs, 87.3, 0.08)
	near(t, "open local µs", x.OpenLocalUs, 148, 0.08)
	near(t, "open remote µs", x.OpenRemoteUs, 580, 0.15)
	// Ratios (the paper's headline column).
	near(t, "read ratio", x.Read4MBRemoteMs/x.Read4MBLocalMs, 1.2, 0.08)
	near(t, "fault ratio", x.FaultRemoteUs/x.FaultLocalUs, 7.4, 0.08)
}

func TestHardware81AllFunctional(t *testing.T) {
	hw := RunHardware81()
	if !hw.Firewall || !hw.FaultModel || !hw.RemapRegion || !hw.SIPS || !hw.Cutoff {
		t.Fatalf("hardware features: %+v", *hw)
	}
}

// scalability4And16 runs the scalability experiment at 4 and 16 CPUs
// once and shares its points among the tests that check its shape.
var scalability4And16 = sync.OnceValue(func() []ScalabilityPoint {
	return RunScalability([]int{4, 16})
})

func TestScalabilityCrossover(t *testing.T) {
	pts := scalability4And16()
	small, big := pts[0], pts[1]
	// At 4 CPUs the two designs are comparable; at 16 the SMP kernel is
	// lock-bound and Hive is well ahead.
	if ratio := float64(small.HiveOps) / float64(small.SMPOps); ratio > 1.3 {
		t.Errorf("4-CPU ratio = %.2f, expected near parity", ratio)
	}
	if ratio := float64(big.HiveOps) / float64(big.SMPOps); ratio < 1.8 {
		t.Errorf("16-CPU ratio = %.2f, expected Hive well ahead", ratio)
	}
}

// TestGiantLockSaturates checks that four times the CPUs gain the SMP
// kernel something, but well under linear, and never lose throughput.
func TestGiantLockSaturates(t *testing.T) {
	pts := scalability4And16()
	small, big := pts[0], pts[1]
	if big.SMPOps < small.SMPOps || float64(big.SMPOps) > 2.5*float64(small.SMPOps) {
		t.Errorf("SMP kernel ops %d at 4 CPUs, %d at 16: want between 1x and 2.5x", small.SMPOps, big.SMPOps)
	}
}

// TestHiveProbeScalesLinearly checks that Hive scales nearly linearly,
// because each cell's kernel lock is its own.
func TestHiveProbeScalesLinearly(t *testing.T) {
	pts := scalability4And16()
	small, big := pts[0], pts[1]
	if ratio := float64(big.HiveOps) / float64(small.HiveOps); ratio < 3.5 {
		t.Errorf("Hive kernel ops grew only %.2fx from 4 to 16 CPUs, want at least 3.5x", ratio)
	}
}

func TestAgreementModesAgree(t *testing.T) {
	ac := RunAgreementComparison()
	if !ac.OracleOK {
		t.Fatal("oracle mode failed to confirm a real failure")
	}
	if !ac.VoteOK {
		t.Fatal("vote mode failed to confirm a real failure")
	}
	if ac.VoteDetectMs <= 0 || ac.OracleDetectMs <= 0 {
		t.Fatalf("detect: oracle=%.1f vote=%.1f", ac.OracleDetectMs, ac.VoteDetectMs)
	}
	if ac.VoteDetectMs > 3*ac.OracleDetectMs+10 {
		t.Fatalf("voting much slower than oracle: %.1f vs %.1f",
			ac.VoteDetectMs, ac.OracleDetectMs)
	}
}

func TestDetectionSweepBounded(t *testing.T) {
	avg, max := RunDetectionSweepAt(0, 4)
	if avg <= 0 || max <= 0 || max > 45 {
		t.Fatalf("avg=%.1f max=%.1f ms", avg, max)
	}
}

func TestTable74QuickAllContained(t *testing.T) {
	if testing.Short() {
		t.Skip("runs five injection trials")
	}
	rows := RunTable74(0.05)
	for _, r := range rows {
		if !r.AllOK {
			t.Errorf("%s: %v", r.Scenario, r.Failures)
		}
	}
}

func TestCOWLookupComparison(t *testing.T) {
	c := RunCOWLookupComparison()
	if c.SharedMemUs <= 0 || c.RPCUs <= 0 {
		t.Fatalf("lookup: sm=%.2f rpc=%.2f", c.SharedMemUs, c.RPCUs)
	}
	// The shared-memory walk is cheaper per lookup, but (§5.3) the
	// end-to-end Touch is dominated by the bind RPC: "just as fast".
	if c.SharedMemUs >= c.RPCUs {
		t.Errorf("shared memory (%.2fµs) not cheaper than RPC (%.2fµs) per lookup",
			c.SharedMemUs, c.RPCUs)
	}
	if c.TouchSMUs > 0 && c.TouchRPCUs > 0 {
		ratio := c.TouchRPCUs / c.TouchSMUs
		if ratio > 3 {
			t.Errorf("end-to-end RPC touch %.1fx slower — paper expects 'just as fast'", ratio)
		}
	}
}

func TestSIPSBeatsIPI(t *testing.T) {
	c := RunSIPSvsIPI()
	if c.SIPSUs <= 0 || c.IPIUs <= 0 {
		t.Fatalf("sips=%.2f ipi=%.2f", c.SIPSUs, c.IPIUs)
	}
	// §6: without SIPS, intercell communication over IPIs and shared
	// queues is more expensive — per-sender queue polls and cache-line
	// ping-pong.
	if c.IPIUs <= c.SIPSUs {
		t.Fatalf("IPI path (%.2fµs) not slower than SIPS (%.2fµs)", c.IPIUs, c.SIPSUs)
	}
}

func TestCCNOWContainmentHolds(t *testing.T) {
	c := RunCCNOW()
	if !c.Contained {
		t.Fatal("failure not contained on the CC-NOW configuration")
	}
	// Remote faults stretch with the link latency; local ones don't.
	if c.FaultLocalUs > 7.5 {
		t.Errorf("local fault = %.1f µs, should be unchanged", c.FaultLocalUs)
	}
	if c.FaultRemoteUs < 55 {
		t.Errorf("remote fault = %.1f µs, should exceed the FLASH 50.7 µs", c.FaultRemoteUs)
	}
	if c.DetectMs <= 0 || c.DetectMs > 60 {
		t.Errorf("detection = %.1f ms", c.DetectMs)
	}
}

func TestDetectionCurveMonotone(t *testing.T) {
	// §4.3: less frequent checks widen the window of vulnerability —
	// average detection latency must grow with the check period.
	pts := DetectionCurve(3)
	if len(pts) < 3 {
		t.Fatalf("points = %d", len(pts))
	}
	for i := 1; i < len(pts); i++ {
		if pts[i].DetectMs+1 < pts[i-1].DetectMs {
			t.Fatalf("detection not monotone: %+v", pts)
		}
	}
	// The coarsest setting should be clearly slower than the finest.
	if pts[len(pts)-1].DetectMs < 2*pts[0].DetectMs {
		t.Fatalf("100 ms checks (%.1f) not clearly slower than 10 ms (%.1f)",
			pts[len(pts)-1].DetectMs, pts[0].DetectMs)
	}
}
