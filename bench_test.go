package hive

// Benchmark harness: one benchmark per table and figure of the paper's
// evaluation, plus the ablation benches DESIGN.md calls out. Each bench
// runs the corresponding experiment and reports the measured quantities as
// custom metrics (units chosen to match the paper's tables), so
//
//	go test -bench=. -benchmem
//
// regenerates the whole evaluation. Wall-clock per iteration is dominated
// by the simulated workloads (a few hundred ms each).

import (
	"fmt"
	"runtime"
	"testing"

	"repro/internal/faultinject"
	"repro/internal/harness"
	"repro/internal/parallel"
	"repro/internal/sim"
	"repro/internal/workload"
)

// BenchmarkCarefulClockRead regenerates the §4.1 measurement: the
// careful_on → clock read → careful_off sequence (paper: 1.16 µs, of which
// 0.7 µs is the remote cache miss) vs the RPC alternative (paper: 7.2 µs).
func BenchmarkCarefulClockRead(b *testing.B) {
	for i := 0; i < b.N; i++ {
		c := harness.RunCareful41()
		b.ReportMetric(c.CarefulReadUs, "careful-us")
		b.ReportMetric(c.NullRPCUs, "rpc-us")
	}
}

// BenchmarkNullRPC regenerates §6's interrupt-level RPC latencies
// (paper: null 7.2 µs, practical 9.6 µs, >1-line 17.3 µs).
func BenchmarkNullRPC(b *testing.B) {
	for i := 0; i < b.N; i++ {
		r := harness.RunRPC6()
		b.ReportMetric(r.NullUs, "null-us")
		b.ReportMetric(r.RealUs, "real-us")
		b.ReportMetric(r.OversizeUs, "oversize-us")
	}
}

// BenchmarkQueuedRPC regenerates §6's queued RPC latency (paper: 34 µs).
func BenchmarkQueuedRPC(b *testing.B) {
	for i := 0; i < b.N; i++ {
		r := harness.RunRPC6()
		b.ReportMetric(r.QueuedUs, "queued-us")
	}
}

// BenchmarkRemotePageFault regenerates Table 5.2: 1024 page faults hitting
// the data home's page cache (paper: 6.9 µs local, 50.7 µs remote).
func BenchmarkRemotePageFault(b *testing.B) {
	for i := 0; i < b.N; i++ {
		t := harness.RunTable52()
		b.ReportMetric(t.LocalUs, "local-us")
		b.ReportMetric(t.RemoteUs, "remote-us")
	}
}

// BenchmarkTable73Microbench regenerates Table 7.3: local vs remote kernel
// operations on a two-processor two-cell system with a warm file cache.
func BenchmarkTable73Microbench(b *testing.B) {
	for i := 0; i < b.N; i++ {
		t := harness.RunTable73()
		b.ReportMetric(t.Read4MBLocalMs, "read-local-ms")
		b.ReportMetric(t.Read4MBRemoteMs, "read-remote-ms")
		b.ReportMetric(t.Write4MBLocalMs, "write-local-ms")
		b.ReportMetric(t.Write4MBRemoteMs, "write-remote-ms")
		b.ReportMetric(t.OpenLocalUs, "open-local-us")
		b.ReportMetric(t.OpenRemoteUs, "open-remote-us")
	}
}

// BenchmarkTable72Workloads regenerates Table 7.2: ocean, raytrace, and
// pmake on IRIX and on 1/2/4-cell Hive (paper slowdowns: ocean 1/1/-1 %,
// raytrace 0/0/1 %, pmake 1/10/11 %). One iteration runs all twelve
// configurations (~12 virtual-machine-runs).
func BenchmarkTable72Workloads(b *testing.B) {
	for i := 0; i < b.N; i++ {
		rows := harness.RunTable72()
		for _, r := range rows {
			b.ReportMetric(r.IRIXSec, r.Workload+"-irix-s")
			b.ReportMetric(r.Slowdown4, r.Workload+"-4cell-pct")
		}
	}
}

// BenchmarkPmakeFaultTraffic regenerates the §5.2 analysis (paper: 8935
// page-cache faults, 4946 remote on four cells, 117→455 ms cumulative).
func BenchmarkPmakeFaultTraffic(b *testing.B) {
	for i := 0; i < b.N; i++ {
		t := harness.RunPmakeFaultTraffic()
		b.ReportMetric(float64(t.Faults4Cell), "faults")
		b.ReportMetric(float64(t.Remote4Cell), "remote")
		b.ReportMetric(t.FaultMs4Cell, "fault-ms")
	}
}

// BenchmarkFirewallOverhead regenerates the §4.2 firewall-check cost
// (paper: +6.3 % on the remote write miss under pmake).
func BenchmarkFirewallOverhead(b *testing.B) {
	for i := 0; i < b.N; i++ {
		fw := harness.RunFirewall42()
		b.ReportMetric(fw.WriteMissOverheadPct, "overhead-pct")
	}
}

// BenchmarkFirewallWritablePages regenerates the §4.2 policy study
// (paper: pmake averaged 15 remotely-writable pages per cell with a max of
// 42 on the /tmp server; ocean averaged 550).
func BenchmarkFirewallWritablePages(b *testing.B) {
	for i := 0; i < b.N; i++ {
		fw := harness.RunFirewall42()
		b.ReportMetric(fw.PmakeAvgWritable, "pmake-avg")
		b.ReportMetric(fw.PmakeMaxWritable, "pmake-max")
		b.ReportMetric(fw.OceanAvgWritable, "ocean-avg")
	}
}

// BenchmarkTable74FaultInjection regenerates Table 7.4 at reduced scale
// (one trial per scenario per iteration; run cmd/faultdrill for the full
// 49+20 campaign). Containment must hold in every trial.
func BenchmarkTable74FaultInjection(b *testing.B) {
	for i := 0; i < b.N; i++ {
		rows := harness.RunTable74(0.05)
		contained := 1.0
		var avg float64
		for _, r := range rows {
			if !r.AllOK {
				contained = 0
				b.Errorf("containment failure: %v", r.Failures)
			}
			avg += r.AvgDetect
		}
		b.ReportMetric(contained, "contained")
		b.ReportMetric(avg/float64(len(rows)), "avg-detect-ms")
	}
}

// BenchmarkRecoveryLatency regenerates the §7.4 recovery measurement
// (paper: 40-80 ms).
func BenchmarkRecoveryLatency(b *testing.B) {
	for i := 0; i < b.N; i++ {
		tr := RunTrial(NodeFailRandom, i)
		if !tr.OK() {
			b.Fatalf("trial failed: %+v", tr)
		}
		b.ReportMetric(tr.RecoveryMs, "recovery-ms")
		b.ReportMetric(tr.DetectMs, "detect-ms")
	}
}

// BenchmarkCampaignParallel times a fixed slice of the Table 7.4 campaign
// (eight NodeFailRandom trials) on the parallel trial runner, once with a
// single worker and once with a worker per processor. The aggregated rows
// are identical in both configurations (see internal/faultinject's
// determinism tests); only wall-clock changes. On a multi-core host the
// j-max/iter time should approach j1/GOMAXPROCS.
func BenchmarkCampaignParallel(b *testing.B) {
	const trials = 8
	configs := []struct {
		name    string
		workers int
	}{
		{"j1", 1},
		{fmt.Sprintf("j%d", runtime.GOMAXPROCS(0)), runtime.GOMAXPROCS(0)},
	}
	for _, cfg := range configs {
		b.Run(cfg.name, func(b *testing.B) {
			r := parallel.New(cfg.workers)
			for i := 0; i < b.N; i++ {
				row := faultinject.RunCampaign(r, []faultinject.Scenario{faultinject.NodeFailRandom},
					func(faultinject.Scenario) int { return trials }, faultinject.TrialOpts{})[0]
				if !row.AllOK {
					b.Fatalf("containment failure: %v", row.Failures)
				}
				b.ReportMetric(row.AvgDetect, "avg-detect-ms")
			}
			b.ReportMetric(float64(trials)*float64(b.N)/b.Elapsed().Seconds(), "trials/sec")
		})
	}
}

// BenchmarkHardwareFeatures exercises every Table 8.1 feature.
func BenchmarkHardwareFeatures(b *testing.B) {
	for i := 0; i < b.N; i++ {
		hw := harness.RunHardware81()
		ok := 0.0
		if hw.Firewall && hw.FaultModel && hw.RemapRegion && hw.SIPS && hw.Cutoff {
			ok = 1.0
		}
		b.ReportMetric(ok, "all-functional")
	}
}

// BenchmarkScalabilityCells is the §1 scalability ablation: kernel-op
// throughput of a shared-everything SMP OS vs the multicellular Hive as
// processors grow; the SMP curve flattens at its kernel lock, the Hive
// curve does not.
func BenchmarkScalabilityCells(b *testing.B) {
	for i := 0; i < b.N; i++ {
		pts := harness.RunScalability([]int{1, 4, 16})
		last := pts[len(pts)-1]
		b.ReportMetric(float64(last.SMPOps), "smp-ops-16cpu")
		b.ReportMetric(float64(last.HiveOps), "hive-ops-16cpu")
		b.ReportMetric(float64(last.HiveOps)/float64(last.SMPOps), "hive-advantage")
	}
}

// BenchmarkAgreementOracleVsReal compares the paper's oracle against the
// real voting protocol (a §4.3 design-choice ablation).
func BenchmarkAgreementOracleVsReal(b *testing.B) {
	for i := 0; i < b.N; i++ {
		ac := harness.RunAgreementComparison()
		if !ac.VoteOK {
			b.Fatal("voting protocol failed to confirm a real failure")
		}
		b.ReportMetric(ac.OracleDetectMs, "oracle-ms")
		b.ReportMetric(ac.VoteDetectMs, "vote-ms")
	}
}

// BenchmarkDetectionInterval sweeps the clock-check period — the §4.3
// tradeoff between monitoring frequency and the window of vulnerability.
func BenchmarkDetectionInterval(b *testing.B) {
	for i := 0; i < b.N; i++ {
		pts := harness.DetectionCurve(3)
		for _, p := range pts {
			b.ReportMetric(p.DetectMs, fmt.Sprintf("detect-ms-at-%.0fms-checks", p.CheckEveryMs))
		}
	}
}

// BenchmarkPmakeEndToEnd times one full pmake on the 4-cell Hive — the
// headline workload, useful for spotting performance regressions in the
// simulator itself.
func BenchmarkPmakeEndToEnd(b *testing.B) {
	for i := 0; i < b.N; i++ {
		h := workload.BootHive(4)
		res := workload.RunPmake(h, workload.DefaultPmake(), 60*sim.Second)
		if !res.Done {
			b.Fatal("pmake did not complete")
		}
		b.ReportMetric(res.Elapsed.Seconds(), "virtual-s")
	}
}

// BenchmarkCOWLookupModes is the §5.3 ablation: the shared-memory COW
// search vs the conventional RPC walk (paper: the RPC approach "would be
// simpler and probably just as fast").
func BenchmarkCOWLookupModes(b *testing.B) {
	for i := 0; i < b.N; i++ {
		c := harness.RunCOWLookupComparison()
		b.ReportMetric(c.SharedMemUs, "sharedmem-us")
		b.ReportMetric(c.RPCUs, "rpc-us")
		b.ReportMetric(c.TouchSMUs, "touch-sm-us")
		b.ReportMetric(c.TouchRPCUs, "touch-rpc-us")
	}
}

// BenchmarkSIPSvsIPI is the §6 hardware-support ablation: the SIPS round
// trip vs the same exchange over bare IPIs with polled per-sender queues.
func BenchmarkSIPSvsIPI(b *testing.B) {
	for i := 0; i < b.N; i++ {
		c := harness.RunSIPSvsIPI()
		b.ReportMetric(c.SIPSUs, "sips-us")
		b.ReportMetric(c.IPIUs, "ipi-us")
		if c.IPIUs <= c.SIPSUs {
			b.Fatalf("IPI (%f) not slower than SIPS (%f)", c.IPIUs, c.SIPSUs)
		}
	}
}

// BenchmarkCCNOW runs the §8 CC-NOW direction: the same Hive over a 5 µs
// network link; containment must hold and remote operations stretch with
// the interconnect while local ones are unchanged.
func BenchmarkCCNOW(b *testing.B) {
	for i := 0; i < b.N; i++ {
		c := harness.RunCCNOW()
		if !c.Contained {
			b.Fatal("containment lost on CC-NOW")
		}
		b.ReportMetric(c.FaultLocalUs, "fault-local-us")
		b.ReportMetric(c.FaultRemoteUs, "fault-remote-us")
		b.ReportMetric(c.DetectMs, "detect-ms")
	}
}

// BenchmarkFirewallGranularity is the §4.2 representation ablation: how
// many wild writes each firewall design blocks under a fixed sharing
// pattern (bit vector blocks all non-granted writers; a single bit per
// page blocks none once any grant exists).
func BenchmarkFirewallGranularity(b *testing.B) {
	for i := 0; i < b.N; i++ {
		bv, sb := harness.RunFirewallGranularity()
		b.ReportMetric(float64(bv), "bitvector-blocked")
		b.ReportMetric(float64(sb), "singlebit-blocked")
		if sb >= bv {
			b.Fatalf("single-bit blocked %d >= bit-vector %d", sb, bv)
		}
	}
}
