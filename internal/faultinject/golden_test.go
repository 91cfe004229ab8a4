package faultinject

import (
	"fmt"
	"hash/fnv"
	"testing"

	"repro/internal/core"
	"repro/internal/sim"
	"repro/internal/trace"
	"repro/internal/workload"
)

// hiveDigest fingerprints everything a run's determinism gate cares about:
// the final virtual time, the merged forensic trace (full total order), the
// workload result, and the per-cell failure states.
func hiveDigest(h *core.Hive, res *workload.Result) uint64 {
	d := fnv.New64a()
	fmt.Fprintf(d, "now=%d\n", h.Now())
	for _, ev := range h.Trace.Merged() {
		fmt.Fprintf(d, "ev=%d|%d|%d|%d|%d|%d|%d|%s\n",
			ev.At, ev.Cell, ev.Seq, ev.Kind, ev.Span, ev.A, ev.B, ev.S)
	}
	if res != nil {
		fmt.Fprintf(d, "wl=%v|%d|%d|%d|%d|%v\n",
			res.Done, res.Elapsed, res.FaultHits, res.FaultMisses, res.RemoteFaults, res.Errors)
		for _, out := range res.Outputs {
			fmt.Fprintf(d, "out=%s|%d|%d\n", out.Path, out.Home, out.Pages)
		}
	}
	for _, c := range h.Cells {
		fmt.Fprintf(d, "cell=%d|%v\n", c.ID, c.Failed())
	}
	return d.Sum64()
}

// eventsDigest fingerprints a recorded trace: every retained event's time,
// kind, cell and payload. TraceHash hashes what the engine dispatches, not
// what the kernel records, so a change to a recorded payload — an RPC
// procedure number in B, say — moves this digest and nothing else.
func eventsDigest(evs []trace.Event) uint64 {
	d := fnv.New64a()
	for _, ev := range evs {
		fmt.Fprintf(d, "%d|%d|%d|%d|%d|%s\n", ev.At, ev.Kind, ev.Cell, ev.A, ev.B, ev.S)
	}
	return d.Sum64()
}

// trialFingerprint summarizes a trial's outcome together with its
// dispatch-trace hash (TrialOpts.TraceHash), a strict event-order witness.
func trialFingerprint(r *TrialResult) string {
	return fmt.Sprintf("inj=%d detect=%.6f recov=%.6f d=%v c=%v i=%v ok=%v state=%v th=%x notes=%q",
		r.InjectedAt, r.DetectMs, r.RecoveryMs, r.Detected, r.Contained,
		r.IntegrityOK, r.CorrectRunOK, r.StateOK, r.TraceHash, r.Notes)
}

// TestGoldenPmake pins the event stream of the paper's headline run —
// pmake on four cells at the default seed, as `hivesim -workload pmake`
// runs it — to exact values. Any change to what the engine dispatches, or
// in what order, moves the digest or the dispatch count. A change that is
// meant to move the event stream must update these constants and say why.
func TestGoldenPmake(t *testing.T) {
	const (
		wantDigest      = uint64(0x96637ead8adf5aa3)
		wantDispatched  = uint64(584738)
		wantTraceDigest = uint64(0x93a8f15e24d0cb85)
	)
	h := workload.BootHiveWith(4, 1995, nil)
	res := workload.RunPmake(h, workload.DefaultPmake(), 120*sim.Second)
	if !res.Done {
		t.Fatalf("pmake did not finish: errs=%v", res.Errors)
	}
	if got := hiveDigest(h, res); got != wantDigest {
		t.Errorf("pmake digest = %#x, want %#x", got, wantDigest)
	}
	if got := h.Eng.Dispatched(); got != wantDispatched {
		t.Errorf("pmake dispatched %d events, want %d", got, wantDispatched)
	}
	if got := eventsDigest(h.Trace.Merged()); got != wantTraceDigest {
		t.Errorf("pmake recorded-trace digest = %#x, want %#x", got, wantTraceDigest)
	}
}

// TestGoldenTrials pins trial 0 of five scenarios that between them reach
// every injection path: a workload-hook injection (NodeFailProcCreate),
// careful reads of a corrupted cell (CorruptAddrMap), membership rounds
// that lose their coordinator (CoordinatorDeath), the seeded SIPS message
// injector (MsgDrop), and Wax placement with ForkExec under the reboot
// loop (SurgeFault). The fingerprint includes the dispatch-trace hash, so
// the check is exact where the bench gate allows ±5%; the recorded-trace
// digest pins what each trial's kernel wrote to its trace.
func TestGoldenTrials(t *testing.T) {
	golden := []struct {
		s      Scenario
		want   string
		events uint64
	}{
		{NodeFailProcCreate, `inj=141910050 detect=18.099280 recov=38.353800 d=true c=true i=true ok=true state=true th=e1bd5aa2b15d509a notes=""`, 0x75ddbd34472b2492},
		{CorruptAddrMap, `inj=2140000000 detect=60.214050 recov=53.827000 d=true c=true i=true ok=true state=true th=5ee38996a9ac2d14 notes=""`, 0xba2a7754a23f21b8},
		{CoordinatorDeath, `inj=1840000000 detect=73.413070 recov=43.025150 d=true c=true i=true ok=true state=true th=f7c994a5e89479e3 notes=""`, 0x3a7443bba888346a},
		{MsgDrop, `inj=2312999250 detect=0.000000 recov=0.000000 d=true c=true i=true ok=true state=true th=33699d923bbe053b notes=""`, 0x83993f7abb1b87d6},
		{SurgeFault, `inj=1372000000 detect=8.080090 recov=38.050250 d=true c=true i=true ok=true state=true th=e25d1bd3d8cc7513 notes=""`, 0x95e304d12d4c329e},
	}
	for _, g := range golden {
		r := RunTrialOpts(g.s, 0, TrialOpts{TraceHash: true, KeepEvents: true})
		if got := trialFingerprint(r); got != g.want {
			t.Errorf("%v trial 0:\n got %s\nwant %s", g.s, got, g.want)
		}
		if got := eventsDigest(r.Events); got != g.events {
			t.Errorf("%v trial 0 recorded-trace digest = %#x, want %#x", g.s, got, g.events)
		}
		if !r.OK() {
			t.Errorf("%v trial 0 not contained: %s", g.s, trialFingerprint(r))
		}
	}
}
