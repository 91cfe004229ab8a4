package faultinject

import (
	"bytes"
	"fmt"
	"hash/fnv"
	"testing"

	"repro/internal/core"
	"repro/internal/forensic"
	"repro/internal/membership"
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
// kind, cell and payload. TraceHash hashes the task resumes the engine
// dispatches, not what the kernel records, so a change to a recorded
// payload — an RPC procedure number in B, say — moves this digest and
// nothing else.
func eventsDigest(evs []trace.Event) uint64 {
	d := fnv.New64a()
	for _, ev := range evs {
		fmt.Fprintf(d, "%d|%d|%d|%d|%d|%s\n", ev.At, ev.Kind, ev.Cell, ev.A, ev.B, ev.S)
	}
	return d.Sum64()
}

// trialFingerprint summarizes a trial's outcome together with the hash of
// its task resumes (TrialOpts.TraceHash), a task-order witness, and the
// count of every event its engine dispatched, callbacks included.
func trialFingerprint(r *TrialResult) string {
	return fmt.Sprintf("inj=%d detect=%.6f recov=%.6f d=%v c=%v i=%v ok=%v state=%v th=%x n=%d notes=%q",
		r.InjectedAt, r.DetectMs, r.RecoveryMs, r.Detected, r.Contained,
		r.IntegrityOK, r.CorrectRunOK, r.StateOK, r.TraceHash, r.Dispatched, r.Notes)
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

// TestGoldenTrials pins trial 0 of the scenarios that between them reach
// every injection path and a mid-round fault in both kinds of membership
// round: a workload-hook injection (NodeFailProcCreate), careful reads of
// a corrupted cell (CorruptAddrMap), a death round that loses its
// coordinator (CoordinatorDeath) or a second member (DoubleFault) after
// barrier 1, the seeded SIPS message injector (MsgDrop), Wax placement
// with ForkExec under the reboot loop and one committed join
// (SurgeFault), a joiner killed after a join round's barrier 1 and
// re-admitted (FaultDuringReintegration), every join aborted until the
// rejoin backoff gives up (CrashLoop), and one join after another, each
// warm-up moving pages off frames an earlier warm-up borrowed and handing
// every vacated frame back to its memory home (RollingReboot). The
// fingerprint includes the task-resume hash and the count of every event
// dispatched, so the check is exact where the bench gate allows ±5%; the
// recorded-trace digest pins what each trial's kernel wrote to its trace.
func TestGoldenTrials(t *testing.T) {
	golden := []struct {
		s      Scenario
		want   string
		events uint64
	}{
		{NodeFailProcCreate, `inj=141910050 detect=18.099280 recov=38.353800 d=true c=true i=true ok=true state=true th=e1bd5aa2b15d509a n=66075 notes=""`, 0x75ddbd34472b2492},
		{CorruptAddrMap, `inj=2140000000 detect=60.214050 recov=53.827000 d=true c=true i=true ok=true state=true th=5ee38996a9ac2d14 n=212036 notes=""`, 0xba2a7754a23f21b8},
		{CoordinatorDeath, `inj=1840000000 detect=73.413070 recov=43.025150 d=true c=true i=true ok=true state=true th=f7c994a5e89479e3 n=164754 notes=""`, 0x3a7443bba888346a},
		{MsgDrop, `inj=2312999250 detect=0.000000 recov=0.000000 d=true c=true i=true ok=true state=true th=33699d923bbe053b n=602496 notes=""`, 0x83993f7abb1b87d6},
		{SurgeFault, `inj=1372000000 detect=8.080090 recov=38.050250 d=true c=true i=true ok=true state=true th=e25d1bd3d8cc7513 n=127328 notes=""`, 0x95e304d12d4c329e},
		{DoubleFault, `inj=903000000 detect=87.748210 recov=43.025000 d=true c=true i=true ok=true state=true th=7f07d70559c1cf0d n=186743 notes=""`, 0x461f95f146556e3},
		{FaultDuringReintegration, `inj=646000000 detect=14.038330 recov=38.083850 d=true c=true i=true ok=true state=true th=3eb92bcd468d7d06 n=169100 notes=""`, 0x80f97e73c68fe181},
		{CrashLoop, `inj=934000000 detect=6.054570 recov=40.618300 d=true c=true i=true ok=true state=true th=cdda91ef6ab157ac n=179741 notes=""`, 0x238659cc8b93e744},
		{RollingReboot, `inj=2238000000 detect=0.000000 recov=0.000000 d=true c=true i=true ok=true state=true th=56a064f1ad2ef007 n=228050 notes=""`, 0x9d6b5184cae1d5bd},
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

// TestGoldenRenderings pins what the trace's readers make of trial 0 of
// the four golden scenarios that run no reboot loop: the Chrome
// trace-event export and the forensic report, which both pair begin/end
// spans. TestGoldenTrials pins the recorded events themselves, so a
// digest here moves only when a rendering does.
func TestGoldenRenderings(t *testing.T) {
	golden := []struct {
		s              Scenario
		chrome, report uint64
	}{
		{NodeFailProcCreate, 0x19f859068aa58aa4, 0x126667cfee1d2eba},
		{CorruptAddrMap, 0x9c3f68fd1cc45a05, 0x977db7c7b994ec0d},
		{CoordinatorDeath, 0xfa97543b1de92a83, 0x16f88226f030debd},
		{MsgDrop, 0x14eda506b4d5f967, 0xf38c92373fa5a7c2},
	}
	digest := func(b []byte) uint64 {
		d := fnv.New64a()
		d.Write(b)
		return d.Sum64()
	}
	for _, g := range golden {
		r := RunTrialOpts(g.s, 0, TrialOpts{KeepEvents: true})
		var chrome bytes.Buffer
		if err := trace.ExportChrome(&chrome, r.Cells, r.Events); err != nil {
			t.Fatalf("%v trial 0 Chrome export: %v", g.s, err)
		}
		if got := digest(chrome.Bytes()); got != g.chrome {
			t.Errorf("%v trial 0 Chrome export digest = %#x, want %#x", g.s, got, g.chrome)
		}
		report := forensic.Analyze(r.Events, r.Dropped).Format(3)
		if got := digest([]byte(report)); got != g.report {
			t.Errorf("%v trial 0 forensic report digest = %#x, want %#x", g.s, got, g.report)
		}
	}
}

// TestGoldenVoteRejoin pins one pass of the availability loop under Vote
// agreement, which no scenario runs: cell 2 fails, the survivors vote it
// dead, the reboot controller microboots it, and every member probes the
// fresh image and votes it reachable before the join round commits. The
// reboot policy is the one the reboot scenarios use.
func TestGoldenVoteRejoin(t *testing.T) {
	const (
		wantVotesAt     = sim.Time(130058230)
		wantRejoinAt    = sim.Time(144058280)
		wantDispatched  = uint64(377)
		wantTraceDigest = uint64(0x57e213c18a8644e4)
	)
	h := workload.BootHiveWith(4, 1995, func(cfg *core.Config) {
		cfg.Agreement = membership.Vote
		cfg.Reboot = core.RebootPolicy{
			Enabled:     true,
			Delay:       30 * sim.Millisecond,
			BackoffBase: 20 * sim.Millisecond,
			BackoffMax:  200 * sim.Millisecond,
			MaxAttempts: 4,
		}
	})
	h.Run(50 * sim.Millisecond)
	h.Cells[2].FailHardware()
	if !h.RunUntil(func() bool {
		return len(h.Rebooter.Records) > 0 && h.Coord.LiveCount() == 4 &&
			h.Rebooter.Idle() && h.Coord.RecoveryIdle()
	}, 5*sim.Second) {
		t.Fatalf("loop never closed: live=%d records=%+v", h.Coord.LiveCount(), h.Rebooter.Records)
	}
	evs := h.Trace.Merged()
	var reachable []sim.Time
	for _, ev := range evs {
		if ev.Kind == trace.Vote && ev.S == "join" && ev.B == 0 {
			reachable = append(reachable, ev.At)
		}
	}
	if len(reachable) != 3 {
		t.Errorf("%d reachable votes at %v, want 3", len(reachable), reachable)
	}
	for _, at := range reachable {
		if at != wantVotesAt {
			t.Errorf("reachable vote at %d, want %d", at, wantVotesAt)
		}
	}
	if len(h.Coord.Rejoins) != 1 || h.Coord.Rejoins[0] != 2 || h.Coord.LastRejoinAt != wantRejoinAt {
		t.Errorf("rejoins %v at %d, want [2] at %d", h.Coord.Rejoins, h.Coord.LastRejoinAt, wantRejoinAt)
	}
	if got := h.Eng.Dispatched(); got != wantDispatched {
		t.Errorf("dispatched %d events, want %d", got, wantDispatched)
	}
	if got := eventsDigest(evs); got != wantTraceDigest {
		t.Errorf("recorded-trace digest = %#x, want %#x", got, wantTraceDigest)
	}
}
