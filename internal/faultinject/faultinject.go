// Package faultinject implements the §7.4 fault-injection campaign: the
// 49 fail-stop hardware fault tests and 20 kernel data corruption tests of
// Table 7.4, with the paper's measurement methodology — inject into one
// cell of a four-cell Hive, record the latency until the last cell enters
// recovery, observe whether the other cells survive, then run a pmake as a
// system correctness check and compare all output files against reference
// content. The extension rows attack the substrate the recovery
// algorithms themselves depend on: messages are dropped, duplicated,
// delayed and corrupted in flight, and further faults are injected
// *during* a recovery or join round. Containment for the message rows
// means nobody dies and the workload completes unharmed (the fault is
// absorbed by checksum discard, retry and dedup).
package faultinject

import (
	"fmt"
	"hash/fnv"

	"repro/internal/core"
	"repro/internal/forensic"
	"repro/internal/fs"
	"repro/internal/kmem"
	"repro/internal/parallel"
	"repro/internal/proc"
	"repro/internal/sim"
	"repro/internal/stats"
	"repro/internal/trace"
	"repro/internal/wax"
	"repro/internal/workload"
)

// Scenario names one campaign row: a Table 7.4 row or an extension.
type Scenario int

const (
	// NodeFailProcCreate is a fail-stop node failure during process
	// creation (pmake), 20 tests.
	NodeFailProcCreate Scenario = iota
	// NodeFailCOWSearch is a fail-stop node failure during a
	// copy-on-write search (raytrace), 9 tests.
	NodeFailCOWSearch
	// NodeFailRandom is a fail-stop node failure at a random time
	// (pmake), 20 tests.
	NodeFailRandom
	// CorruptAddrMap corrupts a pointer in a process address map
	// (pmake), 8 tests.
	CorruptAddrMap
	// CorruptCOWTree corrupts a pointer in the copy-on-write tree
	// (raytrace), 12 tests.
	CorruptCOWTree
	// MsgDrop loses SIPS messages carrying retry-safe RPC traffic
	// (requests to — or replies from — idempotent services); the caller's
	// bounded retransmit must recover (pmake).
	MsgDrop
	// MsgDup delivers messages into the target cell twice; server-side
	// dedup and stale-reply discard must absorb the duplicates (pmake).
	MsgDup
	// MsgCorrupt flips payload bits in flight; the line checksum must
	// detect the damage at delivery and degrade the fault to a drop
	// (pmake).
	MsgCorrupt
	// DoubleFault fails a second cell while the first failure's recovery
	// round is between its barriers, forcing the barrier-shrink and
	// vote-withdrawal path (pmake).
	DoubleFault
	// CoordinatorDeath fails the round coordinator (the recovery master)
	// between barrier 1 and barrier 2; the survivors must restart the
	// round under the next live cell (pmake).
	CoordinatorDeath
	// FaultStorm mixes drops, duplicates, delays, and corruption over a
	// 25 ms window of the whole message stream (pmake).
	FaultStorm
	// FaultDuringReintegration closes the availability loop and then
	// attacks it: a cell fails at a random time, the reboot controller
	// microboots it, and a second fault kills the joiner just after the
	// join round's first barrier opens — the round must abort cleanly
	// without taking a survivor with it, and the retry must restore full
	// capacity (pmake).
	FaultDuringReintegration
	// CrashLoop cuts the rebooted cell down on every join attempt; the
	// controller must stop at its rejoin-backoff bound and give up,
	// leaving the survivors intact (pmake).
	CrashLoop
	// RollingReboot fails every fault-eligible cell in sequence under
	// load, waiting for each to reboot, rejoin, and restore full capacity
	// before the next kill (pmake).
	RollingReboot
	// SurgeFault kills a cell in the middle of the multi-tenant
	// frontend's burst window and rides the full death → reboot → rejoin
	// → re-stripe loop while the open-loop arrival stream keeps coming:
	// the user-visible availability window (first to last degraded or
	// lost request) must be bounded by the restore time (frontend).
	SurgeFault
)

// NumScenarios counts all campaign scenarios, paper rows and extensions.
const NumScenarios = int(SurgeFault) + 1

// scenarios holds each scenario's facts. Arming its fault and judging its
// trial stay code, in RunTrialOpts.
var scenarios = [NumScenarios]struct {
	name  string // as in Table 7.4
	tests int    // default trial count: the paper's for a Table 7.4 row
	dead  int    // cells left dead once the trial settles
	loop  bool   // boots the reboot loop (RebootLoop)
}{
	NodeFailProcCreate:       {"node failure during process creation (P)", 20, 1, false},
	NodeFailCOWSearch:        {"node failure during copy-on-write search (R)", 9, 1, false},
	NodeFailRandom:           {"node failure at random time (P)", 20, 1, false},
	CorruptAddrMap:           {"corrupt pointer in process address map (P)", 8, 1, false},
	CorruptCOWTree:           {"corrupt pointer in copy-on-write tree (R)", 12, 1, false},
	MsgDrop:                  {"message dropped in flight (P, ext)", 10, 0, false},
	MsgDup:                   {"message duplicated in flight (P, ext)", 10, 0, false},
	MsgCorrupt:               {"message corrupted in flight (P, ext)", 10, 0, false},
	DoubleFault:              {"second node failure during recovery (P, ext)", 6, 2, false},
	CoordinatorDeath:         {"recovery coordinator fails mid-round (P, ext)", 6, 2, false},
	FaultStorm:               {"message fault storm (P, ext)", 6, 0, false},
	FaultDuringReintegration: {"second fault during reintegration (P, ext)", 6, 0, true},
	CrashLoop:                {"crash loop bounded by rejoin backoff (P, ext)", 6, 1, true},
	RollingReboot:            {"rolling reboot of all cells (P, ext)", 4, 0, true},
	SurgeFault:               {"cell failure during frontend surge (F, ext)", 4, 0, true},
}

// String names the scenario as in Table 7.4.
func (s Scenario) String() string {
	if uint(s) >= uint(NumScenarios) {
		return "unknown"
	}
	return scenarios[s].name
}

// DefaultTests returns the default campaign trial count: the paper's
// counts for Table 7.4 rows, fixed counts for the extension rows.
func (s Scenario) DefaultTests() int { return scenarios[s].tests }

// RebootLoop reports whether the scenario exercises the availability loop:
// the trial boots with the reboot controller enabled, and cell deaths are
// expected to heal (except past CrashLoop's give-up bound) rather than
// persist to the end of the run.
func (s Scenario) RebootLoop() bool { return scenarios[s].loop }

// AllScenarios lists every campaign scenario, paper rows first.
func AllScenarios() []Scenario {
	out := make([]Scenario, NumScenarios)
	for i := range out {
		out[i] = Scenario(i)
	}
	return out
}

// crashLoopBound is the rejoin-attempt bound CrashLoop trials configure and
// then verify: the controller must give up after exactly this many attempts.
const crashLoopBound = 3

// TrialResult is one injection's outcome.
type TrialResult struct {
	Scenario     Scenario
	Seed         int64
	TargetCell   int
	InjectedAt   sim.Time
	DetectMs     float64 // latency until the last cell enters recovery
	RecoveryMs   float64 // recovery duration (entry to completion)
	Detected     bool
	Contained    bool   // injected cell dead, all others alive & serving
	IntegrityOK  bool   // no corrupt data in surviving output files
	CorrectRunOK bool   // post-fault pmake correctness check passed
	StateOK      bool   // cross-cell kernel invariants hold after recovery
	TraceHash    uint64 // FNV-1a over the engine's dispatch trace (TrialOpts.TraceHash)
	Notes        string

	// Availability-loop metrics (reboot scenarios; Scenario.RebootLoop).
	Rejoins   int     // committed rejoin passes
	RestoreMs float64 // worst pass: death verdict → join-round commit (full capacity)
	LoopP99Ms float64 // p99 probe-op latency (ms) while the loop ran

	// Frontend SLO metrics (SurgeFault): what the open-loop user
	// population saw of the death → reboot → rejoin loop.
	FeIssued    int     // jobs dispatched
	FeCompleted int     // jobs completed
	FeLost      int     // jobs lost with the victim
	FeP99Us     float64 // job latency p99 (virtual µs)
	FeWindowMs  float64 // user-visible availability window (ms)

	// Forensic capture (TrialOpts.KeepEvents): the merged typed event
	// stream and per-cell ring-truncation counters the trace-based
	// auditor re-derives its verdict from, plus the hive size.
	Cells   int
	Events  []trace.Event
	Dropped []trace.DropCount
	// Report is the forensic report of every event the trial recorded
	// (TrialOpts.Audit).
	Report *forensic.Report
}

// OK reports full containment per the paper's criterion, plus the
// invariant audit this reproduction adds.
func (r *TrialResult) OK() bool {
	return r.Detected && r.Contained && r.IntegrityOK && r.CorrectRunOK && r.StateOK
}

// corruption pathologies cycled across software-fault trials (§7.4: random
// addresses in the same cell or other cells, one word away, self-pointing).
type pathology int

const (
	pathSameCell pathology = iota
	pathOtherCell
	pathOffByOne
	pathSelf
)

// TrialOpts tunes one trial's instrumentation.
type TrialOpts struct {
	// TraceHash hashes every engine dispatch into TrialResult.TraceHash —
	// a strict event-order witness for determinism regression tests. Off
	// by default: the trace hook costs an allocation per dispatch.
	TraceHash bool
	// KeepEvents retains the merged typed event stream and the per-cell
	// ring-truncation counters in TrialResult.Events/Dropped — the input
	// of the trace-based containment auditor (internal/forensic) and of
	// the Chrome export (trace.ExportChrome).
	KeepEvents bool
	// TraceCap overrides the per-cell trace ring capacity (0 = default).
	TraceCap int
	// Audit folds every event the trial records into TrialResult.Report
	// as it is recorded, through the trace's sink, so the report covers
	// the events the rings drop, at any TraceCap.
	Audit bool
	// Seed overrides the seed derived from (scenario, trial). The sweep
	// failure minimizer uses it to search for the smallest reproducing
	// seed; 0 keeps the derived default.
	Seed int64
	// Cells sizes the Hive the trial boots (0 = the paper's 4 cells).
	// Larger campaigns exercise containment at scale; counts below 4 are
	// rejected — the methodology needs two file-server cells plus at
	// least two candidate victims.
	Cells int
}

// RunTrial executes one injection trial from a fresh boot.
func RunTrial(s Scenario, trial int) *TrialResult {
	return RunTrialOpts(s, trial, TrialOpts{})
}

// RunTrialOpts is RunTrial with explicit instrumentation options. The trial
// is entirely self-contained (its own engine, seeded from (s, trial)), so
// concurrent trials on a parallel.Runner give bit-identical results. Trials
// are numbered from 0; a negative trial panics, since it would rotate the
// target onto cell 0, the /usr file server.
func RunTrialOpts(s Scenario, trial int, opts TrialOpts) *TrialResult {
	if trial < 0 {
		panic(fmt.Sprintf("faultinject: trial %d: trials are 0 or more", trial))
	}
	cells := opts.Cells
	if cells == 0 {
		cells = 4
	}
	if cells < 4 {
		panic(fmt.Sprintf("faultinject: campaign needs at least 4 cells, got %d", cells))
	}
	seed := int64(10007*trial + int(s)*211 + 7)
	if cells != 4 {
		// Distinct cell counts are distinct experiments; keep the 4-cell
		// seeds exactly as published while separating the others.
		seed += int64(cells) * 7919
	}
	if opts.Seed != 0 {
		seed = opts.Seed
	}
	h := workload.BootHiveWith(cells, seed, func(cfg *core.Config) {
		if opts.TraceCap > 0 {
			cfg.TraceCap = opts.TraceCap
		}
		if s == CoordinatorDeath {
			// The recovery master (cell 0) is itself a casualty here, so
			// the file servers must live elsewhere: /usr and /data move
			// to cell 2, keeping the correctness check runnable on the
			// surviving cells.
			cfg.Mounts = []fs.Mount{
				{Prefix: "/tmp", Cell: cells - 1},
				{Prefix: "/usr", Cell: 2},
				{Prefix: "/data", Cell: 2},
			}
		}
		if s.RebootLoop() {
			// The availability loop is under test: a quick repair delay and
			// tight backoff keep the whole fault → reboot → rejoin → full
			// capacity loop inside the trial's 60 s window; CrashLoop's
			// small attempt bound makes the give-up path reachable.
			cfg.Reboot = core.RebootPolicy{
				Enabled:     true,
				Delay:       30 * sim.Millisecond,
				BackoffBase: 20 * sim.Millisecond,
				BackoffMax:  200 * sim.Millisecond,
				MaxAttempts: 4,
			}
			if s == CrashLoop {
				cfg.Reboot.MaxAttempts = crashLoopBound
			}
		}
	})
	// Registered first, so it runs last: after the deferred reads of the
	// trace below, end every task so the finished hive can be collected.
	defer h.Eng.Stop()
	res := &TrialResult{Scenario: s, Seed: seed, Cells: cells, TargetCell: 1 + trial%(cells-2)}
	if s == CoordinatorDeath {
		// Cell 0 is the coordinator casualty, so the first fault targets
		// a fixed non-coordinator, non-file-server cell.
		res.TargetCell = 1
	}
	if opts.TraceHash {
		th := fnv.New64a()
		h.Eng.Trace = func(at sim.Time, what string) {
			fmt.Fprintf(th, "%d:%s\n", at, what)
		}
		defer func() { res.TraceHash = th.Sum64() }()
	}
	if opts.KeepEvents {
		defer func() {
			res.Events = h.Trace.Merged()
			res.Dropped = h.Trace.Dropped()
		}()
	}
	if opts.Audit {
		fold := forensic.NewFold(h.Trace.Cells())
		h.Trace.SetSink(fold.Add)
		defer func() {
			h.Trace.SetSink(nil)
			res.Report = fold.Report(nil)
		}()
	}
	// Targets rotate over cells 1..cells-2: none host /usr (cell 0) or
	// /tmp (the last cell), so the correctness check has its file servers
	// after the fault — the paper's workloads survive only if their
	// resources do (§2).
	target := res.TargetCell
	rng := h.Eng.Rand()

	var injected bool
	inject := func() {
		if injected || h.Cells[target].Failed() {
			return
		}
		injected = true
		res.InjectedAt = h.Eng.Now()
		h.Cells[target].FailHardware()
	}

	// Reboot scenarios measure the loop's availability cost with a probe
	// workload; rollingDone gates the settle condition for the one scenario
	// whose injection driver spans most of the run.
	var probe *latencyProbe
	rollingDone := s != RollingReboot
	if s.RebootLoop() {
		probe = startLatencyProbe(h)
	}

	var wl *workload.Result
	var fe *workload.FrontendResult
	switch s {
	case NodeFailProcCreate:
		cfg := workload.DefaultPmake()
		victim := 2 + trial%6 // vary which job's creation triggers it
		cfg.InjectHook = func(job int) {
			if job == victim {
				inject()
			}
		}
		wl = workload.RunPmake(h, cfg, 60*sim.Second)

	case NodeFailRandom:
		cfg := workload.DefaultPmake()
		at := sim.Time(500+rng.Intn(4000)) * sim.Millisecond
		h.Eng.At(at, inject)
		wl = workload.RunPmake(h, cfg, 60*sim.Second)

	case NodeFailCOWSearch:
		cfg := workload.DefaultRaytrace()
		cfg.MainCell = target // the scene data home is the victim
		// Fail in the steady phase, when COW searches are periodic
		// (scratch growth): detection races the search against the
		// clock monitor's bus error, as in the paper's narrow 10-11 ms
		// band.
		cfg.ForkHook = func(worker int) {
			if worker == 3 {
				h.Eng.After(sim.Time(1500+rng.Intn(1500))*sim.Millisecond, inject)
			}
		}
		wl = workload.RunRaytrace(h, cfg, 60*sim.Second)

	case CorruptAddrMap:
		cfg := workload.DefaultPmake()
		at := sim.Time(800+rng.Intn(2500)) * sim.Millisecond
		mainDone := false
		h.Eng.At(at, func() {
			r := rng.Uint64()
			// On a large hive the target may run no compile job at the
			// drawn instant: try again every 5 ms while the main pmake
			// runs, never in the correctness check.
			var attempt func()
			attempt = func() {
				if mainDone || h.Cells[target].Failed() {
					return
				}
				if !corruptAddrMap(h, target, pathology(trial%4), r) {
					h.Eng.After(5*sim.Millisecond, attempt)
					return
				}
				injected = true
				res.InjectedAt = h.Eng.Now()
				h.Cells[target].MarkCorrupt()
			}
			attempt()
		})
		wl = workload.RunPmake(h, cfg, 60*sim.Second)
		mainDone = true

	case CorruptCOWTree:
		cfg := workload.DefaultRaytrace()
		cfg.MainCell = target
		at := sim.Time(400+rng.Intn(1500)) * sim.Millisecond
		var sceneRoot kmem.Addr
		cfg.ForkHook = func(worker int) {
			if worker == 0 {
				// The parent's pre-fork leaf (now interior) is the
				// scene root every worker's search passes through.
				h.Cells[target].Procs.Each(func(p *proc.Process) {
					if p.Name == "rt.main" {
						sceneRoot = rootOf(h, p)
					}
				})
			}
		}
		h.Eng.At(at, func() {
			if sceneRoot == kmem.NilAddr {
				return
			}
			if corruptNode(h, target, sceneRoot, pathology(trial%4), rng.Uint64()) {
				injected = true
				res.InjectedAt = h.Eng.Now()
				h.Cells[target].MarkCorrupt()
			}
		})
		wl = workload.RunRaytrace(h, cfg, 60*sim.Second)

	case MsgDrop, MsgDup, MsgCorrupt, FaultStorm:
		inj := armMsgFaults(h, s, target, rng)
		wl = workload.RunPmake(h, workload.DefaultPmake(), 60*sim.Second)
		inj.disarm()
		if inj.fired > 0 {
			injected = true
			res.InjectedAt = inj.firstAt
		}

	case DoubleFault, CoordinatorDeath, FaultDuringReintegration, CrashLoop:
		// The target fails at a random time. A second fail-stop lands just
		// after barrier 1 opens in a round about the target — while every
		// member is inside the round. DoubleFault kills another member of
		// the death round (the barrier-shrink and vote-withdrawal path) and
		// CoordinatorDeath its coordinator (the survivors must restart the
		// round under the next live cell). FaultDuringReintegration kills
		// the joiner once: the aborted join round must not take a survivor
		// with it, and the controller's next attempt must restore full
		// capacity. CrashLoop kills it on every attempt: the controller
		// must hit its rejoin-backoff bound and give up rather than reboot
		// forever.
		at := sim.Time(500+rng.Intn(3000)) * sim.Millisecond
		h.Eng.At(at, inject)
		joinRound := s.RebootLoop() // only the loop rows rejoin their target
		fired := false
		h.Coord.OnBarrier1Open = func(join bool, cell, coordinator int) {
			if join != joinRound || cell != target || (fired && s != CrashLoop) {
				return
			}
			fired = true
			victim := cell
			switch s {
			case DoubleFault:
				victim = doubleFaultSecond(target)
			case CoordinatorDeath:
				victim = coordinator
			}
			h.Eng.After(2*sim.Millisecond, func() {
				if c := h.Cells[victim]; !c.Failed() {
					c.FailHardware()
				}
			})
		}
		wl = workload.RunPmake(h, workload.DefaultPmake(), 60*sim.Second)

	case RollingReboot:
		// Fail every fault-eligible cell in sequence (the file-server
		// cells anchor the §7.4 correctness methodology and stay up),
		// waiting for the loop to restore full capacity before each next
		// kill. The driver reads coordinator and controller state
		// directly.
		first := sim.Time(500+rng.Intn(2000)) * sim.Millisecond
		n := cells - 2 // victims rotate over cells 1..cells-2
		h.Eng.Go("rolling.driver", func(t *sim.Task) {
			t.Sleep(first)
			for i := 0; i < n; i++ {
				v := 1 + (trial+i)%n // pass 0 hits res.TargetCell
				if i == 0 {
					inject()
				} else if !h.Cells[v].Failed() {
					h.Cells[v].FailHardware()
				}
				deadline := t.Now() + 10*sim.Second
				for t.Now() < deadline &&
					!(h.Coord.LiveCount() == cells && h.Rebooter.Idle() && h.Coord.RecoveryIdle()) {
					t.Sleep(5 * sim.Millisecond)
				}
			}
			rollingDone = true
		})
		wl = workload.RunPmake(h, workload.DefaultPmake(), 60*sim.Second)

	case SurgeFault:
		// Kill the target in the middle of the frontend's burst window:
		// the open-loop arrival stream keeps coming while the availability
		// loop reboots, rejoins, and re-stripes the victim. The dispatchers
		// are detached (fork+exec), so they survive the victim and route
		// around the hole with Wax's placement hints; the user-visible
		// availability window they record must be bounded by the loop's
		// restore time. Wax runs under its supervisor, as in production:
		// the incarnation dies with the victim and a fresh one rebuilds
		// its view over the healed live set.
		sup := wax.Supervise(h)
		defer sup.Stop()
		fcfg := workload.DefaultFrontend()
		fcfg.Users = 200_000
		fcfg.Tenants = 32
		fcfg.RatePerSec = 400
		fcfg.Duration = 3 * sim.Second
		fcfg.BurstAt = 800 * sim.Millisecond
		fcfg.BurstLen = 1200 * sim.Millisecond
		fcfg.Seed = 0xFE00 + uint64(trial)
		at := sim.Time(900+rng.Intn(800)) * sim.Millisecond
		h.Eng.At(at, inject)
		wl, fe = workload.RunFrontend(h, fcfg, 60*sim.Second)
	}

	if !injected {
		res.Notes = "injection never triggered"
		return res
	}

	// A late corruption can land after the victim's last walk of the
	// damaged structure, leaving the fault latent when the workload
	// drains. The cell's periodic kernel consistency audit must still
	// find it (§4.1 aggressive failure detection) — run the target's
	// audit now so the verdict never depends on whether the workload
	// happened to re-touch the damaged node.
	if (s == CorruptAddrMap || s == CorruptCOWTree) && !h.Cells[target].Failed() {
		auditKernel(h, target)
	}

	// Cells this scenario is expected to kill (empty for message faults).
	expectDead := map[int]bool{}
	if scenarios[s].dead > 0 {
		expectDead[target] = true
	}
	switch s {
	case DoubleFault:
		expectDead[doubleFaultSecond(target)] = true
	case CoordinatorDeath:
		expectDead[0] = true
	}

	switch {
	case s.RebootLoop():
		// The availability loop must settle before anything is judged:
		// the injection driver done, every controller task drained, no
		// membership round in flight, and the live set at its expected
		// final size (full capacity, except past CrashLoop's bound).
		want := len(h.Cells) - len(expectDead)
		h.RunUntil(func() bool {
			return rollingDone && h.Coord.LiveCount() == want &&
				h.Rebooter.Idle() && h.Coord.RecoveryIdle() &&
				h.Coord.RecoveryEndAt > res.InjectedAt
		}, h.Eng.Now()+15*sim.Second)

		if h.Coord.LastDetectAt > res.InjectedAt {
			res.Detected = true
			if s != RollingReboot {
				// Rolling trials span several injections; a single
				// last-detect minus first-inject latency would be
				// meaningless, so only the single-victim rows report it.
				res.DetectMs = (h.Coord.LastDetectAt - res.InjectedAt).Millis()
				if h.Coord.RecoveryEndAt > h.Coord.FirstDetectAt {
					res.RecoveryMs = (h.Coord.RecoveryEndAt - h.Coord.FirstDetectAt).Millis()
				}
			}
		}
		for _, rec := range h.Rebooter.Records {
			if rec.Restored() {
				res.Rejoins++
				if ms := (rec.RejoinAt - rec.DeadAt).Millis(); ms > res.RestoreMs {
					res.RestoreMs = ms
				}
			}
		}
		res.LoopP99Ms = probe.stopAndP99()

	case len(expectDead) > 0:
		// Let detection and recovery finish.
		want := len(h.Cells) - len(expectDead)
		h.RunUntil(func() bool {
			// RecoveryIdle matters for the multi-fault rows: the live
			// set reaches `want` at the last verdict, while that round's
			// recovery phases are still running.
			return h.Coord.LiveCount() == want && h.Coord.RecoveryEndAt > res.InjectedAt &&
				h.Coord.RecoveryIdle()
		}, h.Eng.Now()+5*sim.Second)

		if h.Coord.LastDetectAt > res.InjectedAt {
			res.Detected = true
			res.DetectMs = (h.Coord.LastDetectAt - res.InjectedAt).Millis()
			if h.Coord.RecoveryEndAt > h.Coord.FirstDetectAt {
				res.RecoveryMs = (h.Coord.RecoveryEndAt - h.Coord.FirstDetectAt).Millis()
			}
		}
	default:
		// Message faults kill nobody: detection means the messaging
		// layer visibly observed and absorbed the fault (checksum
		// discard, retransmit, dedup) while the workload ran.
		res.Detected = msgFaultDetected(h, s)
	}

	// Containment: exactly the expected set of cells is down.
	res.Contained = true
	for _, c := range h.Cells {
		switch {
		case expectDead[c.ID] && !c.Failed():
			res.Contained = false
			res.Notes += fmt.Sprintf("cell %d expected down but live;", c.ID)
		case !expectDead[c.ID] && c.Failed():
			res.Contained = false
			res.Notes += fmt.Sprintf("cell %d collaterally failed;", c.ID)
		}
	}
	if len(expectDead) == 0 && !s.RebootLoop() && (!wl.Done || len(wl.Errors) > 0) {
		// Message faults never kill a process, so the workload must have
		// finished cleanly. Reboot trials do kill cells (jobs on a victim
		// vanish — an availability loss §2 permits), so they are exempt.
		res.Contained = false
		res.Notes += fmt.Sprintf("workload under message faults: done=%v errs=%v;", wl.Done, wl.Errors)
	}
	if s == CoordinatorDeath && h.Coord.RoundRestarts == 0 {
		res.Contained = false
		res.Notes += "no round restart after coordinator death;"
	}
	if s.RebootLoop() {
		// The loop itself must have done its job, not just left the right
		// cells alive.
		switch s {
		case FaultDuringReintegration:
			if res.Rejoins != 1 || h.Rebooter.FullCapacityAt == 0 {
				res.Contained = false
				res.Notes += fmt.Sprintf("full capacity not restored (rejoins=%d);", res.Rejoins)
			} else if h.Rebooter.Records[0].Attempts < 2 {
				res.Contained = false
				res.Notes += "mid-join fault cost no extra attempt — injection missed the round;"
			}
		case CrashLoop:
			bounded := false
			for _, rec := range h.Rebooter.Records {
				if rec.Cell == target && rec.GaveUp && rec.Attempts == crashLoopBound {
					bounded = true
				}
			}
			if !bounded {
				res.Contained = false
				res.Notes += fmt.Sprintf("crash loop not bounded: records=%+v;", h.Rebooter.Records)
			}
		case RollingReboot:
			if res.Rejoins != len(h.Cells)-2 || h.Rebooter.FullCapacityAt == 0 {
				res.Contained = false
				res.Notes += fmt.Sprintf("rolling reboot restored %d/%d cells;",
					res.Rejoins, len(h.Cells)-2)
			}
		case SurgeFault:
			res.FeIssued = fe.Issued
			res.FeCompleted = fe.Completed
			res.FeLost = fe.Lost
			res.FeP99Us = fe.Latency.P99
			res.FeWindowMs = fe.ErrWindowMs
			switch {
			case res.Rejoins != 1 || h.Rebooter.FullCapacityAt == 0:
				res.Contained = false
				res.Notes += fmt.Sprintf("full capacity not restored (rejoins=%d);", res.Rejoins)
			case fe.Completed == 0 || fe.Issued == 0:
				res.Contained = false
				res.Notes += "frontend served no jobs;"
			case fe.Degraded == 0 || fe.ErrWindowMs <= 0:
				res.Contained = false
				res.Notes += "fault invisible to users — injection missed the surge;"
			case fe.ErrWindowMs > res.RestoreMs+250:
				res.Contained = false
				res.Notes += fmt.Sprintf("availability window %.1fms not bounded by restore %.1fms;",
					fe.ErrWindowMs, res.RestoreMs)
			}
		}
	}

	// Data integrity: no corrupt data visible in surviving outputs.
	bad, report := workload.VerifyOutputs(h, wl)
	res.IntegrityOK = bad == 0
	if bad > 0 {
		res.Notes += fmt.Sprintf("integrity: %v;", report)
	}

	// System correctness check: a fresh pmake forks processes on all
	// surviving cells; its success indicates the survivors were not
	// damaged (§7.4).
	check := workload.DefaultPmake()
	check.Files = 4
	check.Parallel = 2
	check.CompileCPU = 40 * sim.Millisecond
	check.NamespaceOps = 50
	check.SharedPages = 32
	check.AnonPages = 16
	check.SrcPages = 8
	check.OutPages = 4
	check.Seed = 0xC4EC + uint64(trial)
	check.Tag = "check" // disjoint namespace from the main workload's files
	cres := workload.RunPmake(h, check, 60*sim.Second)
	cbad, _ := workload.VerifyOutputs(h, cres)
	missing := 0
	for _, out := range cres.Outputs {
		if !outputPresent(h, out) {
			missing++
		}
	}
	res.CorrectRunOK = cres.Done && cbad == 0 && missing == 0 && len(cres.Errors) == 0
	if !res.CorrectRunOK {
		res.Notes += fmt.Sprintf("check: done=%v bad=%d missing=%d errs=%v;",
			cres.Done, cbad, missing, cres.Errors)
	}

	// Audit the survivors' cross-cell kernel state.
	if bad := h.CheckInvariants(); len(bad) > 0 {
		res.Notes += fmt.Sprintf("invariants: %v;", bad)
	} else {
		res.StateOK = true
	}
	return res
}

// auditKernel runs the target cell's periodic kernel consistency audit in
// a fresh process. If the audit finds damage the cell panics out from
// under the audit task, so completion is "audit finished or cell died".
func auditKernel(h *core.Hive, target int) {
	cell := h.Cells[target]
	done := false
	cell.Procs.Spawn("kaudit", 907, func(p *proc.Process, t *sim.Task) {
		defer func() { done = true }()
		cell.COW.Audit(t)
	})
	h.RunUntil(func() bool { return done || cell.Failed() }, h.Eng.Now()+5*sim.Second)
}

// doubleFaultSecond picks the second casualty of a DoubleFault trial:
// another non-file-server cell, never the first target. At 4 cells this is
// 3-target — the seed campaign's published pairing — and it stays valid at
// any larger count (cells 1 and 2 are victims, never mounts).
func doubleFaultSecond(target int) int {
	if target == 1 {
		return 2
	}
	return 1
}

// outputPresent checks a file exists with full length at its home.
func outputPresent(h *core.Hive, out workload.OutputFile) bool {
	ok := false
	done := false
	cell := h.Cells[out.Home]
	if cell.Failed() {
		return true
	}
	cell.Procs.Spawn("present", 901, func(p *proc.Process, t *sim.Task) {
		defer func() { done = true }()
		hd, err := cell.FS.Open(t, out.Path)
		if err != nil {
			return
		}
		pages, err := cell.FS.Read(t, hd, out.Pages)
		if err != nil {
			return
		}
		for _, pg := range pages {
			if pg.Tag == 0 {
				return
			}
		}
		ok = true
	})
	h.RunUntil(func() bool { return done }, h.Eng.Now()+20*sim.Second)
	return ok
}

// corruptAddrMap corrupts a live compile process's address-space map (its
// COW leaf's parent pointer) on the target cell.
func corruptAddrMap(h *core.Hive, target int, path pathology, r uint64) bool {
	var victim *proc.Process
	h.Cells[target].Procs.Each(func(p *proc.Process) {
		if victim == nil && len(p.Name) > 2 && p.Name[:2] == "cc" {
			victim = p
		}
	})
	if victim == nil {
		return false
	}
	return corruptNode(h, target, victim.Leaf, path, r)
}

// corruptNode overwrites a COW node's parent pointer with a pathological
// value per §7.4.
func corruptNode(h *core.Hive, target int, node kmem.Addr, path pathology, r uint64) bool {
	var val uint64
	switch path {
	case pathSameCell:
		val = uint64(kmem.MakeAddr(target, (r%(1<<20))&^7|64))
	case pathOtherCell:
		other := (target + 1) % len(h.Cells)
		val = uint64(kmem.MakeAddr(other, (r%(1<<20))&^7|64))
	case pathOffByOne:
		val = uint64(node) + kmem.WordSize
	case pathSelf:
		val = uint64(node)
	}
	return h.Cells[target].COW.CorruptParent(node, val)
}

// rootOf returns the node a process's current leaf points at (the pre-fork
// interior node holding the scene pages).
func rootOf(h *core.Hive, p *proc.Process) kmem.Addr {
	arena := h.Space.Arena(p.Cell)
	//hive:lint-ignore carefulref the injector plays the hardware: it reaches into a victim cell's arena from outside any cell, where the careful protocol does not apply
	parent, err := arena.ReadWord(p.Leaf, 0)
	if err != nil {
		return kmem.NilAddr
	}
	if parent == 0 {
		return p.Leaf
	}
	return kmem.Addr(parent)
}

// CampaignRow aggregates one scenario's trials (a Table 7.4 row). The
// latency columns come from log-bucketed histograms over the detected
// trials; the Avg/Max fields keep the paper table's summary statistics and
// the percentiles expose the tails Table 7.4 could not show.
type CampaignRow struct {
	Scenario  Scenario
	Name      string
	Tests     int
	AllOK     bool
	AvgDetect float64
	MaxDetect float64
	P50Detect float64
	P99Detect float64
	AvgRecov  float64
	P50Recov  float64
	P99Recov  float64
	Failures  []string

	// Availability-loop columns (reboot scenarios only): time from death
	// verdict to restored full capacity, and the p99 probe-op latency the
	// workload saw while the loop ran.
	AvgRestore float64 `json:",omitempty"`
	P99Restore float64 `json:",omitempty"`
	AvgLoopP99 float64 `json:",omitempty"`

	// Frontend columns (SurgeFault only): the user-visible availability
	// window across trials, in ms.
	AvgWindow float64 `json:",omitempty"`
	MaxWindow float64 `json:",omitempty"`

	// Detect and Recov are the full latency distributions (ms); Restore is
	// the availability-loop restoration distribution.
	Detect  *stats.HistSnapshot `json:",omitempty"`
	Recov   *stats.HistSnapshot `json:",omitempty"`
	Restore *stats.HistSnapshot `json:",omitempty"`
}

// RunTrials runs trials 0..n(s)-1 of every scenario in scens as one job
// list on r's worker pool, so the pool stays full across scenario
// boundaries, and returns each scenario's results in trial order. run
// executes one trial inside its job and returns what the caller keeps of
// it. Each trial boots its own hive from a seed derived from (scenario,
// trial), so the results are the same at any worker count.
func RunTrials[T any](r *parallel.Runner, scens []Scenario, n func(Scenario) int, run func(s Scenario, trial int) T) [][]T {
	type job struct{ scen, trial int }
	var jobs []job
	for si, s := range scens {
		for t := range n(s) {
			jobs = append(jobs, job{si, t})
		}
	}
	flat := parallel.Map(r, len(jobs), func(i int) T {
		return run(scens[jobs[i].scen], jobs[i].trial)
	})
	out := make([][]T, len(scens))
	for i, j := range jobs {
		out[j.scen] = append(out[j.scen], flat[i])
	}
	return out
}

// RunCampaign runs trials 0..n(s)-1 of every scenario in scens with opts
// (RunTrials) and folds each scenario's results into its row, in scens
// order.
func RunCampaign(r *parallel.Runner, scens []Scenario, n func(Scenario) int, opts TrialOpts) []*CampaignRow {
	trials := RunTrials(r, scens, n, func(s Scenario, trial int) *TrialResult {
		return RunTrialOpts(s, trial, opts)
	})
	rows := make([]*CampaignRow, len(scens))
	for i, s := range scens {
		rows[i] = Aggregate(s, trials[i])
	}
	return rows
}

// Aggregate folds a scenario's ordered trial results into a Table 7.4 row.
// Detection and recovery latencies go through log-bucketed histograms so
// the row carries means, maxima, and tail percentiles from one accumulator.
func Aggregate(s Scenario, trials []*TrialResult) *CampaignRow {
	row := &CampaignRow{Scenario: s, Name: s.String(), Tests: len(trials), AllOK: true}
	var hd, hr, hres, hw stats.Histogram
	var loopSum float64
	loopN := 0
	for i, tr := range trials {
		if !tr.OK() {
			row.AllOK = false
			row.Failures = append(row.Failures,
				fmt.Sprintf("trial %d: detected=%v contained=%v integrity=%v check=%v notes=%s",
					i, tr.Detected, tr.Contained, tr.IntegrityOK, tr.CorrectRunOK, tr.Notes))
		}
		// Message-fault scenarios kill nobody, so they have no recovery
		// latency to aggregate; only death scenarios feed the histograms.
		// (RollingReboot reports no single detect latency — see RunTrialOpts.)
		if tr.Detected && tr.DetectMs > 0 {
			hd.Observe(tr.DetectMs)
			hr.Observe(tr.RecoveryMs)
		}
		if tr.RestoreMs > 0 {
			hres.Observe(tr.RestoreMs)
		}
		if tr.FeWindowMs > 0 { // SurgeFault only
			hw.Observe(tr.FeWindowMs)
		}
		if tr.Scenario.RebootLoop() {
			loopSum += tr.LoopP99Ms
			loopN++
		}
	}
	if hd.N() > 0 {
		row.AvgDetect = hd.Mean()
		row.MaxDetect = hd.Max()
		row.P50Detect = hd.Quantile(0.50)
		row.P99Detect = hd.Quantile(0.99)
		row.AvgRecov = hr.Mean()
		row.P50Recov = hr.Quantile(0.50)
		row.P99Recov = hr.Quantile(0.99)
		ds, rs := hd.Snapshot(), hr.Snapshot()
		row.Detect, row.Recov = &ds, &rs
	}
	if hres.N() > 0 {
		row.AvgRestore = hres.Mean()
		row.P99Restore = hres.Quantile(0.99)
		res := hres.Snapshot()
		row.Restore = &res
	}
	if loopN > 0 {
		row.AvgLoopP99 = loopSum / float64(loopN)
	}
	if hw.N() > 0 {
		row.AvgWindow = hw.Mean()
		row.MaxWindow = hw.Max()
	}
	return row
}
