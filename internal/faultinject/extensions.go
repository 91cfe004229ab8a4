// extensions.go — the machinery of the extension rows: the message
// injector behind the message-fault scenarios, and the latency probe the
// availability-loop scenarios measure with.
package faultinject

import (
	"math/rand"
	"sort"

	"repro/internal/core"
	"repro/internal/machine"
	"repro/internal/proc"
	"repro/internal/rpc"
	"repro/internal/sim"
)

// msgInjector drives machine.FaultHook for one trial. Every decision is a
// deterministic function of the message stream and the trial's seeded
// arming time, so same-seed trials stay bit-identical.
type msgInjector struct {
	h      *core.Hive
	mode   machine.MsgFault
	storm  bool
	target int      // destination cell filter (-1 = any)
	armAt  sim.Time // faults begin here
	until  sim.Time // and end here (0 = when the budget runs out)
	budget int
	active bool

	seq     int      // messages seen in the window (storm pattern index)
	fired   int      // faults actually injected
	firstAt sim.Time // time of the first injection
}

// armMsgFaults installs a fault hook for one of the message scenarios.
func armMsgFaults(h *core.Hive, s Scenario, target int, rng *rand.Rand) *msgInjector {
	inj := &msgInjector{
		h:      h,
		target: target,
		active: true,
		budget: 3,
		armAt:  sim.Time(800+rng.Intn(2000)) * sim.Millisecond,
	}
	switch s {
	case MsgDrop:
		inj.mode = machine.FaultDrop
	case MsgDup:
		inj.mode = machine.FaultDup
	case MsgCorrupt:
		inj.mode = machine.FaultCorrupt
	case FaultStorm:
		inj.storm = true
		inj.target = -1
		inj.budget = 40
		// The 25 ms storm window opens at the first message at or after
		// the arming time (a fixed window can land in a pure-compute gap
		// with no traffic at all).
	}
	if s != FaultStorm && len(h.Cells) != 4 {
		// On the paper's 4-cell machine every cell sees RPC traffic for
		// the whole run, so filtering on the target cell always finds
		// messages to fault. At larger counts pmake gives each cell at
		// most one job and the target may go quiet before the arming
		// time — fault the whole fabric instead (message faults kill
		// nobody; containment is judged globally either way).
		inj.target = -1
	}
	h.M.FaultHook = inj.decide
	return inj
}

// disarm removes the hook (before the post-fault correctness check).
func (in *msgInjector) disarm() {
	in.active = false
	in.h.M.FaultHook = nil
}

// retrySafe reports whether losing msg is recoverable above the wire: only
// RPC traffic of idempotent services is retransmitted by the caller (and
// its retransmits deduplicated by the server), so only that traffic may be
// dropped or corrupted without failing the workload.
func (in *msgInjector) retrySafe(msg *machine.SIPSMsg) bool {
	meta, ok := rpc.ClassifySIPS(msg)
	if !ok {
		return false
	}
	return in.h.Cells[0].EP.IsIdempotent(meta.Proc)
}

// destCell maps the destination processor to its owning cell.
func (in *msgInjector) destCell(msg *machine.SIPSMsg) int {
	return in.h.CellOfNode[in.h.M.Procs[msg.To].Node.ID]
}

// hit records one injection and returns its decision.
func (in *msgInjector) hit(d machine.MsgFaultDecision) machine.MsgFaultDecision {
	if in.fired == 0 {
		in.firstAt = in.h.Eng.Now()
	}
	in.fired++
	in.budget--
	return d
}

// decide is the machine.FaultHook entry point.
func (in *msgInjector) decide(msg *machine.SIPSMsg) machine.MsgFaultDecision {
	if !in.active || in.budget <= 0 {
		return machine.MsgFaultDecision{}
	}
	now := in.h.Eng.Now()
	if now < in.armAt || (in.until > 0 && now > in.until) {
		return machine.MsgFaultDecision{}
	}
	if in.target >= 0 && in.destCell(msg) != in.target {
		return machine.MsgFaultDecision{}
	}
	if in.storm {
		if in.fired == 0 {
			in.until = now + 25*sim.Millisecond
		}
		return in.stormDecide(msg)
	}
	switch in.mode {
	case machine.FaultDrop, machine.FaultCorrupt:
		if !in.retrySafe(msg) {
			return machine.MsgFaultDecision{}
		}
	case machine.FaultDup:
		if _, ok := rpc.ClassifySIPS(msg); !ok {
			return machine.MsgFaultDecision{}
		}
	}
	return in.hit(machine.MsgFaultDecision{Fault: in.mode})
}

// stormDecide mixes fault kinds over the stream in a fixed pattern:
// duplicates and delays may hit any message (dedup and timeouts absorb
// them), drops and corruption only retry-safe traffic.
func (in *msgInjector) stormDecide(msg *machine.SIPSMsg) machine.MsgFaultDecision {
	in.seq++
	switch in.seq % 5 {
	case 0:
		return in.hit(machine.MsgFaultDecision{Fault: machine.FaultDup})
	case 1:
		return in.hit(machine.MsgFaultDecision{Fault: machine.FaultDelay, Delay: 200 * sim.Microsecond})
	case 2:
		if in.retrySafe(msg) {
			return in.hit(machine.MsgFaultDecision{Fault: machine.FaultDrop})
		}
		return in.hit(machine.MsgFaultDecision{Fault: machine.FaultDelay, Delay: 100 * sim.Microsecond})
	case 3:
		if in.retrySafe(msg) {
			return in.hit(machine.MsgFaultDecision{Fault: machine.FaultCorrupt})
		}
	}
	return machine.MsgFaultDecision{}
}

// latencyProbe measures user-visible operation latency through the
// availability loop: a probe process on cell 0 (a file server, never a
// victim) computes a fixed slice every few milliseconds and records each
// op's elapsed virtual time. Recovery rounds freeze user compute (§3.1), so
// the probe's tail — the trial's LoopP99Ms — directly exposes what the
// fault → reboot → rejoin loop cost the workload.
type latencyProbe struct {
	samples []float64 // per-op latency, ms
	stop    bool
}

// probeOp/probePeriod shape the probe stream: ~200µs of work every 2ms
// yields a few thousand samples over a trial, enough for a stable p99.
const (
	probeOp     = 200 * sim.Microsecond
	probePeriod = 2 * sim.Millisecond
)

// startLatencyProbe spawns the probe on cell 0. The sample slice is only
// ever touched by the probe task while the engine runs, and only read by
// the harness when it is stopped.
func startLatencyProbe(h *core.Hive) *latencyProbe {
	pr := &latencyProbe{}
	h.Cells[0].Procs.Spawn("probe", 903, func(p *proc.Process, t *sim.Task) {
		for !pr.stop {
			t0 := t.Now()
			p.Compute(t, probeOp)
			pr.samples = append(pr.samples, (t.Now() - t0).Millis())
			t.Sleep(probePeriod)
		}
	})
	return pr
}

// stopAndP99 ends the probe (it exits at its next iteration) and returns
// the p99 of the samples taken so far.
func (pr *latencyProbe) stopAndP99() float64 {
	pr.stop = true
	if len(pr.samples) == 0 {
		return 0
	}
	s := append([]float64(nil), pr.samples...)
	sort.Float64s(s)
	return s[(len(s)-1)*99/100]
}

// rpcCounterTotal sums one endpoint counter across every cell.
func rpcCounterTotal(h *core.Hive, name string) int64 {
	var n int64
	for _, c := range h.Cells {
		n += c.EP.Metrics.Counter(name).Value()
	}
	return n
}

// msgFaultDetected reports whether the messaging layer visibly observed
// and absorbed the injected wire fault — the detection criterion for the
// zero-death scenarios.
func msgFaultDetected(h *core.Hive, s Scenario) bool {
	switch s {
	case MsgDrop:
		// A dropped request or reply must have forced a retransmit.
		return rpcCounterTotal(h, "rpc.retries") > 0
	case MsgCorrupt:
		// The delivery-side checksum must have discarded a line.
		return h.M.Metrics.Counter("sips.checksum_drops").Value() > 0
	case MsgDup:
		// A duplicate request hits the server dedup table, a duplicate
		// reply the caller's duplicate- or stale-reply discard.
		return rpcCounterTotal(h, "rpc.dup_requests")+
			rpcCounterTotal(h, "rpc.dup_replies")+
			rpcCounterTotal(h, "rpc.stale_replies") > 0
	case FaultStorm:
		// Mixed faults: injection firing is the witness; per-kind
		// evidence is covered by the dedicated scenarios.
		return true
	}
	return false
}
