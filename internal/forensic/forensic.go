// Package forensic derives fault-containment verdicts and performance
// attribution from the structured trace alone — independently of the
// fault-injection harness that orchestrated the run. Hive's core claim
// (§3, §7) is that a fault's effects never escape the faulting cell;
// faultinject asserts this by inspecting live kernel state, and this
// package re-derives the same verdict from the recorded event stream, so
// the two can be cross-checked and any disagreement fails loudly
// (cmd/hivemort, make mort-check).
//
// Three consumers share one pass over the merged stream:
//
//   - Graph (graph.go): the causal fault-propagation graph. Every event
//     causally downstream of an injected fault becomes an edge between
//     cells, classified by what the containment boundary did with it —
//     validated (crossed a designed interface), blocked (refused: RPC
//     timeout, careful-read abort, firewall revoke), discarded (checksum
//     or dedup discard, preemptive page/process cleanup), absorbed
//     (retransmit recovered it), or escaped (a cell died without an
//     injected fault — the containment failure the paper's design rules
//     exist to prevent).
//   - Verdict (audit.go): the trace-based containment auditor.
//   - Profile (profile.go): the virtual-time profiler attributing span
//     time and event counts per cell × subsystem.
//
// Everything here is a pure function of the merged stream plus the
// per-cell ring-truncation counters, so reports are byte-identical
// across -j whenever the underlying trace is.
package forensic

import (
	"repro/internal/trace"
)

// Subsystem names used by the profiler and the edge labels. RPC spans
// attribute to the subsystem owning the procedure (the documented ProcID
// ranges below); the wire itself shows up as rpc instants.
const (
	SubRPC        = "rpc"
	SubVM         = "vm"
	SubFS         = "fs"
	SubSched      = "sched"
	SubMembership = "membership"
	SubWax        = "wax"
	SubOther      = "other"
)

// procSubsystem maps an RPC procedure id to the subsystem that owns it.
// The ranges are the module's procedure-numbering convention (vm 100-119,
// fs 120-139, cow 140-159 — attributed to vm, its client layer —
// proc/sched 160-179, membership 180-199); forensic sits below those
// packages in the layering DAG, so the ranges are mirrored here rather
// than imported.
func procSubsystem(proc int64) string {
	switch {
	case proc >= 100 && proc < 120:
		return SubVM
	case proc >= 120 && proc < 140:
		return SubFS
	case proc >= 140 && proc < 160:
		return SubVM // cow: kernel-data plane of the vm layer
	case proc >= 160 && proc < 180:
		return SubSched
	case proc >= 180 && proc < 200:
		return SubMembership
	}
	return SubRPC
}

// spanSubsystem attributes a begin-kind event's span.
func spanSubsystem(e trace.Event) string {
	switch e.Kind {
	case trace.RPCSend, trace.RPCRecv:
		return procSubsystem(e.B)
	case trace.FaultBegin:
		return SubVM
	case trace.PhaseBegin:
		return phaseSubsystem(e.S)
	}
	return SubOther
}

// phaseSubsystem attributes a named phase span: the recovery and join
// rounds are membership work; anything else keeps its own prefix or falls
// to other.
func phaseSubsystem(name string) string {
	if len(name) >= 9 && name[:9] == "recovery:" {
		return SubMembership
	}
	if len(name) >= 5 && name[:5] == "join:" {
		return SubMembership
	}
	return SubOther
}

// instantSubsystem attributes a point event.
func instantSubsystem(e trace.Event) string {
	switch e.Kind {
	case trace.Hint, trace.Alert, trace.Vote, trace.Heartbeat, trace.RoundRestart,
		trace.Panic, trace.Kill, trace.Discard, trace.Inject,
		trace.Reboot, trace.Rejoin:
		return SubMembership
	case trace.SIPS, trace.MsgDrop, trace.MsgDup, trace.MsgCorrupt, trace.MsgDelay,
		trace.RPCReply, trace.RPCTimeout, trace.RPCRetry, trace.RPCDedup:
		return SubRPC
	case trace.FirewallGrant, trace.FirewallRevoke, trace.FaultEnd, trace.CarefulAbort:
		// Careful-read aborts guard the kernel-data plane (address maps,
		// COW trees, remote clocks); they attribute with it.
		return SubVM
	case trace.WaxHint:
		return SubWax
	}
	return SubOther
}

// Subsystems lists every attribution bucket in report order.
func Subsystems() []string {
	return []string{SubRPC, SubVM, SubFS, SubSched, SubMembership, SubWax, SubOther}
}
