package forensic

import (
	"strings"
	"testing"

	"repro/internal/sim"
	"repro/internal/trace"
)

// buildTrace emits a hand-built stream through a real Set so merge order
// and spans behave exactly as in production.
func buildTrace(cells, capPerCell int, emit func(tr func(cell int) *trace.Tracer)) ([]trace.Event, []trace.DropCount) {
	s := trace.NewSet(cells, capPerCell)
	emit(s.Tracer)
	return s.Merged(), s.Dropped()
}

func TestGraphContainedFault(t *testing.T) {
	events, dropped := buildTrace(3, 64, func(tr func(int) *trace.Tracer) {
		// Cell 1 gets a hardware fault, calls out once before dying, is
		// alerted and voted on, and its pages are cleaned up.
		tr(1).Emit(10*sim.Millisecond, trace.Inject, 1, 0, "hw-fail")
		tr(1).EmitSpan(11*sim.Millisecond, trace.RPCSend, 7, 0, 120, "")
		tr(1).Emit(12*sim.Millisecond, trace.Panic, 0, 0, "fail-stop hardware fault injected")
		tr(0).Emit(13*sim.Millisecond, trace.Alert, 1, 0, "clock")
		tr(2).Emit(14*sim.Millisecond, trace.Vote, 1, 0, "dead")
		tr(0).Emit(15*sim.Millisecond, trace.Kill, 3, 0, "pages")
	})
	r := Analyze(events, dropped)
	g := r.Graph

	if got := g.FaultCells(); len(got) != 1 || got[0] != 1 {
		t.Fatalf("FaultCells = %v, want [1]", got)
	}
	if got := g.DeathCells(); len(got) != 1 || got[0] != 1 {
		t.Fatalf("DeathCells = %v, want [1]", got)
	}
	if len(g.Escapes) != 0 {
		t.Fatalf("unexpected escapes: %v", g.Escapes)
	}
	counts := g.ClassCounts()
	if counts[Validated] != 3 { // rpc out + alert + vote
		t.Errorf("validated = %d, want 3 (edges %+v)", counts[Validated], g.Edges)
	}
	if counts[Discarded] != 1 { // cleanup
		t.Errorf("discarded = %d, want 1", counts[Discarded])
	}

	v := r.Audit
	if !v.Detected || !v.Contained {
		t.Fatalf("audit = detected=%v contained=%v, want both true\n%v",
			v.Detected, v.Contained, v.Evidence)
	}
}

func TestGraphSyntheticEscape(t *testing.T) {
	events, dropped := buildTrace(3, 64, func(tr func(int) *trace.Tracer) {
		// Cell 1 is injected, touches cell 2 via RPC, then cell 2 — which
		// has no injected fault — dies: the escape the design must prevent.
		tr(1).Emit(10*sim.Millisecond, trace.Inject, 1, 0, "corrupt")
		tr(2).EmitSpan(11*sim.Millisecond, trace.RPCRecv, 9, 1, 120, "")
		tr(2).Emit(12*sim.Millisecond, trace.Panic, 0, 0, "kernel data corruption")
	})
	r := Analyze(events, dropped)
	g := r.Graph

	if len(g.Escapes) != 1 {
		t.Fatalf("escapes = %v, want exactly one", g.Escapes)
	}
	if !strings.Contains(g.Escapes[0], "cell 2 died") ||
		!strings.Contains(g.Escapes[0], "cell 1") {
		t.Errorf("escape message %q should name victim cell 2 and contact cell 1", g.Escapes[0])
	}
	var esc *Edge
	for i := range g.Edges {
		if g.Edges[i].Class == Escaped {
			esc = &g.Edges[i]
		}
	}
	if esc == nil {
		t.Fatal("no Escaped edge in graph")
	}
	if esc.From != 1 || esc.To != 2 {
		t.Errorf("escape edge %d->%d, want 1->2 (lastTouch attribution)", esc.From, esc.To)
	}

	v := r.Audit
	if v.Contained {
		t.Fatalf("audit says contained despite an escape\n%v", v.Evidence)
	}
	if !v.Truncated && g.Truncated {
		t.Error("truncation flag not propagated")
	}
}

func TestAuditWireFaults(t *testing.T) {
	events, dropped := buildTrace(2, 64, func(tr func(int) *trace.Tracer) {
		tr(0).Emit(1*sim.Millisecond, trace.MsgDrop, 1, 0, "")
		tr(0).Emit(2*sim.Millisecond, trace.RPCRetry, 1, 0, "")
	})
	v := Analyze(events, dropped).Audit
	if !v.Detected || !v.Contained {
		t.Fatalf("drop+retry: detected=%v contained=%v, want both true\n%v",
			v.Detected, v.Contained, v.Evidence)
	}

	// A drop with no retransmit evidence is undetected.
	events2, dropped2 := buildTrace(2, 64, func(tr func(int) *trace.Tracer) {
		tr(0).Emit(1*sim.Millisecond, trace.MsgDrop, 1, 0, "")
	})
	v2 := Analyze(events2, dropped2).Audit
	if v2.Detected {
		t.Fatalf("drop without retry should be undetected\n%v", v2.Evidence)
	}
}

func TestAuditHintAloneIsNotDetection(t *testing.T) {
	events, dropped := buildTrace(2, 64, func(tr func(int) *trace.Tracer) {
		tr(1).Emit(10*sim.Millisecond, trace.Inject, 1, 0, "hw-fail")
		tr(1).Emit(11*sim.Millisecond, trace.Panic, 0, 0, "dead")
		tr(0).Emit(12*sim.Millisecond, trace.Hint, 1, 0, "timeout")
	})
	v := Analyze(events, dropped).Audit
	if v.Detected {
		t.Fatalf("a lone hint must not count as detection\n%v", v.Evidence)
	}
}

func TestFirewallEdgesGatedOnRecovery(t *testing.T) {
	events, dropped := buildTrace(2, 64, func(tr func(int) *trace.Tracer) {
		tr(1).Emit(1*sim.Millisecond, trace.Inject, 1, 0, "hw-fail")
		// Routine permission narrowing outside recovery: no edge.
		tr(0).Emit(2*sim.Millisecond, trace.FirewallRevoke, 5, 0, "")
		tr(0).EmitSpan(3*sim.Millisecond, trace.PhaseBegin, 11, 0, 0, "recovery:barrier1")
		tr(0).Emit(4*sim.Millisecond, trace.FirewallRevoke, 5, 0, "")
		tr(0).EmitSpan(5*sim.Millisecond, trace.PhaseEnd, 11, 0, 0, "recovery:barrier1")
	})
	g := Analyze(events, dropped).Graph
	fw := 0
	for _, e := range g.Edges {
		if e.Via == "firewall" {
			fw += e.Count
		}
	}
	if fw != 1 {
		t.Fatalf("firewall edge count = %d, want 1 (only the in-recovery revoke)\n%+v", fw, g.Edges)
	}
}

func TestProfilePairsSpans(t *testing.T) {
	events, dropped := buildTrace(2, 64, func(tr func(int) *trace.Tracer) {
		// One closed fs-RPC span of 5ms on cell 0, one left open, one instant.
		tr(0).EmitSpan(10*sim.Millisecond, trace.RPCSend, 7, 1, 120, "")
		tr(0).EmitSpan(15*sim.Millisecond, trace.RPCReply, 7, 1, 120, "")
		tr(0).EmitSpan(20*sim.Millisecond, trace.RPCSend, 8, 1, 120, "")
		tr(1).Emit(21*sim.Millisecond, trace.Heartbeat, 0, 0, "")
	})
	p := Analyze(events, dropped).Profile
	if p.Unclosed != 1 {
		t.Fatalf("unclosed = %d, want 1", p.Unclosed)
	}
	if p.Total != 5*sim.Millisecond {
		t.Fatalf("total = %v, want 5ms", p.Total)
	}
	cp := p.Cells[0]
	if len(cp.Subs) != 1 || cp.Subs[0].Name != SubFS {
		t.Fatalf("cell 0 subsystems = %+v, want one fs row", cp.Subs)
	}
	if top := cp.Subs[0].Top[0]; top.Name != "rpc:call:120" || top.Time != 5*sim.Millisecond {
		t.Fatalf("top span = %+v, want rpc:call:120 at 5ms", top)
	}
	if p.Cells[1].Events != 1 {
		t.Fatalf("cell 1 instants = %d, want 1", p.Cells[1].Events)
	}
}

func TestProcSubsystemRanges(t *testing.T) {
	for _, tc := range []struct {
		proc int64
		want string
	}{
		{100, SubVM}, {121, SubFS}, {140, SubVM}, {160, SubSched}, {180, SubMembership}, {42, SubRPC},
	} {
		if got := subNames[procSubsystem(tc.proc)]; got != tc.want {
			t.Errorf("procSubsystem(%d) = %s, want %s", tc.proc, got, tc.want)
		}
	}
}

func TestTruncationSetsFlag(t *testing.T) {
	events, dropped := buildTrace(1, 8, func(tr func(int) *trace.Tracer) {
		tr(0).Emit(0, trace.Inject, 0, 0, "hw-fail")
		for i := 0; i < 100; i++ {
			tr(0).Emit(sim.Time(i), trace.SIPS, int64(i), 0, "")
		}
	})
	r := Analyze(events, dropped)
	if !r.Graph.Truncated {
		t.Fatal("data-ring overflow should set Truncated")
	}
	v := r.Audit
	found := false
	for _, ev := range v.Evidence {
		if strings.Contains(ev, "truncated") {
			found = true
		}
	}
	if !found {
		t.Fatalf("audit evidence should warn about truncation: %v", v.Evidence)
	}
}

func TestReportFormatDeterministic(t *testing.T) {
	mk := func() string {
		events, dropped := buildTrace(3, 64, func(tr func(int) *trace.Tracer) {
			tr(1).Emit(10*sim.Millisecond, trace.Inject, 1, 0, "hw-fail")
			tr(1).Emit(12*sim.Millisecond, trace.Panic, 0, 0, "dead")
			tr(0).Emit(13*sim.Millisecond, trace.Alert, 1, 0, "clock")
			tr(2).EmitSpan(14*sim.Millisecond, trace.RPCSend, 3, 0, 121, "")
			tr(2).EmitSpan(16*sim.Millisecond, trace.RPCReply, 3, 0, 121, "")
		})
		return Analyze(events, dropped).Format(3)
	}
	a, b := mk(), mk()
	if a != b {
		t.Fatalf("report not deterministic:\n%s\n---\n%s", a, b)
	}
	if !strings.Contains(a, "audit: detected=PASS contained=PASS") {
		t.Fatalf("unexpected report:\n%s", a)
	}
}
