package machine

import (
	"testing"

	"repro/internal/sim"
)

// sipsProbe wires a receive handler on node 1 that records every delivery
// with its time, and returns the sender function.
type sipsProbe struct {
	e     *sim.Engine
	m     *Machine
	times []sim.Time
	msgs  []*SIPSMsg
}

func newSIPSProbe(t *testing.T) *sipsProbe {
	t.Helper()
	e, m := testMachine(t, 2)
	p := &sipsProbe{e: e, m: m}
	m.Nodes[1].OnSIPS = func(_ *Processor, msg any) {
		p.times = append(p.times, e.Now())
		p.msgs = append(p.msgs, msg.(*SIPSMsg))
	}
	return p
}

// send launches one message from node 0 to node 1 and drains the engine.
func (p *sipsProbe) send(t *testing.T) {
	t.Helper()
	p.e.Go("sender", func(tk *sim.Task) {
		if err := p.m.SendSIPS(tk, p.m.Procs[0], &SIPSMsg{
			To: 1, Kind: SIPSRequest, Size: 64, Payload: "x",
		}); err != nil {
			t.Errorf("send: %v", err)
		}
	})
	p.e.Run(0)
}

func TestFaultHookDropLosesMessage(t *testing.T) {
	p := newSIPSProbe(t)
	first := true
	p.m.FaultHook = func(msg *SIPSMsg) MsgFaultDecision {
		if first {
			first = false
			return MsgFaultDecision{Fault: FaultDrop}
		}
		return MsgFaultDecision{}
	}
	p.send(t)
	p.send(t)
	if len(p.times) != 1 {
		t.Fatalf("deliveries = %d, want 1 (first dropped)", len(p.times))
	}
	if n := p.m.Metrics.Counter("sips.fault_drops").Value(); n != 1 {
		t.Fatalf("sips.fault_drops = %d", n)
	}
}

func TestFaultHookDelayAddsExactLatency(t *testing.T) {
	p := newSIPSProbe(t)
	const extra = 5 * sim.Microsecond
	delay := false
	p.m.FaultHook = func(msg *SIPSMsg) MsgFaultDecision {
		if delay {
			return MsgFaultDecision{Fault: FaultDelay, Delay: extra}
		}
		return MsgFaultDecision{}
	}
	p.send(t)
	normalAt := p.times[0]
	base := p.e.Now()
	delay = true
	p.send(t)
	if len(p.times) != 2 {
		t.Fatalf("deliveries = %d", len(p.times))
	}
	// Same path, plus exactly the injected delay.
	if got, want := p.times[1]-base, normalAt+extra; got != want {
		t.Fatalf("delayed delivery after %v, want %v", got, want)
	}
	if n := p.m.Metrics.Counter("sips.fault_delays").Value(); n != 1 {
		t.Fatalf("sips.fault_delays = %d", n)
	}
}

func TestFaultHookDupDeliversTwice(t *testing.T) {
	p := newSIPSProbe(t)
	armed := true
	p.m.FaultHook = func(msg *SIPSMsg) MsgFaultDecision {
		if armed {
			armed = false
			return MsgFaultDecision{Fault: FaultDup}
		}
		return MsgFaultDecision{}
	}
	p.send(t)
	if len(p.times) != 2 {
		t.Fatalf("deliveries = %d, want 2 (original + duplicate)", len(p.times))
	}
	// The duplicate trails the original by one wire latency.
	if d := p.times[1] - p.times[0]; d != p.m.wireLatency() {
		t.Fatalf("duplicate trails by %v, want %v", d, p.m.wireLatency())
	}
	if p.msgs[0] != p.msgs[1] {
		t.Fatal("duplicate is not the same line")
	}
	if n := p.m.Metrics.Counter("sips.fault_dups").Value(); n != 1 {
		t.Fatalf("sips.fault_dups = %d", n)
	}
}

func TestFaultHookCorruptionDetectedByChecksum(t *testing.T) {
	// The corruption contract: a payload-corrupted line must never reach
	// software — the delivery-side checksum detects it and the line is
	// discarded, degrading the fault to a drop.
	p := newSIPSProbe(t)
	p.m.FaultHook = func(msg *SIPSMsg) MsgFaultDecision {
		return MsgFaultDecision{Fault: FaultCorrupt}
	}
	p.send(t)
	if len(p.times) != 0 {
		t.Fatalf("corrupt line reached software (%d deliveries)", len(p.times))
	}
	if n := p.m.Metrics.Counter("sips.fault_corruptions").Value(); n != 1 {
		t.Fatalf("sips.fault_corruptions = %d", n)
	}
	if n := p.m.Metrics.Counter("sips.checksum_drops").Value(); n != 1 {
		t.Fatalf("sips.checksum_drops = %d", n)
	}
	// A clean line still passes the verifier.
	p.m.FaultHook = nil
	p.send(t)
	if len(p.times) != 1 {
		t.Fatalf("clean line not delivered after corruption test")
	}
}

func TestChecksumStampedBeforeHook(t *testing.T) {
	// The hardware stamps the checksum at launch, so a hook observing the
	// message sees the line exactly as the verifier will.
	p := newSIPSProbe(t)
	var seen uint32
	p.m.FaultHook = func(msg *SIPSMsg) MsgFaultDecision {
		seen = msg.Checksum
		return MsgFaultDecision{}
	}
	p.send(t)
	if len(p.msgs) != 1 || seen == 0 || p.msgs[0].Checksum != seen {
		t.Fatalf("checksum not stamped at launch: hook saw %#x, delivered %#x", seen, p.msgs[0].Checksum)
	}
}
