package machine

import (
	"repro/internal/sim"
	"repro/internal/trace"
)

// SIPS — the short interprocessor send facility (§6). Each send delivers one
// 128-byte cache line of data in about the latency of a remote cache miss,
// with hardware reliability and flow control. Separate request and reply
// receive queues per node make deadlock avoidance easy.

// SIPSLineBytes is the payload capacity of one SIPS message.
const SIPSLineBytes = 128

// wireLatency is the interprocessor delivery latency: the IPI time on
// FLASH's mesh, or the (longer) link latency on a CC-NOW configuration
// where nodes are workstations on a network (§8).
func (m *Machine) wireLatency() sim.Time {
	if m.Cfg.RemoteMissNs > m.Cfg.IPINs {
		return m.Cfg.RemoteMissNs
	}
	return m.Cfg.IPINs
}

// SIPSKind selects the hardware receive queue.
type SIPSKind int

const (
	// SIPSRequest messages go to the request queue.
	SIPSRequest SIPSKind = iota
	// SIPSReply messages go to the reply queue, so replies can always be
	// received even while the request queue is full.
	SIPSReply
)

// SIPSMsg is one short interprocessor send.
type SIPSMsg struct {
	From    int      // sending processor ID
	To      int      // destination processor ID
	Kind    SIPSKind // request or reply queue
	Size    int      // payload bytes; must be <= SIPSLineBytes
	Payload any      // marshalled argument line (data beyond a line is sent by reference)
	// Checksum covers the line; it is computed by the sending hardware at
	// launch and verified at delivery, so injected payload corruption is
	// *detected* and the line discarded — the messaging analogue of the
	// firewall's containment contract (a corrupt line never reaches
	// software).
	Checksum uint32
	// Faulted records, at launch, that the fault hook dropped, delayed,
	// duplicated or corrupted the line, so a copy of it may be lost or
	// still on the wire after the first one lands.
	Faulted bool
}

// sipsChecksum is the hardware line checksum. Payload contents are not
// simulated, so the checksum covers the header words; corruption is
// modelled as bit flips in the stored checksum (see FaultCorrupt).
func sipsChecksum(msg *SIPSMsg) uint32 {
	h := uint32(2166136261)
	for _, w := range [4]uint32{uint32(msg.From), uint32(msg.To), uint32(msg.Kind), uint32(msg.Size)} {
		h = (h ^ w) * 16777619
	}
	return h
}

// MsgFault enumerates the wire faults a FaultHook can inject.
type MsgFault int

const (
	// FaultNone delivers the message normally.
	FaultNone MsgFault = iota
	// FaultDrop loses the message on the wire.
	FaultDrop
	// FaultDelay adds MsgFaultDecision.Delay of extra wire latency.
	FaultDelay
	// FaultDup delivers the message twice (one wire latency apart).
	FaultDup
	// FaultCorrupt flips payload bits in flight; the delivery-side
	// checksum verification detects the damage and discards the line.
	FaultCorrupt
)

// MsgFaultDecision is a FaultHook's verdict on one message.
type MsgFaultDecision struct {
	Fault MsgFault
	Delay sim.Time // extra latency for FaultDelay
}

// SendSIPS transmits msg from the calling task's processor. Delivery costs
// one IPI latency; the receiver pays the payload access latency when the
// handler runs. If the destination node has failed or is cut off, the send
// fails with a bus error after the IPI latency (the fault model guarantees
// no indefinite stall). From interrupt or engine context t is nil: the
// sender's uncached launch write is not charged here, because the
// interrupt handler's cost already holds it (RPC replies sent from
// interrupt level).
func (m *Machine) SendSIPS(t *sim.Task, proc *Processor, msg *SIPSMsg) error {
	if proc.Halted() {
		return ErrHalted
	}
	if msg.Size > SIPSLineBytes {
		panic("machine: SIPS payload exceeds one cache line")
	}
	msg.From = proc.ID
	dstNode := m.Procs[msg.To].Node

	// The send itself occupies the sender for the uncached launch write.
	if t != nil {
		proc.Use(t, m.Cfg.UncachedNs)
	}

	if err := dstNode.accessible(proc.Node.ID); err != nil {
		m.Metrics.Counter("sips.send_failures").Inc()
		return err
	}
	// Delivery: IPI latency, then the node's receive handler runs in
	// interrupt context, paying the payload access latency.
	m.launchSIPS(proc.Node.ID, msg)
	return nil
}

// launchSIPS is SendSIPS's wire path: it stamps the hardware checksum,
// consults the fault hook, and schedules delivery after the wire latency.
// srcNode is the sending node (for trace attribution).
func (m *Machine) launchSIPS(srcNode int, msg *SIPSMsg) {
	e := m.Eng
	m.Metrics.Cached(&m.sipsSends, "sips.sends").Inc()
	m.tracer(srcNode).Emit(e.Now(), trace.SIPS, int64(msg.To), int64(msg.Kind), "")
	msg.Checksum = sipsChecksum(msg)

	delay := m.wireLatency()
	msg.Faulted = false
	if m.FaultHook != nil {
		d := m.FaultHook(msg)
		msg.Faulted = d.Fault != FaultNone
		switch d.Fault {
		case FaultDrop:
			m.Metrics.Counter("sips.fault_drops").Inc()
			m.tracer(srcNode).Emit(e.Now(), trace.MsgDrop, int64(msg.To), int64(msg.Kind), "")
			return
		case FaultDelay:
			m.Metrics.Counter("sips.fault_delays").Inc()
			m.tracer(srcNode).Emit(e.Now(), trace.MsgDelay, int64(msg.To), int64(d.Delay), "")
			delay += d.Delay
		case FaultDup:
			m.Metrics.Counter("sips.fault_dups").Inc()
			m.tracer(srcNode).Emit(e.Now(), trace.MsgDup, int64(msg.To), int64(msg.Kind), "")
			e.AfterArg(delay+m.wireLatency(), m.deliver, msg)
		case FaultCorrupt:
			m.Metrics.Counter("sips.fault_corruptions").Inc()
			msg.Checksum ^= 0xA5A5A5A5 // bits flipped in flight
		}
	}
	e.AfterArg(delay, m.deliver, msg)
}

// deliverSIPS is the receive side, called with the *SIPSMsg: the hardware
// drops lines addressed to failed or halted destinations, verifies the line
// checksum (discarding detectably-corrupt lines), and runs the node's
// receive handler in interrupt context.
func (m *Machine) deliverSIPS(arg any) {
	msg := arg.(*SIPSMsg)
	dstProc := m.Procs[msg.To]
	dstNode := dstProc.Node
	if dstNode.failed || dstProc.Halted() {
		return // message lost with the node; sender's timeout handles it
	}
	if msg.Checksum != sipsChecksum(msg) {
		m.Metrics.Counter("sips.checksum_drops").Inc()
		m.tracer(dstNode.ID).Emit(m.Eng.Now(), trace.MsgCorrupt, int64(msg.To), int64(msg.Kind), "")
		return // detected corruption: discarded, never reaches software
	}
	handler := dstNode.OnSIPS
	if handler == nil {
		m.Metrics.Counter("sips.dropped_no_handler").Inc()
		return
	}
	dstProc.Interrupt(m.Cfg.SIPSPayloadNs, handler, msg)
}

// SendIPI delivers a bare interprocessor interrupt with no payload —
// the pre-SIPS mechanism (§6 discusses why it is insufficient). Kept for
// the RPC-over-IPI ablation benchmark.
func (m *Machine) SendIPI(t *sim.Task, proc *Processor, to int, fn func()) error {
	if proc.Halted() {
		return ErrHalted
	}
	dstProc := m.Procs[to]
	proc.Use(t, m.Cfg.UncachedNs)
	if err := dstProc.Node.accessible(proc.Node.ID); err != nil {
		return err
	}
	m.Eng.After(m.wireLatency(), func() {
		if dstProc.Halted() {
			return
		}
		// Without SIPS the receiver must poll per-sender queues in
		// shared memory: one extra remote miss per sender scanned.
		dstProc.Interrupt(m.Cfg.MissNs*sim.Time(m.Cfg.Nodes), runFunc, fn)
	})
	return nil
}
