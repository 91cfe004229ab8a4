package forensic

import (
	"math/rand"
	"testing"

	"repro/internal/sim"
	"repro/internal/trace"
)

// msgDropStream records a synthetic stream shaped like the MsgDrop
// trial's: about 213,000 events on 4 cells, mostly RPC round trips
// between cells, page faults and SIPS sends, with a few hundred injected
// drops and retransmits on the control rings. The rings are wide enough
// to keep every event.
func msgDropStream() ([]trace.Event, []trace.DropCount) {
	const cells = 4
	s := trace.NewSet(cells, 1<<17)
	rng := rand.New(rand.NewSource(1))
	now := sim.Time(0)
	tick := func() sim.Time { now += sim.Time(1 + rng.Intn(2000)); return now }
	for calls := 0; calls < 24000; calls++ {
		from, to := rng.Intn(cells), rng.Intn(cells)
		proc := int64(100 + rng.Intn(100))
		client, server := s.Tracer(from), s.Tracer(to)
		span := client.NextSpan()
		client.EmitSpan(tick(), trace.RPCSend, span, int64(to), proc, "")
		client.Emit(tick(), trace.SIPS, int64(to), 0, "")
		if rng.Intn(60) == 0 {
			client.Emit(tick(), trace.MsgDrop, int64(to), 0, "")
			client.Emit(tick(), trace.RPCRetry, int64(to), 2, "")
		}
		server.EmitSpan(tick(), trace.RPCRecv, span, int64(from), proc, "")
		fault := server.NextSpan()
		server.EmitSpan(tick(), trace.FaultBegin, fault, int64(to), int64(rng.Intn(512)), "")
		server.EmitSpan(tick(), trace.FaultEnd, fault, 1, 0, "")
		server.EmitSpan(tick(), trace.RPCReply, span, int64(from), proc, "")
		server.Emit(tick(), trace.SIPS, int64(from), 1, "")
		client.EmitSpan(tick(), trace.RPCReply, span, int64(to), proc, "")
	}
	return s.Merged(), s.Dropped()
}

// BenchmarkAnalyze folds the MsgDrop-shaped stream into a forensic
// report, as perfbench's campaign does once per trial.
func BenchmarkAnalyze(b *testing.B) {
	events, dropped := msgDropStream()
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if Analyze(events, dropped).Graph.Events != len(events) {
			b.Fatal("the fold lost events")
		}
	}
}
