package machine

import (
	"errors"
	"testing"
	"testing/quick"

	"repro/internal/sim"
)

func testMachine(t *testing.T, nodes int) (*sim.Engine, *Machine) {
	t.Helper()
	e := sim.NewEngine(42)
	cfg := DefaultConfig()
	cfg.Nodes = nodes
	cfg.MemPerNodeMB = 1 // keep page arrays small in tests
	return e, New(e, cfg)
}

// run executes fn as a task and drains the engine.
func run(e *sim.Engine, fn func(t *sim.Task)) {
	e.Go("test", fn)
	e.Run(0)
}

func TestPageOwnership(t *testing.T) {
	_, m := testMachine(t, 4)
	if m.PagesPerNode != 1<<20/4096 {
		t.Fatalf("PagesPerNode = %d", m.PagesPerNode)
	}
	for n := 0; n < 4; n++ {
		lo, hi := m.NodePages(n)
		if m.HomeNode(lo) != n || m.HomeNode(hi-1) != n {
			t.Fatalf("node %d range [%d,%d) misattributed", n, lo, hi)
		}
	}
}

func TestBootFirewallLocalOnly(t *testing.T) {
	_, m := testMachine(t, 4)
	lo, _ := m.NodePages(2)
	if m.Firewall(lo) != m.NodeProcMask(2) {
		t.Fatalf("boot firewall = %x", m.Firewall(lo))
	}
	if m.WritableByRemote(lo) {
		t.Fatal("boot page remotely writable")
	}
}

func TestLocalWriteAllowed(t *testing.T) {
	e, m := testMachine(t, 2)
	lo, _ := m.NodePages(0)
	run(e, func(tk *sim.Task) {
		if err := m.WritePage(tk, m.Procs[0], lo, 7); err != nil {
			t.Errorf("local write failed: %v", err)
		}
		tag, corrupt := m.PageTag(lo)
		if tag != 7 || corrupt {
			t.Errorf("tag=%d corrupt=%v", tag, corrupt)
		}
	})
}

func TestRemoteWriteDeniedByFirewall(t *testing.T) {
	e, m := testMachine(t, 2)
	lo, _ := m.NodePages(0)
	run(e, func(tk *sim.Task) {
		err := m.WritePage(tk, m.Procs[1], lo, 9)
		if !errors.Is(err, ErrBusError) {
			t.Errorf("remote write err = %v, want bus error", err)
		}
		if tag, _ := m.PageTag(lo); tag == 9 {
			t.Error("denied write mutated the page")
		}
	})
	if m.Metrics.Counter("firewall.denials").Value() != 1 {
		t.Error("denial not counted")
	}
}

func TestGrantThenRemoteWrite(t *testing.T) {
	e, m := testMachine(t, 2)
	lo, _ := m.NodePages(0)
	run(e, func(tk *sim.Task) {
		if err := m.GrantWrite(tk, m.Procs[0], lo, m.NodeProcMask(1)); err != nil {
			t.Fatalf("grant: %v", err)
		}
		if err := m.WritePage(tk, m.Procs[1], lo, 11); err != nil {
			t.Errorf("remote write after grant: %v", err)
		}
		if !m.WritableByRemote(lo) {
			t.Error("WritableByRemote false after grant")
		}
		if err := m.RevokeWrite(tk, m.Procs[0], lo, m.NodeProcMask(1)); err != nil {
			t.Fatalf("revoke: %v", err)
		}
		if err := m.WritePage(tk, m.Procs[1], lo, 12); !errors.Is(err, ErrBusError) {
			t.Errorf("write after revoke err = %v", err)
		}
	})
	if m.Metrics.Counter("firewall.revocations").Value() == 0 {
		t.Error("revocation not counted")
	}
}

func TestOnlyLocalProcessorChangesFirewall(t *testing.T) {
	e, m := testMachine(t, 2)
	lo, _ := m.NodePages(0)
	run(e, func(tk *sim.Task) {
		err := m.SetFirewall(tk, m.Procs[1], lo, ^uint64(0))
		if !errors.Is(err, ErrBusError) {
			t.Errorf("remote firewall change err = %v", err)
		}
	})
}

func TestFirewallDisabled(t *testing.T) {
	e := sim.NewEngine(1)
	cfg := DefaultConfig()
	cfg.Nodes = 2
	cfg.MemPerNodeMB = 1
	cfg.FirewallEnabled = false
	m := New(e, cfg)
	lo, _ := m.NodePages(0)
	run(e, func(tk *sim.Task) {
		if err := m.WritePage(tk, m.Procs[1], lo, 5); err != nil {
			t.Errorf("write with firewall disabled: %v", err)
		}
	})
}

func TestFirewallCheckLatency(t *testing.T) {
	// A remote write with the firewall enabled must cost more than with
	// it disabled — the §4.2 firewall-overhead experiment in miniature.
	measure := func(enabled bool) sim.Time {
		e := sim.NewEngine(1)
		cfg := DefaultConfig()
		cfg.Nodes = 2
		cfg.MemPerNodeMB = 1
		cfg.FirewallEnabled = enabled
		m := New(e, cfg)
		lo, _ := m.NodePages(0)
		var elapsed sim.Time
		run(e, func(tk *sim.Task) {
			if enabled {
				m.GrantWrite(tk, m.Procs[0], lo, m.NodeProcMask(1))
			}
			start := tk.Now()
			m.WritePage(tk, m.Procs[1], lo, 1)
			elapsed = tk.Now() - start
		})
		return elapsed
	}
	with, without := measure(true), measure(false)
	if with <= without {
		t.Fatalf("firewall check added no latency: with=%v without=%v", with, without)
	}
	overhead := float64(with-without) / float64(without)
	if overhead > 0.10 {
		t.Fatalf("firewall overhead %.1f%% implausibly high", overhead*100)
	}
}

func TestFailStopBusErrors(t *testing.T) {
	e, m := testMachine(t, 2)
	lo1, _ := m.NodePages(1)
	run(e, func(tk *sim.Task) {
		m.Nodes[1].FailStop()
		if _, _, err := m.ReadPage(tk, m.Procs[0], lo1); !errors.Is(err, ErrBusError) {
			t.Errorf("read of failed node err = %v", err)
		}
		if err := m.WritePage(tk, m.Procs[0], lo1, 1); !errors.Is(err, ErrBusError) {
			t.Errorf("write to failed node err = %v", err)
		}
		if _, err := m.ReadClockWord(tk, m.Procs[0], 1); !errors.Is(err, ErrBusError) {
			t.Errorf("clock read of failed node err = %v", err)
		}
	})
}

func TestFailStopHaltsProcessorAndKillsTasks(t *testing.T) {
	e, m := testMachine(t, 2)
	halted := false
	m.Procs[1].OnHalt = append(m.Procs[1].OnHalt, func() { halted = true })
	m.Nodes[1].FailStop()
	if !halted || !m.Procs[1].Halted() {
		t.Fatal("OnHalt not invoked")
	}
	// A task trying to compute on the halted CPU freezes (fail-stop).
	frozen := e.Go("victim", func(tk *sim.Task) {
		m.Procs[1].Use(tk, 100)
		t.Error("victim computed on halted CPU")
	})
	e.Run(0)
	if frozen.Done() {
		t.Fatal("victim finished")
	}
	frozen.Kill()
	e.Run(0)
}

func TestMemoryCutoff(t *testing.T) {
	e, m := testMachine(t, 2)
	lo1, _ := m.NodePages(1)
	run(e, func(tk *sim.Task) {
		m.Nodes[1].EngageCutoff()
		// Remote access refused...
		if _, _, err := m.ReadPage(tk, m.Procs[0], lo1); !errors.Is(err, ErrBusError) {
			t.Errorf("remote read after cutoff err = %v", err)
		}
		// ...but local access still works (the panicking cell can dump state).
		if _, _, err := m.ReadPage(tk, m.Procs[1], lo1); err != nil {
			t.Errorf("local read after cutoff err = %v", err)
		}
		m.Nodes[1].ReleaseCutoff()
		if _, _, err := m.ReadPage(tk, m.Procs[0], lo1); err != nil {
			t.Errorf("remote read after release err = %v", err)
		}
	})
}

func TestRepairResetsNode(t *testing.T) {
	e, m := testMachine(t, 2)
	lo, _ := m.NodePages(1)
	run(e, func(tk *sim.Task) {
		m.GrantWrite(tk, m.Procs[1], lo, ^uint64(0))
		m.Nodes[1].FailStop()
		m.MarkCorrupt(lo)
		m.Nodes[1].Repair()
		if m.Nodes[1].Failed() || m.Procs[1].Halted() {
			t.Error("node still failed after repair")
		}
		if _, corrupt := m.PageTag(lo); corrupt {
			t.Error("page still corrupt after repair scrub")
		}
		if m.Firewall(lo) != m.NodeProcMask(1) {
			t.Error("firewall not reset to boot state")
		}
	})
}

func TestWildWriteBlockedAndLanded(t *testing.T) {
	e, m := testMachine(t, 2)
	lo0, _ := m.NodePages(0)
	run(e, func(tk *sim.Task) {
		// Remote wild write blocked by firewall.
		if m.WildWrite(m.Procs[1], lo0) {
			t.Error("wild write landed through firewall")
		}
		// After a grant, the wild write lands and corrupts.
		m.GrantWrite(tk, m.Procs[0], lo0, m.NodeProcMask(1))
		if !m.WildWrite(m.Procs[1], lo0) {
			t.Error("wild write blocked despite grant")
		}
		if _, corrupt := m.PageTag(lo0); !corrupt {
			t.Error("page not marked corrupt")
		}
	})
}

func TestDMAWriteFirewallChecked(t *testing.T) {
	e, m := testMachine(t, 2)
	lo0, _ := m.NodePages(0)
	run(e, func(tk *sim.Task) {
		// DMA from node 1's device to node 0's protected page: denied.
		if err := m.DMAWrite(1, lo0, 3); !errors.Is(err, ErrBusError) {
			t.Errorf("remote DMA err = %v", err)
		}
		// Local DMA allowed.
		if err := m.DMAWrite(0, lo0, 3); err != nil {
			t.Errorf("local DMA err = %v", err)
		}
	})
}

func TestSIPSDelivery(t *testing.T) {
	e, m := testMachine(t, 2)
	var got *SIPSMsg
	var deliveredAt sim.Time
	m.Nodes[1].OnSIPS = func(msg *SIPSMsg) {
		got = msg
		deliveredAt = e.Now()
	}
	var sentAt sim.Time
	run(e, func(tk *sim.Task) {
		sentAt = tk.Now()
		err := m.SendSIPS(tk, m.Procs[0], &SIPSMsg{To: 1, Kind: SIPSRequest, Size: 64, Payload: "hello"})
		if err != nil {
			t.Errorf("send: %v", err)
		}
	})
	if got == nil {
		t.Fatal("message not delivered")
	}
	if got.From != 0 || got.Payload != "hello" {
		t.Fatalf("got %+v", got)
	}
	// Delivery latency = IPI + payload access ≈ 1 µs at default config.
	lat := deliveredAt - sentAt
	if lat < m.Cfg.IPINs || lat > m.Cfg.IPINs+m.Cfg.SIPSPayloadNs+m.Cfg.UncachedNs {
		t.Fatalf("delivery latency = %v", lat)
	}
}

func TestSIPSToFailedNode(t *testing.T) {
	e, m := testMachine(t, 2)
	m.Nodes[1].FailStop()
	run(e, func(tk *sim.Task) {
		err := m.SendSIPS(tk, m.Procs[0], &SIPSMsg{To: 1, Kind: SIPSRequest})
		if !errors.Is(err, ErrBusError) {
			t.Errorf("send to failed node err = %v", err)
		}
	})
}

func TestSIPSOversizePanics(t *testing.T) {
	e, m := testMachine(t, 2)
	defer func() {
		if recover() == nil {
			t.Fatal("no panic for oversize SIPS")
		}
	}()
	run(e, func(tk *sim.Task) {
		m.SendSIPS(tk, m.Procs[0], &SIPSMsg{To: 1, Size: 256})
	})
}

func TestInterruptStealsTime(t *testing.T) {
	e, m := testMachine(t, 1)
	p := m.Procs[0]
	var computeDone sim.Time
	e.Go("computer", func(tk *sim.Task) {
		p.Use(tk, 1000)
		computeDone = tk.Now()
	})
	handlerRan := false
	e.At(500, func() {
		p.Interrupt(200, func() { handlerRan = true })
	})
	e.Run(0)
	if !handlerRan {
		t.Fatal("handler never ran")
	}
	if computeDone != 1200 {
		t.Fatalf("compute finished at %v, want 1200 (1000 + 200 stolen)", computeDone)
	}
}

// TestStealTimeAfterKilledCompute kills a task mid-burst: its wake event must
// stay in curCompute unrecycled, so a later StealTime moves no other event
// that the engine's freelist has handed out since.
func TestStealTimeAfterKilledCompute(t *testing.T) {
	e, m := testMachine(t, 1)
	p := m.Procs[0]
	victim := e.Go("victim", func(tk *sim.Task) {
		p.Use(tk, 1000)
		t.Error("victim finished its burst")
	})
	e.At(500, func() { victim.Kill() })
	e.Run(0)
	stale := p.curCompute
	if stale == nil || stale.Pending() {
		t.Fatalf("curCompute = %v after the kill, want the fired burst event", stale)
	}
	var woke []sim.Time
	e.Go("sleeper", func(tk *sim.Task) {
		for i := 0; i < 20; i++ {
			tk.Sleep(100)
			woke = append(woke, tk.Now())
		}
	})
	e.At(e.Now()+250, func() { p.StealTime(10_000) })
	start := e.Now()
	e.Run(0)
	for i, at := range woke {
		if want := start + sim.Time(i+1)*100; at != want {
			t.Fatalf("sleeper woke at %v, want %v: StealTime moved its event", at, want)
		}
	}
	if p.curCompute != stale || stale.When() != 1000 {
		t.Fatalf("the killed burst's event was reused (curCompute %p, When %v)", p.curCompute, stale.When())
	}
}

func TestInterruptsSerializePerCPU(t *testing.T) {
	e, m := testMachine(t, 1)
	p := m.Procs[0]
	var ends []sim.Time
	e.At(0, func() {
		p.Interrupt(100, func() { ends = append(ends, e.Now()) })
		p.Interrupt(100, func() { ends = append(ends, e.Now()) })
	})
	e.Run(0)
	if len(ends) != 2 || ends[0] != 100 || ends[1] != 200 {
		t.Fatalf("ends = %v, want [100 200]", ends)
	}
}

func TestClockWord(t *testing.T) {
	e, m := testMachine(t, 2)
	run(e, func(tk *sim.Task) {
		m.TickClock(tk, m.Procs[0], 0)
		m.TickClock(tk, m.Procs[0], 0)
		v, err := m.ReadClockWord(tk, m.Procs[1], 0)
		if err != nil || v != 2 {
			t.Errorf("clock = %d err = %v", v, err)
		}
	})
}

func TestClockWordRemoteCostsMiss(t *testing.T) {
	e, m := testMachine(t, 2)
	run(e, func(tk *sim.Task) {
		start := tk.Now()
		m.ReadClockWord(tk, m.Procs[1], 0)
		if d := tk.Now() - start; d != m.Cfg.MissNs {
			t.Errorf("remote clock read cost %v, want %v", d, m.Cfg.MissNs)
		}
	})
}

func TestRemapTranslate(t *testing.T) {
	_, m := testMachine(t, 4)
	for n := 0; n < 4; n++ {
		p := m.RemapTranslate(m.Procs[n], 0)
		if m.HomeNode(p) != n {
			t.Fatalf("remap page for node %d landed on node %d", n, m.HomeNode(p))
		}
	}
	// Same architectural address, different physical page per node —
	// that is the property that gives each cell private trap vectors.
	if m.RemapTranslate(m.Procs[0], 1) == m.RemapTranslate(m.Procs[1], 1) {
		t.Fatal("remap region not node-private")
	}
	defer func() {
		if recover() == nil {
			t.Fatal("out-of-range remap did not panic")
		}
	}()
	m.RemapTranslate(m.Procs[0], m.Cfg.RemapPages)
}

func TestScrubPage(t *testing.T) {
	_, m := testMachine(t, 1)
	m.MarkCorrupt(0)
	m.ScrubPage(0, 99)
	tag, corrupt := m.PageTag(0)
	if tag != 99 || corrupt {
		t.Fatalf("after scrub tag=%d corrupt=%v", tag, corrupt)
	}
}

// Property: the firewall admits a write iff the writer's bit is set,
// regardless of the sequence of grants and revokes that produced the state.
func TestPropertyFirewallSoundness(t *testing.T) {
	f := func(ops []uint16) bool {
		e := sim.NewEngine(3)
		cfg := DefaultConfig()
		cfg.Nodes = 4
		cfg.MemPerNodeMB = 1
		m := New(e, cfg)
		lo, _ := m.NodePages(0)
		ok := true
		e.Go("t", func(tk *sim.Task) {
			for _, op := range ops {
				writer := int(op) % 4
				if op&0x100 != 0 {
					m.GrantWrite(tk, m.Procs[0], lo, m.NodeProcMask(writer))
				} else if op&0x200 != 0 {
					m.RevokeWrite(tk, m.Procs[0], lo, m.NodeProcMask(writer))
				}
				allowed := m.Firewall(lo)&m.NodeProcMask(writer) != 0
				err := m.WritePage(tk, m.Procs[writer], lo, uint64(op))
				if allowed != (err == nil) {
					ok = false
				}
			}
		})
		e.Run(0)
		return ok
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 40}); err != nil {
		t.Fatal(err)
	}
}

func TestFirewallModeSingleBitLosesContainment(t *testing.T) {
	// §4.2: a single bit per page grants global write access — a grant
	// to one sharer admits every processor, including faulty ones.
	e := sim.NewEngine(9)
	cfg := DefaultConfig()
	cfg.Nodes = 4
	cfg.MemPerNodeMB = 1
	cfg.FirewallMode = FirewallSingleBit
	m := New(e, cfg)
	lo, _ := m.NodePages(0)
	run(e, func(tk *sim.Task) {
		// Grant write to cell 1 only...
		m.GrantWrite(tk, m.Procs[0], lo, m.NodeProcMask(1))
		// ...but an unrelated processor on node 3 can now write too.
		if err := m.WritePage(tk, m.Procs[3], lo, 9); err != nil {
			t.Errorf("single-bit mode should admit everyone after a grant: %v", err)
		}
		// With the bit vector, the same write is denied.
	})
	e2 := sim.NewEngine(9)
	cfg.FirewallMode = FirewallBitVector
	m2 := New(e2, cfg)
	lo2, _ := m2.NodePages(0)
	run(e2, func(tk *sim.Task) {
		m2.GrantWrite(tk, m2.Procs[0], lo2, m2.NodeProcMask(1))
		if err := m2.WritePage(tk, m2.Procs[3], lo2, 9); !errors.Is(err, ErrBusError) {
			t.Errorf("bit vector failed to contain: %v", err)
		}
	})
}

func TestFirewallModeProcByteBlocksSecondSharer(t *testing.T) {
	// §4.2: naming one processor per page prevents a cell's scheduler
	// from moving the writer to a sibling CPU — the second processor of
	// the sharing cell is denied.
	e := sim.NewEngine(9)
	cfg := DefaultConfig()
	cfg.Nodes = 2
	cfg.ProcsPerNode = 2
	cfg.MemPerNodeMB = 1
	cfg.FirewallMode = FirewallProcByte
	m := New(e, cfg)
	lo, _ := m.NodePages(0)
	run(e, func(tk *sim.Task) {
		// Grant the whole of node 1's mask (both CPUs), as the group
		// policy wants; ProcByte can only honour one of them.
		m.GrantWrite(tk, m.Procs[0], lo, m.NodeProcMask(1))
		err2 := m.WritePage(tk, m.Procs[2], lo, 1)
		err3 := m.WritePage(tk, m.Procs[3], lo, 1)
		if (err2 == nil) == (err3 == nil) {
			t.Errorf("ProcByte admitted %v/%v — exactly one sibling should write", err2, err3)
		}
	})
}
