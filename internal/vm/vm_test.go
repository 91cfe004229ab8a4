package vm

import (
	"errors"
	"testing"

	"repro/internal/machine"
	"repro/internal/rpc"
	"repro/internal/sim"
)

// fakeResolver is a minimal stand-in for the file system: the data home
// materializes pages on demand (simulated 1 ms "disk" read); clients import
// from the data home.
type fakeResolver struct {
	v        *VM
	diskTime sim.Time
}

func (r *fakeResolver) ResolvePage(t *sim.Task, lp LogicalPage, write bool) (*Pfdat, error) {
	v := r.v
	if lp.Obj.Home == v.CellID {
		if pf, ok := v.Lookup(lp); ok {
			return pf, nil
		}
		if r.diskTime > 0 {
			t.Sleep(r.diskTime)
		}
		f, err := v.AllocFrame(t, AllocOpts{})
		if err != nil {
			return nil, err
		}
		return v.InsertLocal(lp, f, false), nil
	}
	v.anyProc().Use(t, FSClientCost)
	return v.ImportRemote(t, lp, write)
}

type fixture struct {
	e   *sim.Engine
	m   *machine.Machine
	vms []*VM
	eps []*rpc.Endpoint
}

func newFixture(t *testing.T, cells int) *fixture {
	t.Helper()
	e := sim.NewEngine(21)
	cfg := machine.DefaultConfig()
	cfg.Nodes = cells
	cfg.MemPerNodeMB = 2
	m := machine.New(e, cfg)
	f := &fixture{e: e, m: m}
	cellOfNode := make([]int, cells)
	for i := range cellOfNode {
		cellOfNode[i] = i
	}
	for c := 0; c < cells; c++ {
		ep := rpc.NewEndpoint(m, c, []*machine.Processor{m.Procs[c]}, 2)
		f.eps = append(f.eps, ep)
	}
	rpc.Connect(f.eps...)
	for c := 0; c < cells; c++ {
		v := New(m, f.eps[c], c, []int{c}, cellOfNode, 16)
		v.SetResolver(FileObj, &fakeResolver{v: v})
		f.vms = append(f.vms, v)
	}
	return f
}

func (f *fixture) run(t *testing.T, fn func(tk *sim.Task)) {
	t.Helper()
	f.e.Go("test", fn)
	f.e.Run(0)
}

func filePage(home int, file uint64, off int64) LogicalPage {
	return LogicalPage{Obj: ObjID{Kind: FileObj, Home: home, Num: file}, Off: off}
}

func TestLocalFaultHitLatency(t *testing.T) {
	// Table 5.2 / Table 7.3: a page fault that hits in the local page
	// cache costs 6.9 µs.
	f := newFixture(t, 2)
	lp := filePage(0, 1, 0)
	f.run(t, func(tk *sim.Task) {
		// Populate the cache.
		pf, err := f.vms[0].Fault(tk, lp, false)
		if err != nil {
			t.Fatalf("first fault: %v", err)
		}
		f.vms[0].Unref(tk, pf)
		start := tk.Now()
		pf, err = f.vms[0].Fault(tk, lp, false)
		if err != nil {
			t.Fatalf("second fault: %v", err)
		}
		lat := tk.Now() - start
		if us := lat.Micros(); us < 6.5 || us > 7.3 {
			t.Errorf("local fault hit = %.2f µs, want ≈6.9", us)
		}
		f.vms[0].Unref(tk, pf)
	})
}

func TestRemoteFaultLatencyMatchesTable52(t *testing.T) {
	// Table 5.2: a remote fault that hits in the data home page cache
	// costs 50.7 µs.
	f := newFixture(t, 2)
	lp := filePage(1, 7, 0)
	f.run(t, func(tk *sim.Task) {
		// Warm the data home's cache so the remote fault is a cache hit
		// served at interrupt level.
		f.e.Go("warm", func(tk2 *sim.Task) {
			pf, err := f.vms[1].Fault(tk2, lp, false)
			if err == nil {
				f.vms[1].Unref(tk2, pf)
			}
		})
		tk.Sleep(10 * sim.Millisecond)
		start := tk.Now()
		pf, err := f.vms[0].Fault(tk, lp, false)
		if err != nil {
			t.Fatalf("remote fault: %v", err)
		}
		lat := tk.Now() - start
		if us := lat.Micros(); us < 47 || us > 55 {
			t.Errorf("remote fault = %.2f µs, want ≈50.7", us)
		}
		// Second fault hits the extended pfdat locally at 6.9 µs (§5.2).
		f.vms[0].Unref(tk, pf) // NB: releases the import (refs hit 0)
		pf2, err := f.vms[0].Fault(tk, lp, false)
		if err != nil {
			t.Fatalf("refault: %v", err)
		}
		f.vms[0].Unref(tk, pf2)
	})
	if f.vms[0].Metrics.Counter("vm.imports").Value() < 1 {
		t.Error("no import recorded")
	}
	if f.vms[1].Metrics.Counter("vm.exports").Value() < 1 {
		t.Error("no export recorded")
	}
}

func TestImportHitAvoidsRPC(t *testing.T) {
	f := newFixture(t, 2)
	lp := filePage(1, 3, 0)
	f.run(t, func(tk *sim.Task) {
		pf, err := f.vms[0].Fault(tk, lp, false)
		if err != nil {
			t.Fatalf("fault: %v", err)
		}
		calls := f.eps[0].Metrics.Counter("rpc.calls").Value()
		// Another fault while the first ref is live: local hit.
		pf2, err := f.vms[0].Fault(tk, lp, false)
		if err != nil {
			t.Fatalf("fault2: %v", err)
		}
		if got := f.eps[0].Metrics.Counter("rpc.calls").Value(); got != calls {
			t.Errorf("second fault sent %d RPCs", got-calls)
		}
		if pf2 != pf {
			t.Error("second fault returned different pfdat")
		}
		f.vms[0].Unref(tk, pf)
		f.vms[0].Unref(tk, pf2)
	})
}

func TestWritableExportOpensFirewall(t *testing.T) {
	f := newFixture(t, 2)
	lp := filePage(1, 9, 0)
	f.run(t, func(tk *sim.Task) {
		pf, err := f.vms[0].Fault(tk, lp, true)
		if err != nil {
			t.Fatalf("write fault: %v", err)
		}
		// Cell 0's processor can now write the page owned by cell 1.
		if err := f.m.WritePage(tk, f.m.Procs[0], pf.Frame, 42); err != nil {
			t.Errorf("write after export: %v", err)
		}
		// The data home counts it as remotely writable (§4.2 metric).
		if f.vms[1].RemotelyWritablePages() != 1 {
			t.Errorf("remotely writable = %d", f.vms[1].RemotelyWritablePages())
		}
		// Releasing the import revokes write permission.
		f.vms[0].Unref(tk, pf)
		tk.Sleep(sim.Millisecond)
		if err := f.m.WritePage(tk, f.m.Procs[0], pf.Frame, 43); !errors.Is(err, machine.ErrBusError) {
			t.Errorf("write after release err = %v", err)
		}
		if f.vms[1].RemotelyWritablePages() != 0 {
			t.Errorf("remotely writable after release = %d", f.vms[1].RemotelyWritablePages())
		}
	})
}

func TestReadOnlyExportKeepsFirewallClosed(t *testing.T) {
	f := newFixture(t, 2)
	lp := filePage(1, 4, 0)
	f.run(t, func(tk *sim.Task) {
		pf, err := f.vms[0].Fault(tk, lp, false)
		if err != nil {
			t.Fatalf("fault: %v", err)
		}
		if err := f.m.WritePage(tk, f.m.Procs[0], pf.Frame, 1); !errors.Is(err, machine.ErrBusError) {
			t.Errorf("read-only import allowed write: %v", err)
		}
		f.vms[0].Unref(tk, pf)
	})
}

func TestWriteUpgrade(t *testing.T) {
	f := newFixture(t, 2)
	lp := filePage(1, 5, 0)
	f.run(t, func(tk *sim.Task) {
		pf, err := f.vms[0].Fault(tk, lp, false)
		if err != nil {
			t.Fatalf("read fault: %v", err)
		}
		pf2, err := f.vms[0].Fault(tk, lp, true)
		if err != nil {
			t.Fatalf("write fault: %v", err)
		}
		if !pf2.ImpWritable {
			t.Error("import not upgraded to writable")
		}
		if err := f.m.WritePage(tk, f.m.Procs[0], pf2.Frame, 7); err != nil {
			t.Errorf("write after upgrade: %v", err)
		}
		f.vms[0].Unref(tk, pf)
		f.vms[0].Unref(tk, pf2)
	})
}

func TestBorrowAndReturnFrames(t *testing.T) {
	f := newFixture(t, 2)
	f.run(t, func(tk *sim.Task) {
		// Drain cell 0's local pool.
		for {
			if _, ok := f.vms[0].popLocalFree(false); !ok {
				break
			}
		}
		frame, err := f.vms[0].AllocFrame(tk, AllocOpts{})
		if err != nil {
			t.Fatalf("alloc with empty pool: %v", err)
		}
		if f.m.HomeNode(frame) != 1 {
			t.Fatalf("frame %d not borrowed from cell 1", frame)
		}
		if f.vms[0].BorrowedFrames() == 0 || f.vms[1].LoanedFrames() == 0 {
			t.Error("loan/borrow state not recorded")
		}
		loaned := f.vms[1].LoanedFrames()
		// Free it: eager return policy sends it home (§5.4).
		f.vms[0].FreeFrame(tk, frame)
		tk.Sleep(sim.Millisecond)
		if got := f.vms[1].LoanedFrames(); got != loaned-1 {
			t.Errorf("loaned = %d, want %d", got, loaned-1)
		}
	})
}

func TestLoanPreservesDeadlockReserve(t *testing.T) {
	f := newFixture(t, 2)
	f.run(t, func(tk *sim.Task) {
		// Cell 0 borrows greedily; cell 1 must keep its reserve.
		f.vms[0].BorrowBatch = 1024
		for {
			if _, ok := f.vms[0].popLocalFree(false); !ok {
				break
			}
		}
		if _, err := f.vms[0].AllocFrame(tk, AllocOpts{}); err != nil {
			t.Fatalf("borrow: %v", err)
		}
		if free := f.vms[1].FreePages(); free < 16 {
			t.Errorf("memory home left with %d free pages", free)
		}
	})
}

func TestWaxAllocTargetPreferred(t *testing.T) {
	f := newFixture(t, 3)
	f.run(t, func(tk *sim.Task) {
		for {
			if _, ok := f.vms[0].popLocalFree(false); !ok {
				break
			}
		}
		f.vms[0].AllocTargets = []int{2}
		frame, err := f.vms[0].AllocFrame(tk, AllocOpts{})
		if err != nil {
			t.Fatalf("alloc: %v", err)
		}
		if f.m.HomeNode(frame) != 2 {
			t.Errorf("frame from node %d, Wax said cell 2", f.m.HomeNode(frame))
		}
	})
}

func TestPreferredAllocation(t *testing.T) {
	// §5.5 CC-NUMA optimization: the data home places a page in the
	// memory of the client cell that faulted to it.
	f := newFixture(t, 2)
	f.run(t, func(tk *sim.Task) {
		frame, err := f.vms[0].AllocFrame(tk, AllocOpts{Preferred: 1, HasPreferred: true})
		if err != nil {
			t.Fatalf("alloc: %v", err)
		}
		if f.m.HomeNode(frame) != 1 {
			t.Errorf("preferred allocation landed on node %d", f.m.HomeNode(frame))
		}
	})
}

func TestReimportOfLoanedFrameReusesPfdat(t *testing.T) {
	// §5.5: a frame simultaneously loaned out and imported back into the
	// memory home reuses the preexisting pfdat.
	f := newFixture(t, 2)
	f.run(t, func(tk *sim.Task) {
		// Cell 1 borrows a frame from cell 0 and stores file data in it.
		frame, err := f.vms[1].borrowFrom(tk, 0)
		if err != nil {
			t.Fatalf("borrow: %v", err)
		}
		lp := filePage(1, 77, 0)
		f.vms[1].InsertLocal(lp, frame, false)
		// Cell 0 (the memory home) faults on that page: the pfdat it
		// already has for the frame is reused, not an extended one.
		before := f.vms[0].frames[frame]
		if before == nil || before.LoanedTo != 1 {
			t.Fatal("loan state missing on memory home")
		}
		pf, err := f.vms[0].Fault(tk, lp, false)
		if err != nil {
			t.Fatalf("reimport fault: %v", err)
		}
		if pf != before {
			t.Error("reimport allocated a new pfdat instead of reusing")
		}
		if pf.LoanedTo != 1 || pf.ImportedFrom != 1 {
			t.Errorf("state: loanedTo=%d importedFrom=%d", pf.LoanedTo, pf.ImportedFrom)
		}
	})
}

func TestEvict(t *testing.T) {
	f := newFixture(t, 1)
	lp := filePage(0, 2, 0)
	f.run(t, func(tk *sim.Task) {
		pf, _ := f.vms[0].Fault(tk, lp, false)
		if f.vms[0].Evict(tk, lp) {
			t.Error("evicted a referenced page")
		}
		f.vms[0].Unref(tk, pf)
		free := f.vms[0].FreePages()
		if !f.vms[0].Evict(tk, lp) {
			t.Error("evict failed")
		}
		if f.vms[0].FreePages() != free+1 {
			t.Error("frame not freed")
		}
		if _, ok := f.vms[0].Lookup(lp); ok {
			t.Error("page still in hash")
		}
	})
}

func TestRecoveryDiscardsPagesWritableByFailedCell(t *testing.T) {
	f := newFixture(t, 3)
	lpW := filePage(1, 10, 0) // will be writable by cell 0
	lpR := filePage(1, 11, 0) // read-only export to cell 0
	f.run(t, func(tk *sim.Task) {
		pfW, err := f.vms[0].Fault(tk, lpW, true)
		if err != nil {
			t.Fatalf("fault: %v", err)
		}
		_, err = f.vms[0].Fault(tk, lpR, false)
		if err != nil {
			t.Fatalf("fault: %v", err)
		}
		// Mark the writable page dirty at the data home.
		dhW, _ := f.vms[1].Lookup(lpW)
		dhW.Dirty = true
		var genBumps []LogicalPage
		f.vms[1].OnDiscardDirty = func(lp LogicalPage) { genBumps = append(genBumps, lp) }

		// Cell 0 fails; cells 1 and 2 run recovery.
		f.m.Nodes[0].FailStop()
		failed := map[int]bool{0: true}
		for _, c := range []int{1, 2} {
			f.vms[c].RecoveryPhase1(tk)
		}
		disc := 0
		for _, c := range []int{1, 2} {
			disc += f.vms[c].RecoveryPhase2(tk, failed)
		}
		for _, c := range []int{1, 2} {
			f.vms[c].RecoveryFinish()
		}

		if disc != 1 {
			t.Errorf("discarded = %d, want 1 (only the writable page)", disc)
		}
		if _, ok := f.vms[1].Lookup(lpW); ok {
			t.Error("writable page survived discard")
		}
		if _, ok := f.vms[1].Lookup(lpR); !ok {
			t.Error("read-only page was discarded")
		}
		if len(genBumps) != 1 || genBumps[0] != lpW {
			t.Errorf("generation bumps = %v", genBumps)
		}
		if f.vms[1].RemotelyWritablePages() != 0 {
			t.Error("remote write permission survived recovery")
		}
		_ = pfW
	})
}

func TestRecoveryReclaimsLoansAndDropsBorrows(t *testing.T) {
	f := newFixture(t, 3)
	f.run(t, func(tk *sim.Task) {
		// Cell 0 borrows from cell 1; cell 1 borrows from cell 0.
		fr01, err := f.vms[0].borrowFrom(tk, 1)
		if err != nil {
			t.Fatalf("borrow: %v", err)
		}
		if _, err := f.vms[1].borrowFrom(tk, 0); err != nil {
			t.Fatalf("borrow: %v", err)
		}
		freeBefore := f.vms[1].FreePages()

		// Cell 0 fails.
		f.m.Nodes[0].FailStop()
		failed := map[int]bool{0: true}
		f.vms[1].RecoveryPhase1(tk)
		f.vms[2].RecoveryPhase1(tk)
		f.vms[1].RecoveryPhase2(tk, failed)
		f.vms[2].RecoveryPhase2(tk, failed)
		f.vms[1].RecoveryFinish()
		f.vms[2].RecoveryFinish()

		// Cell 1 reclaimed the frames it loaned to cell 0...
		if f.vms[1].LoanedFrames() != 0 {
			t.Error("loans to failed cell not reclaimed")
		}
		if f.vms[1].FreePages() <= freeBefore {
			t.Error("reclaimed frames not back in the pool")
		}
		// ...and dropped the frames it borrowed from cell 0.
		if f.vms[1].BorrowedFrames() != 0 {
			t.Error("borrows from failed cell not dropped")
		}
		for _, fr := range f.vms[1].free {
			if f.m.HomeNode(fr) == 0 {
				t.Error("dead frame still in free pool")
			}
		}
		_ = fr01
	})
}

func TestFaultsHeldDuringRecovery(t *testing.T) {
	f := newFixture(t, 2)
	lp := filePage(0, 30, 0)
	var faultDone sim.Time
	f.run(t, func(tk *sim.Task) {
		f.vms[0].RecoveryPhase1(tk)
		f.e.Go("faulter", func(tk2 *sim.Task) {
			pf, err := f.vms[0].Fault(tk2, lp, false)
			if err != nil {
				t.Errorf("fault: %v", err)
				return
			}
			faultDone = tk2.Now()
			f.vms[0].Unref(tk2, pf)
		})
		tk.Sleep(5 * sim.Millisecond)
		f.vms[0].RecoveryPhase2(tk, map[int]bool{1: true})
		f.vms[0].RecoveryFinish()
	})
	if faultDone < 5*sim.Millisecond {
		t.Fatalf("fault completed at %v, during recovery", faultDone)
	}
}

func TestExportRefusedDuringRecovery(t *testing.T) {
	f := newFixture(t, 2)
	lp := filePage(1, 31, 0)
	f.run(t, func(tk *sim.Task) {
		f.vms[1].RecoveryPhase1(tk)
		// End recovery 3 ms later so the client's retry loop succeeds.
		f.e.At(f.e.Now()+3*sim.Millisecond, func() {
			f.e.Go("finish", func(tk2 *sim.Task) {
				f.vms[1].RecoveryPhase2(tk2, map[int]bool{})
				f.vms[1].RecoveryFinish()
			})
		})
		start := tk.Now()
		pf, err := f.vms[0].Fault(tk, lp, false)
		if err != nil {
			t.Fatalf("fault: %v", err)
		}
		if tk.Now()-start < 3*sim.Millisecond {
			t.Error("fault served while data home was recovering")
		}
		f.vms[0].Unref(tk, pf)
	})
}

func TestBorrowSanityCheckRejectsForgedFrames(t *testing.T) {
	// A corrupt memory home returning frames it does not own must be
	// caught by the borrower's sanity check.
	f := newFixture(t, 2)
	f.eps[1].Register(ProcBorrow, "vm.borrow.evil",
		func(req *rpc.Request) (any, sim.Time, bool, error) {
			lo, _ := f.m.NodePages(0) // cell 0's own frame, forged
			return &borrowReply{Frames: []machine.PageNum{lo}}, 0, true, nil
		}, nil)
	f.run(t, func(tk *sim.Task) {
		_, err := f.vms[0].borrowFrom(tk, 1)
		if !errors.Is(err, ErrBadPage) {
			t.Errorf("forged borrow err = %v", err)
		}
	})
}

func TestFirewallServiceRejectsNonBorrower(t *testing.T) {
	// Only the borrower of a loaned frame may direct its firewall; a
	// corrupt third cell must be refused.
	f := newFixture(t, 3)
	f.run(t, func(tk *sim.Task) {
		frame, err := f.vms[1].borrowFrom(tk, 0)
		if err != nil {
			t.Fatalf("borrow: %v", err)
		}
		// Cell 2 (not the borrower) tries to open the firewall.
		_, err = f.eps[2].Call(tk, f.m.Procs[2], 0, ProcFirewall,
			&firewallArgs{Frame: frame, Bits: ^uint64(0)}, rpc.CallOpts{})
		if err == nil {
			t.Error("non-borrower firewall change accepted")
		}
	})
}

func TestClockHandEvictsUnderPressure(t *testing.T) {
	f := newFixture(t, 1)
	v := f.vms[0]
	written := 0
	ch := v.StartClockHand(func(tk *sim.Task, lp LogicalPage) bool {
		written++
		tk.Sleep(sim.Millisecond) // "disk write"
		return true
	})
	ch.LowWater = 32
	ch.HighWater = 64
	filled := false
	f.e.Go("filler", func(tk *sim.Task) {
		// Populate the cache (half dirty) until the pool is nearly dry.
		off := int64(0)
		for v.FreePages() > 8 {
			lp := filePage(0, 50, off)
			frame, err := v.AllocFrame(tk, AllocOpts{Acceptable: []int{0}})
			if err != nil {
				break
			}
			pf := v.InsertLocal(lp, frame, off%2 == 0)
			_ = pf
			off++
		}
		filled = true
	})
	deadline := f.e.Now() + 2*sim.Second
	for f.e.Now() < deadline && (!filled || v.FreePages() < ch.HighWater) {
		f.e.Run(f.e.Now() + 10*sim.Millisecond)
	}
	if v.FreePages() < ch.HighWater {
		t.Fatalf("free = %d, want >= %d after sweeps", v.FreePages(), ch.HighWater)
	}
	if written == 0 {
		t.Fatal("no dirty pages written back before eviction")
	}
	if v.Metrics.Counter("vm.clockhand_evictions").Value() == 0 {
		t.Fatal("no evictions counted")
	}
	ch.Stop()
}

func TestClockHandSkipsPinnedAndExported(t *testing.T) {
	f := newFixture(t, 2)
	v := f.vms[0]
	ch := v.StartClockHand(nil)
	done := false
	f.e.Go("setup", func(tk *sim.Task) {
		defer func() { done = true }()
		// A referenced page and an exported page must survive a sweep.
		lp1 := filePage(0, 60, 0)
		pf1, err := v.Fault(tk, lp1, false) // holds a ref
		if err != nil {
			t.Errorf("fault: %v", err)
			return
		}
		lp2 := filePage(0, 61, 0)
		frame, _ := v.AllocFrame(tk, AllocOpts{Acceptable: []int{0}})
		pf2 := v.InsertLocal(lp2, frame, false)
		v.Export(tk, pf2, 1, false)
		v.Lock.Lock(tk)
		ch.Sweep(tk, 1<<30) // try to evict everything
		v.Lock.Unlock(tk)
		if _, ok := v.Lookup(lp1); !ok {
			t.Error("referenced page evicted")
		}
		if _, ok := v.Lookup(lp2); !ok {
			t.Error("exported page evicted")
		}
		_ = pf1
	})
	f.e.Run(2 * sim.Second)
	if !done {
		t.Fatal("setup never finished")
	}
	ch.Stop()
}

func TestMigratePageMovesStorage(t *testing.T) {
	f := newFixture(t, 2)
	f.run(t, func(tk *sim.Task) {
		lp := filePage(0, 80, 0)
		pf, err := f.vms[0].Fault(tk, lp, false)
		if err != nil {
			t.Fatalf("fault: %v", err)
		}
		f.m.WritePage(tk, f.m.Procs[0], pf.Frame, 777)
		f.vms[0].Unref(tk, pf)

		if err := f.vms[0].MigratePage(tk, lp, 1); err != nil {
			t.Fatalf("migrate: %v", err)
		}
		npf, ok := f.vms[0].Lookup(lp)
		if !ok {
			t.Fatal("page lost after migration")
		}
		if f.m.HomeNode(npf.Frame) != 1 {
			t.Fatalf("frame on node %d, want 1", f.m.HomeNode(npf.Frame))
		}
		// §5.5: the frame is borrowed (physical level) while the page
		// stays ours (logical level).
		if npf.BorrowedFrom != 1 {
			t.Fatalf("BorrowedFrom = %d", npf.BorrowedFrom)
		}
		tag, corrupt, _ := f.m.ReadPage(tk, f.m.Procs[0], npf.Frame)
		if tag != 777 || corrupt {
			t.Fatalf("content lost: tag=%d corrupt=%v", tag, corrupt)
		}
		// A later fault finds the migrated page normally.
		pf2, err := f.vms[0].Fault(tk, lp, false)
		if err != nil || pf2 != npf {
			t.Fatalf("refault: %v", err)
		}
		f.vms[0].Unref(tk, pf2)
	})
}

func TestMigratePageRefusesSharedOrPinned(t *testing.T) {
	f := newFixture(t, 2)
	f.run(t, func(tk *sim.Task) {
		lp := filePage(0, 81, 0)
		pf, _ := f.vms[0].Fault(tk, lp, false) // pinned by the ref
		if err := f.vms[0].MigratePage(tk, lp, 1); err == nil {
			t.Error("migrated a referenced page")
		}
		f.vms[0].Unref(tk, pf)
		// Exported page also refused.
		pf, _ = f.vms[0].Lookup(lp)
		f.vms[0].Export(tk, pf, 1, false)
		if err := f.vms[0].MigratePage(tk, lp, 1); err == nil {
			t.Error("migrated an exported page")
		}
	})
}
