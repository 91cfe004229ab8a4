package vm

import (
	"encoding/binary"
	"math"
	"slices"
	"testing"

	"repro/internal/machine"
	"repro/internal/rpc"
	"repro/internal/sim"
)

// loanFixture is a 3-cell fixture in which cell 1 has borrowed a batch of
// cell 0's frames.
func loanFixture(t testing.TB) *fixture {
	f := newFixture(t, 3)
	var err error
	f.run(t, func(tk *sim.Task) { _, err = f.vms[1].BorrowFrom(tk, 0) })
	if err != nil {
		t.Fatalf("borrow: %v", err)
	}
	return f
}

// forgedFrames are frame numbers outside the machine, as a corrupt cell
// may name them.
func forgedFrames(m *machine.Machine) []machine.PageNum {
	return []machine.PageNum{-1 << 20, -1, machine.PageNum(m.NumPages()), math.MaxInt}
}

// decodeFrames reads up to 8 frames from raw, two bytes each: an index
// below the node's page count names that page of node 0, and the next
// indices the forged frames.
func decodeFrames(m *machine.Machine, raw []byte) []machine.PageNum {
	lo, hi := m.NodePages(0)
	forged := forgedFrames(m)
	var frames []machine.PageNum
	for i := 0; i+1 < len(raw) && len(frames) < 8; i += 2 {
		k := int(binary.LittleEndian.Uint16(raw[i:])) % (int(hi-lo) + len(forged))
		if k < int(hi-lo) {
			frames = append(frames, lo+machine.PageNum(k))
		} else {
			frames = append(frames, forged[k-int(hi-lo)])
		}
	}
	return frames
}

// frameState is what a request may change of one of a memory home's
// frames.
type frameState struct {
	loanedTo int
	fw       uint64
	free     bool
}

// frameStates returns the state of every frame of v's node.
func frameStates(v *VM) []frameState {
	lo, hi := v.M.NodePages(v.NodeIDs[0])
	out := make([]frameState, hi-lo)
	for i := range out {
		f := lo + machine.PageNum(i)
		out[i] = frameState{v.pfdat(f).LoanedTo, v.M.Firewall(f), slices.Contains(v.free, f)}
	}
	return out
}

// FuzzFrameRequests sends arbitrary frame returns and firewall changes to
// a memory home (§5.4: a borrower directs its loaned frames only through
// the home's validated services). Cell 1 first borrows a batch of cell 0's
// frames. Then cell 1 or 2 sends cell 0 one request naming up to 8 frames,
// each a page of cell 0's node or a frame number outside the machine,
// with any Client field and firewall bits, optionally while a task holds
// cell 0's memory lock, which sends a return that passes validation to a
// server task (one interrupt-level fallback). Nothing may panic. A frame of cell 0 changes only if the request was accepted and
// its sender is the frame's borrower: an accepted return puts each named
// frame back on the free list at cell 0's home mask, and an accepted
// firewall change sets exactly the requested bits. The loan count always
// equals a walk of the pfdats.
func FuzzFrameRequests(f *testing.F) {
	fx := loanFixture(f)
	lo, hi := fx.m.NodePages(0)
	loaned := slices.IndexFunc(frameStates(fx.vms[0]), func(s frameState) bool { return s.loanedTo == 1 })
	enc := func(k int) []byte { return binary.LittleEndian.AppendUint16(nil, uint16(k)) }
	for _, held := range []bool{false, true} {
		for k := range forgedFrames(fx.m) {
			f.Add(false, false, int8(1), enc(int(hi-lo)+k), uint64(0), held)
			f.Add(true, false, int8(1), enc(int(hi-lo)+k), ^uint64(0), held)
		}
		for _, sender := range []int8{1, 2} {
			f.Add(false, sender == 2, sender, enc(loaned), uint64(0), held)
			f.Add(true, sender == 2, sender, enc(loaned), uint64(0b001), held)
		}
	}

	f.Fuzz(func(t *testing.T, firewall, fromCell2 bool, client int8, raw []byte, bits uint64, held bool) {
		fx := loanFixture(t)
		v := fx.vms[0]
		frames := decodeFrames(fx.m, raw)
		sender := 1
		if fromCell2 {
			sender = 2
		}
		proc, args, fwFrame := ProcReturn, any(&returnArgs{Client: int(client), Frames: frames}), machine.NoPage
		if firewall {
			if len(frames) > 0 {
				fwFrame = frames[0]
			}
			proc, args = ProcFirewall, &firewallArgs{Frame: fwFrame, Bits: bits}
		}
		before := frameStates(v)
		if held {
			fx.e.Go("holder", func(tk *sim.Task) {
				v.Lock.Lock(tk)
				tk.Sleep(sim.Millisecond)
				v.Lock.Unlock(tk)
			})
		}
		var err error
		fx.run(t, func(tk *sim.Task) {
			_, _, err = fx.eps[sender].Call(tk, fx.m.Procs[sender], 0, proc, args, rpc.CallOpts{})
		})

		lo, _ := fx.m.NodePages(0)
		for i, got := range frameStates(v) {
			frame, want := lo+machine.PageNum(i), before[i]
			if err == nil && want.loanedTo == sender {
				switch {
				case firewall && frame == fwFrame:
					want.fw = bits
				case !firewall && slices.Contains(frames, frame):
					want = frameState{-1, v.homeMask(frame), true}
				}
			}
			if got != want {
				t.Fatalf("cell %d sent proc %d %+v (err %v): frame %d went %+v -> %+v, want %+v",
					sender, proc, args, err, frame, before[i], got, want)
			}
		}
		wantFallbacks := int64(0)
		if held && !firewall && err == nil {
			wantFallbacks = 1
		}
		if got := fx.eps[0].Metrics.Counter("rpc.intr_fallbacks").Value(); got != wantFallbacks {
			t.Fatalf("held=%v firewall=%v err=%v: %d interrupt-level fallbacks, want %d", held, firewall, err, got, wantFallbacks)
		}
		loans := 0
		v.WalkFrames(func(pf *Pfdat) {
			if pf.LoanedTo >= 0 {
				loans++
			}
		})
		if v.LoanedFrames() != loans {
			t.Fatalf("LoanedFrames() = %d, a walk of the pfdats finds %d", v.LoanedFrames(), loans)
		}
	})
}

// exportFixture is a 3-cell fixture whose cell 0 caches two pages: a file
// page exported writable to cell 1 and an anonymous page exported
// read-only to cell 2.
func exportFixture(t testing.TB) (*fixture, []LogicalPage) {
	f := newFixture(t, 3)
	pages := []LogicalPage{filePage(0, 1, 0), {Obj: ObjID{Kind: AnonObj, Home: 0, Num: 2}}}
	v := f.vms[0]
	f.run(t, func(tk *sim.Task) {
		for i, lp := range pages {
			frame, err := v.AllocFrame(tk)
			if err != nil {
				t.Errorf("alloc: %v", err)
				return
			}
			if _, err := v.Export(tk, v.InsertLocal(lp, frame, false), i+1, i == 0); err != nil {
				t.Errorf("export: %v", err)
			}
		}
	})
	return f, pages
}

// pageState is what a request may change of one of a data home's pfdats.
type pageState struct {
	pf Pfdat
	fw uint64
}

// pageStates returns the state of every pfdat v tracks, ascending by
// frame.
func pageStates(v *VM) []pageState {
	var out []pageState
	v.WalkFrames(func(pf *Pfdat) { out = append(out, pageState{*pf, v.M.Firewall(pf.Frame)}) })
	return out
}

// FuzzExportRequests sends arbitrary export and release lines to a data
// home (§5.2: a client gains and drops access to a page only through the
// home's validated services). Cell 0 caches a file page exported writable
// to cell 1 and an anonymous page exported read-only to cell 2. Then cell
// 1 or 2 sends cell 0 one vm.export or vm.release whose line words are
// arbitrary, optionally while a task holds cell 0's memory lock, so the
// request also reaches the server-task level. Nothing may panic. A
// rejected request changes no pfdat, firewall or export set of cell 0. An
// accepted one changes only the named page's sets, only in the sender's
// bit: an export adds the sender (and to the writable set if it asked),
// a release removes it, and a page the export missed is filled from one
// free frame. After every request a remote cell's processors are in a
// local page's firewall exactly when the page's writable set holds that
// cell or the frame is loaned to it.
func FuzzExportRequests(f *testing.F) {
	_, pages := exportFixture(f)
	for _, held := range []bool{false, true} {
		for _, release := range []bool{false, true} {
			for _, lp := range pages {
				for _, sender := range []int{1, 2} {
					for _, writable := range []bool{false, true} {
						l := exportArgs{LP: lp, Client: sender, Writable: writable && !release}.line()
						f.Add(release, sender == 2, l.W[0], l.W[1], l.W[2], held)
					}
				}
			}
			forged := exportArgs{LP: pages[0], Client: 1, Writable: true}.line()
			f.Add(release, true, forged.W[0], forged.W[1], forged.W[2], held)
			f.Add(release, false, forged.W[0], forged.W[1], forged.W[2]|1<<40, held)
			missed := exportArgs{LP: filePage(0, 9, 3), Client: 1, Writable: true}.line()
			f.Add(release, false, missed.W[0], missed.W[1], missed.W[2], held)
		}
	}

	f.Fuzz(func(t *testing.T, release, fromCell2 bool, w0, w1, w2 int64, held bool) {
		fx, _ := exportFixture(t)
		v := fx.vms[0]
		sender := 1
		if fromCell2 {
			sender = 2
		}
		proc, data := ProcExport, 256
		if release {
			proc, data = ProcRelease, 48
		}
		line := rpc.Line{W: [3]int64{w0, w1, w2}}
		before, free := pageStates(v), v.FreePages()
		if held {
			fx.e.Go("holder", func(tk *sim.Task) {
				v.Lock.Lock(tk)
				tk.Sleep(sim.Millisecond)
				v.Lock.Unlock(tk)
			})
		}
		var err error
		fx.run(t, func(tk *sim.Task) {
			_, _, err = fx.eps[sender].Call(tk, fx.m.Procs[sender], 0, proc, nil, rpc.CallOpts{DataBytes: data, Arg: line})
		})

		after := pageStates(v)
		if len(after) != len(before) {
			t.Fatalf("cell 0 tracks %d pfdats after the request, %d before", len(after), len(before))
		}
		named := machine.NoPage
		wantFree := free
		if err == nil {
			args, verr := v.validateExportArgs(&rpc.Request{From: sender, Arg: line})
			if verr != nil {
				t.Fatalf("cell %d sent proc %d %v: accepted, but the line does not validate: %v", sender, proc, line.W, verr)
			}
			if pf, ok := v.Lookup(args.LP); ok {
				named = pf.Frame
				in, wr := pf.ExportedTo(sender), pf.WritableBy(sender)
				if release && (in || wr) || !release && (!in || args.Writable && !wr) {
					t.Fatalf("cell %d sent proc %d %+v: accepted, but its page is exported %v, writable %v", sender, proc, args, in, wr)
				}
			}
			for ref := range v.extraExports {
				if ref.frame != named || ref.client != sender {
					t.Fatalf("cell %d sent proc %d %v: an export count of %+v", sender, proc, line.W, ref)
				}
			}
		} else if len(v.extraExports) != 0 {
			t.Fatalf("cell %d sent proc %d %v (err %v): export counts %v", sender, proc, line.W, err, v.extraExports)
		}
		for i, got := range after {
			want := before[i]
			if got.pf.Frame == named {
				if d := (got.pf.exports ^ want.pf.exports) | (got.pf.writable ^ want.pf.writable); d&^cellOf(sender) != 0 {
					t.Fatalf("cell %d sent proc %d %v: page %v's sets changed for cells %#x", sender, proc, line.W, got.pf.LP, uint64(d))
				}
				want.pf.exports, want.pf.writable, want.fw = got.pf.exports, got.pf.writable, got.fw
				if !want.pf.Valid { // the export missed: the page was filled from a free frame
					want.pf.LP, want.pf.Valid = got.pf.LP, true
					wantFree--
				}
			}
			if got != want {
				t.Fatalf("cell %d sent proc %d %v (err %v): pfdat went %+v -> %+v", sender, proc, line.W, err, want, got)
			}
			if !v.localFrame(got.pf.Frame) {
				continue
			}
			for c := 1; c < len(fx.vms); c++ {
				open := got.fw&v.clientMask(c) != 0
				if open != (got.pf.WritableBy(c) || got.pf.LoanedTo == c) {
					t.Fatalf("cell %d sent proc %d %v: frame %d firewall %#x, cell %d writable %v, loaned to %d",
						sender, proc, line.W, got.pf.Frame, got.fw, c, got.pf.WritableBy(c), got.pf.LoanedTo)
				}
			}
		}
		if v.FreePages() != wantFree {
			t.Fatalf("cell %d sent proc %d %v (err %v): %d free pages, want %d", sender, proc, line.W, err, v.FreePages(), wantFree)
		}
	})
}
