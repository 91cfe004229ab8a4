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
			_, err = fx.eps[sender].Call(tk, fx.m.Procs[sender], 0, proc, args, rpc.CallOpts{})
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
