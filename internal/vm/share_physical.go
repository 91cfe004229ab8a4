package vm

import (
	"fmt"
	"sort"

	"repro/internal/machine"
	"repro/internal/rpc"
	"repro/internal/sim"
)

// Physical-level sharing (§5.4): a memory home loans free page frames to
// another cell, which becomes their data home and manages them as its own.
// Frame loaning balances memory pressure across the machine and lets data
// pages be placed near the processes using them on a CC-NUMA machine.

// borrowArgs asks a memory home for frames.
type borrowArgs struct {
	Client int
	Count  int
}

// borrowReply carries the loaned frame numbers.
type borrowReply struct {
	Frames []machine.PageNum
}

// returnArgs gives frames back.
type returnArgs struct {
	Client int
	Frames []machine.PageNum
}

// AllocOpts constrains frame allocation (§5.4: the page allocator takes a
// set of acceptable cells and one preferred cell).
type AllocOpts struct {
	// Preferred is the cell to allocate from if possible; meaningful
	// only when HasPreferred is set.
	Preferred    int
	HasPreferred bool
	// Acceptable restricts which cells may provide the frame (nil = any).
	Acceptable []int
}

// AllocFrame allocates one page frame, borrowing from a remote memory home
// when the local pool is empty (demand-driven frame loaning, §5.4, with
// targets ordered by Wax's allocation hints).
func (v *VM) AllocFrame(t *sim.Task, opts AllocOpts) (machine.PageNum, error) {
	acceptable := func(cell int) bool {
		if opts.Acceptable == nil {
			return true
		}
		for _, c := range opts.Acceptable {
			if c == cell {
				return true
			}
		}
		return false
	}

	// Preferred remote cell first, if asked and allowed.
	if opts.HasPreferred && opts.Preferred != v.CellID && acceptable(opts.Preferred) {
		if f, err := v.borrowFrom(t, opts.Preferred); err == nil {
			return f, nil
		}
	}

	if acceptable(v.CellID) {
		if f, ok := v.popLocalFree(false); ok {
			return f, nil
		}
	}

	// Local pool dry: borrow along Wax's target list, then any peer.
	tried := map[int]bool{v.CellID: true}
	for _, c := range v.AllocTargets {
		if !tried[c] && acceptable(c) {
			tried[c] = true
			if f, err := v.borrowFrom(t, c); err == nil {
				return f, nil
			}
		}
	}
	peers := make([]int, 0, len(v.EP.Peers))
	for c := range v.EP.Peers {
		peers = append(peers, c)
	}
	sort.Ints(peers)
	for _, c := range peers {
		if !tried[c] && acceptable(c) {
			tried[c] = true
			if f, err := v.borrowFrom(t, c); err == nil {
				return f, nil
			}
		}
	}
	return machine.NoPage, ErrNoMemory
}

// popLocalFree takes a frame from the free pool. With ownedOnly set it
// skips borrowed frames: a cell loans only the memory it owns (§5.4).
func (v *VM) popLocalFree(ownedOnly bool) (machine.PageNum, bool) {
	for i := len(v.free) - 1; i >= 0; i-- {
		f := v.free[i]
		if ownedOnly && !v.localFrame(f) {
			continue
		}
		v.free = append(v.free[:i], v.free[i+1:]...)
		return f, true
	}
	return machine.NoPage, false
}

// FreeFrame returns a frame to the pool. Borrowed frames go back to their
// memory home as soon as their data is no longer in use — the paper's
// current (admittedly eager) policy (§5.4).
func (v *VM) FreeFrame(t *sim.Task, f machine.PageNum) {
	pf := v.frames[f]
	if pf != nil && pf.BorrowedFrom >= 0 {
		v.ReturnFrames(t, []machine.PageNum{f})
		return
	}
	v.free = append(v.free, f)
}

// borrowFrom requests a batch of frames from the given memory home and
// returns one of them, pooling the rest (Table 5.1: borrow_frame).
func (v *VM) borrowFrom(t *sim.Task, home int) (machine.PageNum, error) {
	v.anyProc().Use(t, BorrowCost)
	res, err := v.EP.Call(t, v.anyProc(), home, ProcBorrow,
		&borrowArgs{Client: v.CellID, Count: v.BorrowBatch},
		rpc.CallOpts{DataBytes: 192})
	if err != nil {
		return machine.NoPage, err
	}
	rep, err := v.validateBorrowReply(res, home)
	if err != nil {
		return machine.NoPage, err
	}
	for _, f := range rep.Frames {
		pf := newPfdat(f)
		pf.Extended = true
		pf.BorrowedFrom = home
		v.frames[f] = pf
		v.free = append(v.free, f)
	}
	v.Metrics.Counter("vm.borrows").Add(int64(len(rep.Frames)))
	f, _ := v.popLocalFree(false)
	return f, nil
}

// validateBorrowReply sanity-checks a borrow reply: every frame the
// memory home handed out must exist and actually be owned by that home
// — a corrupt cell must not loan out an innocent third cell's memory.
func (v *VM) validateBorrowReply(res any, home int) (*borrowReply, error) {
	rep, ok := res.(*borrowReply)
	if !ok || len(rep.Frames) == 0 {
		return nil, ErrNoMemory
	}
	for _, f := range rep.Frames {
		if f < 0 || int(f) >= v.M.NumPages() || v.CellOfNode[v.M.HomeNode(f)] != home {
			return nil, fmt.Errorf("%w: borrowed frame %d not owned by cell %d",
				ErrBadPage, f, home)
		}
	}
	return rep, nil
}

// ReturnFrames sends borrowed frames back to their memory homes
// (Table 5.1: return_frame).
func (v *VM) ReturnFrames(t *sim.Task, frames []machine.PageNum) {
	byHome := map[int][]machine.PageNum{}
	for _, f := range frames {
		pf := v.frames[f]
		if pf == nil || pf.BorrowedFrom < 0 {
			continue
		}
		byHome[pf.BorrowedFrom] = append(byHome[pf.BorrowedFrom], f)
		delete(v.frames, f)
	}
	homes := make([]int, 0, len(byHome))
	for home := range byHome {
		homes = append(homes, home)
	}
	sort.Ints(homes)
	for _, home := range homes {
		fs := byHome[home]
		v.Metrics.Counter("vm.returns").Add(int64(len(fs)))
		//hive:lint-ignore errdrop frame return is best-effort: a dead memory home reclaims every loan during its recovery, so the return is moot
		v.EP.Call(t, v.anyProc(), home, ProcReturn,
			&returnArgs{Client: v.CellID, Frames: fs},
			rpc.CallOpts{DataBytes: 192, NoHint: true})
	}
}

// ReturnUnusedBorrows sends idle borrowed frames back to a pressured
// memory home — the clock-hand policy Wax drives ("preferentially free
// pages whose memory home is under memory pressure", §5.7). It returns the
// number of frames sent home.
func (v *VM) ReturnUnusedBorrows(t *sim.Task, home int) int {
	var give []machine.PageNum
	for i := len(v.free) - 1; i >= 0; i-- {
		f := v.free[i]
		if pf := v.frames[f]; pf != nil && pf.BorrowedFrom == home {
			v.free = append(v.free[:i], v.free[i+1:]...)
			give = append(give, f)
		}
	}
	if len(give) > 0 {
		v.ReturnFrames(t, give)
	}
	return len(give)
}

// BorrowedFrames counts frames currently borrowed from other cells.
func (v *VM) BorrowedFrames() int {
	n := 0
	for _, pf := range v.frames {
		if pf.BorrowedFrom >= 0 {
			n++
		}
	}
	return n
}

// LoanedFrames counts local frames currently loaned out.
func (v *VM) LoanedFrames() int {
	n := 0
	for _, pf := range v.frames {
		if pf.LoanedTo >= 0 {
			n++
		}
	}
	return n
}

// validateBorrowArgs vets a frame-loan request: the borrower named in
// the request must be the cell that actually sent it (a corrupt cell
// must not open another cell's firewall by impersonation, §5.4) and the
// batch size must be sane.
func validateBorrowArgs(req *rpc.Request) (*borrowArgs, error) {
	args, ok := req.Args.(*borrowArgs)
	if !ok || args.Client != req.From || args.Count <= 0 || args.Count > 1024 {
		return nil, ErrBadPage
	}
	return args, nil
}

// validateReturnArgs vets a frame-return: only the borrower of record
// may hand frames back (per-frame ownership is re-checked against the
// loan table in acceptReturns).
func validateReturnArgs(req *rpc.Request) (*returnArgs, error) {
	args, ok := req.Args.(*returnArgs)
	if !ok || args.Client != req.From || len(args.Frames) > 1024 {
		return nil, ErrBadPage
	}
	return args, nil
}

// registerPhysicalServices is called from registerServices.
func (v *VM) registerPhysicalServices() {
	// Loan service: the memory home moves frames to the reserved list
	// and ignores them until returned or the borrower fails (§5.4).
	v.EP.Register(ProcBorrow, "vm.borrow",
		func(req *rpc.Request) (any, sim.Time, bool, error) {
			args, err := validateBorrowArgs(req)
			if err != nil {
				return nil, 0, true, err
			}
			if v.Lock.Locked() {
				return nil, 0, false, nil
			}
			rep := v.loanFrames(args.Client, args.Count)
			if len(rep.Frames) == 0 {
				return nil, 0, true, ErrNoMemory
			}
			return rep, BorrowCost, true, nil
		},
		func(t *sim.Task, req *rpc.Request) (any, error) {
			args, err := validateBorrowArgs(req)
			if err != nil {
				return nil, err
			}
			v.Lock.Lock(t)
			rep := v.loanFrames(args.Client, args.Count)
			v.Lock.Unlock(t)
			if len(rep.Frames) == 0 {
				return nil, ErrNoMemory
			}
			return rep, nil
		})

	v.EP.Register(ProcReturn, "vm.return",
		func(req *rpc.Request) (any, sim.Time, bool, error) {
			args, err := validateReturnArgs(req)
			if err != nil {
				return nil, 0, true, err
			}
			if v.Lock.Locked() {
				return nil, 0, false, nil
			}
			v.acceptReturns(args.Client, args.Frames)
			return nil, MiscVMDataHome, true, nil
		},
		func(t *sim.Task, req *rpc.Request) (any, error) {
			args, err := validateReturnArgs(req)
			if err != nil {
				return nil, err
			}
			v.Lock.Lock(t)
			v.acceptReturns(args.Client, args.Frames)
			v.Lock.Unlock(t)
			return nil, nil
		})
}

// loanFrames moves up to count local free frames to the loaned state.
// Preserve a reserve so the cell cannot deadlock itself (§3.2: each cell
// preserves enough local free memory to avoid deadlock).
func (v *VM) loanFrames(client, count int) *borrowReply {
	const reserve = 32
	rep := &borrowReply{}
	for len(rep.Frames) < count && len(v.free) > reserve {
		f, ok := v.popLocalFree(true) // only loan frames we own
		if !ok {
			break
		}
		pf := v.frames[f]
		pf.LoanedTo = client
		// Loaning transfers control of the frame: open the firewall for
		// the borrowing cell (further changes come back by RPC, §5.4).
		bits := v.homeMask(f) | v.clientMask(client)
		v.M.SetFirewallIntr(v.proc(f), f, bits)
		rep.Frames = append(rep.Frames, f)
	}
	v.Metrics.Counter("vm.loans").Add(int64(len(rep.Frames)))
	return rep
}

// acceptReturns takes loaned frames back from a borrower.
func (v *VM) acceptReturns(client int, frames []machine.PageNum) {
	for _, f := range frames {
		if !v.localFrame(f) {
			continue // sanity: only our own frames
		}
		pf := v.frames[f]
		if pf == nil || pf.LoanedTo != client {
			continue // sanity: must have been loaned to this client
		}
		pf.LoanedTo = -1
		v.M.SetFirewallIntr(v.proc(f), f, v.homeMask(f))
		v.free = append(v.free, f)
	}
}
