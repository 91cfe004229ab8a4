package cow

import (
	"fmt"

	"repro/internal/kmem"
	"repro/internal/rpc"
	"repro/internal/sim"
)

// The §5.3 ablation. The paper built the distributed COW tree as an
// experiment in shared-memory kernel data structures and concluded:
// "A more conventional RPC-based approach would be simpler and probably
// just as fast, at least for the workloads we evaluated." This file
// implements that conventional approach so the claim can be measured:
// instead of careful remote reads, the searching cell asks each remote
// cell (by RPC) to walk its own local portion of the tree.

// ProcTreeLookup is the RPC-walk service (range 140-159).
const ProcTreeLookup rpc.ProcID = 141

// treeLookupArgs asks a cell to search its local chain from Start.
type treeLookupArgs struct {
	Start kmem.Addr
	Off   int64
}

// treeLookupReply reports the outcome: the holding node, or the first
// pointer leaving the serving cell (NilAddr when the chain ends).
type treeLookupReply struct {
	Found bool
	Node  kmem.Addr
	Next  kmem.Addr
}

// LookupRPC is the conventional implementation of Lookup: local walking
// plus one RPC per remote cell visited.
func (mg *Manager) LookupRPC(t *sim.Task, leaf kmem.Addr, off int64) (kmem.Addr, bool, error) {
	cur := leaf
	for hops := 0; hops < MaxDepth && cur != kmem.NilAddr; hops++ {
		if cur.Cell() == mg.CellID {
			node, found, next, err := mg.walkLocal(cur, off, func() { mg.proc().Use(t, localVisit) })
			if err != nil {
				return 0, false, err
			}
			if found {
				return node, true, nil
			}
			cur = next
			continue
		}
		res, _, err := mg.EP.Call(t, mg.proc(), cur.Cell(), ProcTreeLookup,
			&treeLookupArgs{Start: cur, Off: off}, rpc.CallOpts{DataBytes: 24})
		if err != nil {
			return 0, false, fmt.Errorf("%w: lookup RPC: %v", ErrTreeDamaged, err)
		}
		rep, err := validateTreeLookupReply(res, cur.Cell())
		if err != nil {
			return 0, false, err
		}
		if rep.Found {
			return rep.Node, true, nil
		}
		cur = rep.Next
	}
	if cur != kmem.NilAddr {
		return 0, false, fmt.Errorf("%w: RPC walk exceeded hop bound", ErrTreeDamaged)
	}
	return 0, false, nil
}

// validateTreeLookupReply sanity-checks a tree-lookup reply as message
// data (§3.1): a found node must belong to the serving cell, and a
// not-found reply's next pointer must actually leave that cell — a
// corrupt server must neither plant pointers into third cells' trees
// nor trap the walker in a loop on its own.
func validateTreeLookupReply(res any, server int) (*treeLookupReply, error) {
	rep, ok := res.(*treeLookupReply)
	if !ok {
		return nil, fmt.Errorf("%w: bad lookup reply", ErrTreeDamaged)
	}
	if rep.Found && rep.Node.Cell() != server {
		return nil, fmt.Errorf("%w: reply node %v not on cell %d",
			ErrTreeDamaged, rep.Node, server)
	}
	if !rep.Found && rep.Next != kmem.NilAddr && rep.Next.Cell() == server {
		return nil, fmt.Errorf("%w: server returned non-progressing next", ErrTreeDamaged)
	}
	return rep, nil
}

// walkLocal searches this cell's chain from start, calling visit before
// each node it reads, and stops at the first pointer that leaves the cell.
// A damaged node, or a chain that stays in the cell past MaxDepth, is this
// cell's own kernel data gone bad: the cell panics (localDamage).
func (mg *Manager) walkLocal(start kmem.Addr, off int64, visit func()) (node kmem.Addr, found bool, next kmem.Addr, err error) {
	cur := start
	for depth := 0; depth < MaxDepth && cur != kmem.NilAddr && cur.Cell() == mg.CellID; depth++ {
		visit()
		hit, parent, err := mg.scanNode(cur, off)
		if err != nil {
			mg.localDamage(err.Error())
			return 0, false, 0, err
		}
		if hit {
			return cur, true, 0, nil
		}
		cur = parent
	}
	if cur != kmem.NilAddr && cur.Cell() == mg.CellID {
		err := fmt.Errorf("%w: local walk exceeded depth bound", ErrTreeDamaged)
		mg.localDamage(err.Error())
		return 0, false, 0, err
	}
	return 0, false, cur, nil
}

// validateTreeLookupArgs vets a remote-walk request: the start node must
// be an address in this cell's arena (a corrupt peer must not steer the
// walk through another cell's address range).
func (mg *Manager) validateTreeLookupArgs(req *rpc.Request) (*treeLookupArgs, error) {
	args, ok := req.Args.(*treeLookupArgs)
	if !ok || args.Start.Cell() != mg.CellID {
		return nil, ErrBadArgs
	}
	return args, nil
}

// registerLookupService installs the RPC-walk server (called from
// registerServices). The walk is memory-only, so it is served at interrupt
// level like the page-fault fast path.
func (mg *Manager) registerLookupService() {
	mg.EP.Register(ProcTreeLookup, "cow.treelookup",
		func(_ *sim.Task, req *rpc.Request) (any, sim.Time, error) {
			args, err := mg.validateTreeLookupArgs(req)
			if err != nil {
				return nil, 0, err
			}
			// The interrupt handler cannot charge per-node time as a
			// task; estimate the visit cost into the service charge.
			var visits sim.Time
			node, found, next, err := mg.walkLocal(args.Start, args.Off, func() { visits += localVisit })
			if err != nil {
				return nil, visits, err
			}
			return &treeLookupReply{Found: found, Node: node, Next: next}, visits, nil
		}, rpc.Idempotent())
}
