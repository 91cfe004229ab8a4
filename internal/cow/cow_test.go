package cow

import (
	"errors"
	"sort"
	"testing"
	"testing/quick"

	"repro/internal/careful"
	"repro/internal/kmem"
	"repro/internal/machine"
	"repro/internal/rpc"
	"repro/internal/sim"
	"repro/internal/vm"
)

type fixture struct {
	e    *sim.Engine
	m    *machine.Machine
	mgs  []*Manager
	vms  []*vm.VM
	eps  []*rpc.Endpoint
	hint []int
}

func newFixture(t *testing.T, cells int) *fixture {
	t.Helper()
	e := sim.NewEngine(55)
	cfg := machine.DefaultConfig()
	cfg.Nodes = cells
	cfg.MemPerNodeMB = 2
	m := machine.New(e, cfg)
	f := &fixture{e: e, m: m}
	space := kmem.NewSpace(cells)
	cellOfNode := make([]int, cells)
	for i := range cellOfNode {
		cellOfNode[i] = i
	}
	for c := 0; c < cells; c++ {
		node := m.Nodes[c]
		space.Arena(c).Accessible = func() error {
			if node.Failed() || node.CutOff() {
				return kmem.ErrBusError
			}
			return nil
		}
		ep := rpc.NewEndpoint(m, c, []*machine.Processor{m.Procs[c]}, 2)
		f.eps = append(f.eps, ep)
	}
	rpc.Connect(f.eps...)
	for c := 0; c < cells; c++ {
		v := vm.New(m, f.eps[c], c, []int{c}, cellOfNode, 16)
		reader := &careful.Reader{M: m, Space: space,
			HintSink: func(cell int, reason string) { f.hint = append(f.hint, cell) }}
		f.vms = append(f.vms, v)
		f.mgs = append(f.mgs, New(m, f.eps[c], v, space, reader, c))
	}
	return f
}

func (f *fixture) run(t *testing.T, fn func(tk *sim.Task)) {
	t.Helper()
	f.e.Go("test", fn)
	f.e.Run(0)
}

func TestZeroFillAndReadBack(t *testing.T) {
	f := newFixture(t, 1)
	f.run(t, func(tk *sim.Task) {
		leaf := f.mgs[0].NewRoot()
		pf, err := f.mgs[0].Touch(tk, leaf, 5, true)
		if err != nil {
			t.Fatalf("touch: %v", err)
		}
		if err := f.m.WritePage(tk, f.m.Procs[0], pf.Frame, 77); err != nil {
			t.Fatalf("write: %v", err)
		}
		f.vms[0].Unref(tk, pf)
		pf2, err := f.mgs[0].Touch(tk, leaf, 5, false)
		if err != nil {
			t.Fatalf("retouch: %v", err)
		}
		tag, _, _ := f.m.ReadPage(tk, f.m.Procs[0], pf2.Frame)
		if tag != 77 {
			t.Fatalf("tag = %d", tag)
		}
		f.vms[0].Unref(tk, pf2)
	})
}

func TestForkChildSeesParentPages(t *testing.T) {
	f := newFixture(t, 1)
	f.run(t, func(tk *sim.Task) {
		root := f.mgs[0].NewRoot()
		// Parent writes page 3 before forking.
		pf, err := f.mgs[0].Touch(tk, root, 3, true)
		if err != nil {
			t.Fatalf("touch: %v", err)
		}
		f.m.WritePage(tk, f.m.Procs[0], pf.Frame, 123)
		f.vms[0].Unref(tk, pf)

		pLeaf, cLeaf, err := f.mgs[0].Fork(tk, root, 0)
		if err != nil {
			t.Fatalf("fork: %v", err)
		}
		// Child read-faults: finds the pre-fork page in the ancestor.
		node, found, err := f.mgs[0].Lookup(tk, cLeaf, 3)
		if err != nil || !found || node != root {
			t.Fatalf("lookup: node=%v found=%v err=%v", node, found, err)
		}
		_ = pLeaf
	})
}

func TestPostForkWritesInvisibleToChild(t *testing.T) {
	// §5.3: pages written by the parent after the fork are recorded in
	// its new leaf, so only pre-fork pages are visible to the child.
	f := newFixture(t, 1)
	f.run(t, func(tk *sim.Task) {
		root := f.mgs[0].NewRoot()
		pLeaf, cLeaf, _ := f.mgs[0].Fork(tk, root, 0)
		pf, err := f.mgs[0].Touch(tk, pLeaf, 9, true)
		if err != nil {
			t.Fatalf("touch: %v", err)
		}
		f.vms[0].Unref(tk, pf)
		_, found, err := f.mgs[0].Lookup(tk, cLeaf, 9)
		if err != nil {
			t.Fatalf("lookup: %v", err)
		}
		if found {
			t.Fatal("child sees parent's post-fork page")
		}
	})
}

func TestCopyOnWriteCopies(t *testing.T) {
	f := newFixture(t, 1)
	f.run(t, func(tk *sim.Task) {
		root := f.mgs[0].NewRoot()
		pf, _ := f.mgs[0].Touch(tk, root, 1, true)
		f.m.WritePage(tk, f.m.Procs[0], pf.Frame, 50)
		f.vms[0].Unref(tk, pf)
		pLeaf, cLeaf, _ := f.mgs[0].Fork(tk, root, 0)

		// Child writes the shared page: gets its own copy.
		cpf, err := f.mgs[0].Touch(tk, cLeaf, 1, true)
		if err != nil {
			t.Fatalf("cow touch: %v", err)
		}
		f.m.WritePage(tk, f.m.Procs[0], cpf.Frame, 60)
		f.vms[0].Unref(tk, cpf)

		// Parent still sees the original.
		ppf, err := f.mgs[0].Touch(tk, pLeaf, 1, false)
		if err != nil {
			t.Fatalf("parent touch: %v", err)
		}
		tag, _, _ := f.m.ReadPage(tk, f.m.Procs[0], ppf.Frame)
		if tag != 50 {
			t.Fatalf("parent's page changed: tag=%d", tag)
		}
		f.vms[0].Unref(tk, ppf)
		if f.mgs[0].Metrics.Counter("cow.copies").Value() != 1 {
			t.Error("copy not counted")
		}
	})
}

func TestCrossCellForkAndLookup(t *testing.T) {
	// §5.3: parent on cell 0 forks a child to cell 1. The child's leaf
	// is local to cell 1; its lookups traverse the tree back into cell
	// 0's kernel memory via the careful reference protocol, then bind
	// with an export/import RPC.
	f := newFixture(t, 2)
	f.run(t, func(tk *sim.Task) {
		root := f.mgs[0].NewRoot()
		pf, _ := f.mgs[0].Touch(tk, root, 7, true)
		f.m.WritePage(tk, f.m.Procs[0], pf.Frame, 88)
		f.vms[0].Unref(tk, pf)

		_, cLeaf, err := f.mgs[0].Fork(tk, root, 1)
		if err != nil {
			t.Fatalf("cross-cell fork: %v", err)
		}
		if cLeaf.Cell() != 1 {
			t.Fatalf("child leaf on cell %d", cLeaf.Cell())
		}
		// Child (on cell 1) touches the pre-fork page.
		cpf, err := f.mgs[1].Touch(tk, cLeaf, 7, false)
		if err != nil {
			t.Fatalf("child touch: %v", err)
		}
		tag, _, _ := f.m.ReadPage(tk, f.m.Procs[1], cpf.Frame)
		if tag != 88 {
			t.Fatalf("child read tag = %d", tag)
		}
		if f.mgs[1].Metrics.Counter("cow.remote_visits").Value() == 0 {
			t.Error("no remote tree visit recorded")
		}
		if f.vms[1].Metrics.Counter("vm.imports").Value() == 0 {
			t.Error("no import binding created")
		}
		f.vms[1].Unref(tk, cpf)
	})
}

func TestCorruptParentPointerCaught(t *testing.T) {
	// §7.4: corrupt a pointer in the COW tree; the careful reference
	// protocol must defend the traversing cell and raise a hint.
	f := newFixture(t, 2)
	f.run(t, func(tk *sim.Task) {
		root := f.mgs[0].NewRoot()
		_, cLeaf, err := f.mgs[0].Fork(tk, root, 1)
		if err != nil {
			t.Fatalf("fork: %v", err)
		}
		// Corrupt the root's parent pointer to a wild address in cell 0.
		if !f.mgs[0].CorruptParent(root, uint64(kmem.MakeAddr(0, 0xbad000))) {
			t.Fatal("corruption failed")
		}
		// Child searches for a page that was never written: traversal
		// passes root (no hit), follows the corrupt pointer, and the
		// tag check catches the wild address.
		_, _, err = f.mgs[1].Lookup(tk, cLeaf, 42)
		if !errors.Is(err, ErrTreeDamaged) {
			t.Fatalf("err = %v", err)
		}
	})
	if len(f.hint) == 0 || f.hint[0] != 0 {
		t.Fatalf("hints = %v, want suspect cell 0", f.hint)
	}
}

func TestSelfPointerCaughtByLoopBound(t *testing.T) {
	f := newFixture(t, 2)
	f.run(t, func(tk *sim.Task) {
		root := f.mgs[0].NewRoot()
		_, cLeaf, _ := f.mgs[0].Fork(tk, root, 1)
		// Self-pointing corruption (§7.4's pathological case).
		f.mgs[0].CorruptParent(root, uint64(root))
		_, _, err := f.mgs[1].Lookup(tk, cLeaf, 42)
		if !errors.Is(err, ErrTreeDamaged) {
			t.Fatalf("err = %v", err)
		}
	})
}

func TestNodeFailureDuringSearchSurvived(t *testing.T) {
	// §7.4: node failure during copy-on-write search. The child's
	// traversal hits a bus error and survives with a hint.
	f := newFixture(t, 2)
	f.run(t, func(tk *sim.Task) {
		root := f.mgs[0].NewRoot()
		_, cLeaf, _ := f.mgs[0].Fork(tk, root, 1)
		f.m.Nodes[0].FailStop()
		_, _, err := f.mgs[1].Lookup(tk, cLeaf, 3)
		if !errors.Is(err, ErrTreeDamaged) {
			t.Fatalf("err = %v", err)
		}
	})
	if len(f.hint) == 0 {
		t.Fatal("no failure hint raised")
	}
}

func TestLookupCrossCellCostsCarefulReads(t *testing.T) {
	f := newFixture(t, 2)
	var lat sim.Time
	f.run(t, func(tk *sim.Task) {
		root := f.mgs[0].NewRoot()
		_, cLeaf, _ := f.mgs[0].Fork(tk, root, 1)
		start := tk.Now()
		_, found, err := f.mgs[1].Lookup(tk, cLeaf, 9)
		lat = tk.Now() - start
		if err != nil || found {
			t.Fatalf("found=%v err=%v", found, err)
		}
	})
	// One local visit + one remote careful visit: a handful of µs, far
	// cheaper than an RPC-per-node approach would be.
	if lat < 1*sim.Microsecond || lat > 20*sim.Microsecond {
		t.Fatalf("cross-cell lookup cost %v", lat)
	}
}

func TestLeafFull(t *testing.T) {
	f := newFixture(t, 1)
	f.run(t, func(tk *sim.Task) {
		leaf := f.mgs[0].NewRoot()
		for i := 0; i < MaxEntries; i++ {
			if err := f.mgs[0].Record(leaf, int64(i)); err != nil {
				t.Fatalf("record %d: %v", i, err)
			}
		}
		if err := f.mgs[0].Record(leaf, 999); !errors.Is(err, ErrNodeFull) {
			t.Fatalf("err = %v", err)
		}
	})
}

func TestMakeLeafSanityRejectsForgedParent(t *testing.T) {
	// A corrupt cell asking for a leaf whose parent it does not own is
	// refused.
	f := newFixture(t, 3)
	f.run(t, func(tk *sim.Task) {
		foreign := f.mgs[1].NewRoot() // cell 1's node
		_, _, err := f.eps[2].Call(tk, f.m.Procs[2], 0, ProcMakeLeaf,
			&makeLeafArgs{Parent: foreign}, rpc.CallOpts{})
		if err == nil {
			t.Fatal("forged parent accepted")
		}
	})
}

func TestRPCWalkFindsSamePagesAsSharedMemory(t *testing.T) {
	f := newFixture(t, 2)
	f.run(t, func(tk *sim.Task) {
		root := f.mgs[0].NewRoot()
		pf, _ := f.mgs[0].Touch(tk, root, 7, true)
		f.vms[0].Unref(tk, pf)
		_, cLeaf, err := f.mgs[0].Fork(tk, root, 1)
		if err != nil {
			t.Fatalf("fork: %v", err)
		}
		nodeSM, foundSM, err := f.mgs[1].Lookup(tk, cLeaf, 7)
		if err != nil {
			t.Fatalf("shared-memory lookup: %v", err)
		}
		nodeRPC, foundRPC, err := f.mgs[1].LookupRPC(tk, cLeaf, 7)
		if err != nil {
			t.Fatalf("rpc lookup: %v", err)
		}
		if foundSM != foundRPC || nodeSM != nodeRPC {
			t.Fatalf("disagreement: sm=(%v,%v) rpc=(%v,%v)", nodeSM, foundSM, nodeRPC, foundRPC)
		}
		// Misses agree too.
		_, fSM, _ := f.mgs[1].Lookup(tk, cLeaf, 99)
		_, fRPC, _ := f.mgs[1].LookupRPC(tk, cLeaf, 99)
		if fSM || fRPC {
			t.Fatalf("phantom page: sm=%v rpc=%v", fSM, fRPC)
		}
	})
}

func TestRPCWalkSurvivesNodeFailure(t *testing.T) {
	f := newFixture(t, 2)
	f.run(t, func(tk *sim.Task) {
		root := f.mgs[0].NewRoot()
		_, cLeaf, _ := f.mgs[0].Fork(tk, root, 1)
		f.m.Nodes[0].FailStop()
		_, _, err := f.mgs[1].LookupRPC(tk, cLeaf, 3)
		if !errors.Is(err, ErrTreeDamaged) {
			t.Fatalf("err = %v", err)
		}
	})
}

func TestRPCWalkRejectsForgedReply(t *testing.T) {
	f := newFixture(t, 3)
	// Cell 1 serves a corrupt lookup reply claiming a node on cell 2.
	f.eps[1].Register(ProcTreeLookup, "cow.evil",
		func(_ *sim.Task, req *rpc.Request) (any, sim.Time, error) {
			return &treeLookupReply{Found: true, Node: f.mgs[2].NewRoot()}, 0, nil
		})
	f.run(t, func(tk *sim.Task) {
		root := f.mgs[0].NewRoot()
		_, cLeaf, _ := f.mgs[0].Fork(tk, root, 0)
		_ = cLeaf
		// Search directly against cell 1's forged service.
		fake := kmem.MakeAddr(1, 64)
		_, _, err := f.mgs[0].LookupRPC(tk, fake, 5)
		if err == nil {
			t.Fatal("forged reply accepted")
		}
	})
}

// TestLookupServicePanicsOnOwnDamage checks the cow.treelookup server
// against damage in its own chain: a bad tag, a bad entry count and a
// node that is its own parent each fire the serving cell's OnLocalDamage
// once, and the walking cell gets ErrTreeDamaged without panicking.
func TestLookupServicePanicsOnOwnDamage(t *testing.T) {
	for _, tc := range []struct {
		name    string
		corrupt func(mg *Manager) kmem.Addr // returns the walk's start
	}{
		{"bad tag", func(mg *Manager) kmem.Addr { return mg.arena().Alloc(TagNode+1, nodeWords) }},
		{"bad count", func(mg *Manager) kmem.Addr {
			n := mg.NewRoot()
			mg.arena().CorruptWord(n, wordCount, MaxEntries+1)
			return n
		}},
		{"own parent", func(mg *Manager) kmem.Addr {
			n := mg.NewRoot()
			mg.CorruptParent(n, uint64(n))
			return n
		}},
	} {
		t.Run(tc.name, func(t *testing.T) {
			f := newFixture(t, 2)
			var panics [2]int
			for c, mg := range f.mgs {
				mg.OnLocalDamage = func(string) { panics[c]++ }
			}
			start := tc.corrupt(f.mgs[0])
			f.run(t, func(tk *sim.Task) {
				if _, _, err := f.mgs[1].LookupRPC(tk, start, 5); !errors.Is(err, ErrTreeDamaged) {
					t.Errorf("err = %v, want ErrTreeDamaged", err)
				}
			})
			if panics != [2]int{1, 0} {
				t.Errorf("OnLocalDamage fired %d times on the server and %d on the caller, want 1 and 0",
					panics[0], panics[1])
			}
		})
	}
}

func TestSwapOutAndBackIn(t *testing.T) {
	f := newFixture(t, 1)
	f.mgs[0].EnableSwap(f.m.Nodes[0].Disk, 1<<30)
	f.run(t, func(tk *sim.Task) {
		leaf := f.mgs[0].NewRoot()
		pf, err := f.mgs[0].Touch(tk, leaf, 3, true)
		if err != nil {
			t.Fatalf("touch: %v", err)
		}
		f.m.WritePage(tk, f.m.Procs[0], pf.Frame, 4242)
		f.vms[0].Unref(tk, pf)
		pf.Dirty = true
		lp := LP(leaf, 3)

		// Swap the page out and evict it.
		if !f.mgs[0].SwapOut(tk, lp) {
			t.Fatal("swap-out refused")
		}
		pf.Dirty = false
		if !f.vms[0].Evict(tk, lp) {
			t.Fatal("evict failed")
		}
		// Touch again: content comes back from swap.
		pf2, err := f.mgs[0].Touch(tk, leaf, 3, false)
		if err != nil {
			t.Fatalf("retouch: %v", err)
		}
		tag, _, _ := f.m.ReadPage(tk, f.m.Procs[0], pf2.Frame)
		if tag != 4242 {
			t.Fatalf("tag after swap-in = %d", tag)
		}
		if f.mgs[0].Metrics.Counter("cow.swap_ins").Value() != 1 {
			t.Fatal("swap-in not counted")
		}
	})
}

func TestSwapOutRefusesForeignPages(t *testing.T) {
	f := newFixture(t, 2)
	f.mgs[0].EnableSwap(f.m.Nodes[0].Disk, 1<<30)
	f.run(t, func(tk *sim.Task) {
		foreign := LP(f.mgs[1].NewRoot(), 0)
		if f.mgs[0].SwapOut(tk, foreign) {
			t.Fatal("swapped out a page homed elsewhere")
		}
	})
}

// Property: no matter WHAT value a corrupt parent pointer takes, a remote
// traversal never crashes the reading cell — it either completes, reports
// tree damage with a hint, or (never) hangs. This is the §4.1 careful
// reference guarantee under fuzzing.
func TestPropertyCarefulTraversalAlwaysSurvives(t *testing.T) {
	fz := func(raw uint64, offRaw uint8) bool {
		f := newFixture(t, 2)
		survived := true
		f.run(t, func(tk *sim.Task) {
			root := f.mgs[0].NewRoot()
			pf, err := f.mgs[0].Touch(tk, root, 1, true)
			if err != nil {
				survived = false
				return
			}
			f.vms[0].Unref(tk, pf)
			_, cLeaf, err := f.mgs[0].Fork(tk, root, 1)
			if err != nil {
				survived = false
				return
			}
			f.mgs[0].CorruptParent(root, raw)
			// A miss-lookup follows the corrupt pointer; a hit stops
			// at the root. Both must return (no panic, no hang).
			_, _, _ = f.mgs[1].Lookup(tk, cLeaf, int64(offRaw)+100) // miss
			_, _, _ = f.mgs[1].Lookup(tk, cLeaf, 1)                 // hit
		})
		// The engine drained: the reading task did not deadlock.
		return survived && f.e.LiveTasks() <= 8 // rpc pool tasks remain parked
	}
	if err := quick.Check(fz, &quick.Config{MaxCount: 30}); err != nil {
		t.Fatal(err)
	}
}

// TestAuditFindsUntouchedDamage runs the kernel consistency audit (§4.1
// aggressive failure detection) over a tree of four forks with one damaged
// leaf that no walk touches, once per §7.4 pathology of its parent
// pointer. The audit counts one damaged chain and fires OnLocalDamage
// once; an undamaged arena audits clean. EachTagged lists the tree's nine
// nodes in address order.
func TestAuditFindsUntouchedDamage(t *testing.T) {
	for _, tc := range []struct {
		name   string
		parent func(node kmem.Addr) uint64 // nil: no damage
	}{
		{"undamaged", nil},
		{"other cell", func(kmem.Addr) uint64 { return uint64(kmem.MakeAddr(1, 0xbad040)) }},
		{"one word off", func(n kmem.Addr) uint64 { return uint64(n) + kmem.WordSize }},
		{"self", func(n kmem.Addr) uint64 { return uint64(n) }},
	} {
		t.Run(tc.name, func(t *testing.T) {
			f := newFixture(t, 2)
			mg := f.mgs[0]
			panics := 0
			mg.OnLocalDamage = func(string) { panics++ }
			var nodes []kmem.Addr
			f.run(t, func(tk *sim.Task) {
				leaf, cLeaf := mg.NewRoot(), kmem.NilAddr
				for i := 0; i < 4; i++ {
					var err error
					if leaf, cLeaf, err = mg.Fork(tk, leaf, 0); err != nil {
						t.Fatalf("fork: %v", err)
					}
				}
				mg.arena().EachTagged(TagNode, func(a kmem.Addr) { nodes = append(nodes, a) })
				if len(nodes) != 9 || !sort.SliceIsSorted(nodes, func(i, j int) bool { return nodes[i] < nodes[j] }) {
					t.Errorf("EachTagged = %v, want 9 nodes in address order", nodes)
				}
				want := 0
				if tc.parent != nil {
					if !mg.CorruptParent(cLeaf, tc.parent(cLeaf)) {
						t.Fatal("corruption failed")
					}
					want = 1
				}
				if got := mg.Audit(tk); got != want {
					t.Errorf("Audit = %d damaged chains, want %d", got, want)
				}
				if panics != want {
					t.Errorf("OnLocalDamage fired %d times, want %d", panics, want)
				}
			})
		})
	}
}
