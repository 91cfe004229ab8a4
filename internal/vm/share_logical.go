package vm

import (
	"fmt"
	"math/bits"

	"repro/internal/machine"
	"repro/internal/rpc"
	"repro/internal/sim"
)

// Logical-level sharing (§5.2): a client cell gains the right to access a
// data page wherever it is stored, through the export/import/release
// primitives of Table 5.1. The data home records each client in its pfdat;
// the client allocates an extended pfdat so the rest of its kernel can
// treat the remote page as local.

// exportArgs is the wire argument of the page-fault/export and release
// RPCs. It travels by value in the request's line: the object number,
// the offset, then the client, home, kind and writable flag packed into
// the third word (see line).
type exportArgs struct {
	LP       LogicalPage
	Client   int
	Writable bool
}

// The fields of exportArgs' third word: the client, the home and the
// kind in six bits each (a hive has at most 64 cells), then the writable
// bit. No other bit may be set.
const (
	exportFieldBits = 6
	exportFieldMask = 1<<exportFieldBits - 1
	exportHomeShift = exportFieldBits
	exportKindShift = 2 * exportFieldBits
	exportWritable  = 1 << (3 * exportFieldBits)
	exportWordMask  = exportWritable<<1 - 1
)

// line encodes a as a request's by-value argument. The client and home
// are cells and the kind an ObjKind, each in [0, 64).
func (a exportArgs) line() rpc.Line {
	w := int64(a.Client) | int64(a.LP.Obj.Home)<<exportHomeShift | int64(a.LP.Obj.Kind)<<exportKindShift
	if a.Writable {
		w |= exportWritable
	}
	return rpc.Line{W: [3]int64{int64(a.LP.Obj.Num), a.LP.Off, w}}
}

// Export records that client now accesses the data page held by pf and, if
// the client requested write access, opens the firewall for all of the
// client cell's processors (§4.2 firewall management policy). Returns the
// extra cost when running at interrupt level (engine context), or performs
// the blocking variant when t is non-nil.
func (v *VM) Export(t *sim.Task, pf *Pfdat, client int, writable bool) (sim.Time, error) {
	if pf.exports.has(client) {
		if v.extraExports == nil {
			v.extraExports = make(map[exportRef]int)
		}
		v.extraExports[exportRef{pf.Frame, client}]++
	} else {
		pf.exports |= cellOf(client)
	}
	cost := MiscVMDataHome + ExportCost
	if writable && !pf.writable.has(client) {
		pf.writable |= cellOf(client)
		c, err := v.setFirewall(t, pf, v.M.Firewall(pf.Frame)|v.clientMask(client))
		if err != nil {
			return 0, err
		}
		cost += c
	}
	v.Metrics.Counter("vm.exports").Inc()
	return cost, nil
}

// clientMask returns the firewall mask for every processor of a cell. The
// node→cell map is fixed at boot, so the masks are computed once and cached
// — every grant and revocation consults this on the fault path, and the
// per-call scan over all nodes was quadratic in machine size at 32+ cells.
func (v *VM) clientMask(cell int) uint64 {
	if v.maskOfCell == nil {
		cells := 0
		for _, c := range v.CellOfNode {
			if c+1 > cells {
				cells = c + 1
			}
		}
		v.maskOfCell = make([]uint64, cells)
		for n, c := range v.CellOfNode {
			v.maskOfCell[c] |= v.M.NodeProcMask(n)
		}
	}
	if cell < 0 || cell >= len(v.maskOfCell) {
		return 0
	}
	return v.maskOfCell[cell]
}

// homeMask returns the firewall mask of the cell owning a frame — the
// permission set a page returns to when all remote access is revoked.
func (v *VM) homeMask(frame machine.PageNum) uint64 {
	return v.clientMask(v.CellOfNode[v.M.HomeNode(frame)])
}

// setFirewall sets the firewall of pf's frame to bits. A local frame
// changes through the machine: with a task, the task pays; with t nil,
// from interrupt context, the cost is returned for the handler to charge.
// For a borrowed frame the memory home must make the change (§5.4), which
// requires an RPC and therefore a task context.
func (v *VM) setFirewall(t *sim.Task, pf *Pfdat, bits uint64) (sim.Time, error) {
	frame := pf.Frame
	if v.localFrame(frame) {
		return v.M.SetFirewall(t, v.proc(frame), frame, bits)
	}
	// Borrowed frame: the firewall lives at the memory home.
	if t == nil {
		return 0, fmt.Errorf("firewall change on borrowed frame needs queued path")
	}
	home := v.CellOfNode[v.M.HomeNode(frame)]
	_, _, err := v.EP.Call(t, v.anyProc(), home, ProcFirewall,
		&firewallArgs{Frame: frame, Bits: bits}, rpc.CallOpts{DataBytes: 32})
	return 0, err
}

// Import allocates an extended pfdat bound to a remote page (Table 5.1) and
// inserts it in the pfdat hash so further faults hit locally.
func (v *VM) Import(t *sim.Task, frame machine.PageNum, dataHome int, lp LogicalPage, writable bool) *Pfdat {
	v.anyProc().Use(t, ImportCost)
	// §5.5: when a loaned frame's page is imported back by its memory
	// home, the preexisting pfdat is reused — the logical-level and
	// physical-level state machines use separate storage.
	pf := v.pfdat(frame)
	if pf == nil {
		pf = newPfdat(frame)
		pf.Extended = true
		v.addExtended(pf)
	}
	pf.LP = lp
	pf.Valid = true
	pf.ImportedFrom = dataHome
	pf.ImpWritable = pf.ImpWritable || writable
	v.hash.put(pf)
	v.Metrics.Counter("vm.imports").Inc()
	return pf
}

// Release frees an extended pfdat and tells the data home to drop the
// export reference (Table 5.1). The page stays in the data home's cache for
// fast re-access (§5.2).
func (v *VM) Release(t *sim.Task, pf *Pfdat) {
	v.anyProc().Use(t, ReleaseCost)
	v.hash.del(pf.LP)
	if pf.Extended {
		v.dropExtended(pf.Frame)
	} else {
		pf.Valid = false
	}
	home := pf.ImportedFrom
	pf.ImportedFrom = -1
	pf.ImpWritable = false
	v.Metrics.Counter("vm.releases").Inc()
	//hive:lint-ignore errdrop release notification is best-effort: if the data home is dead its export table dies with it, and recovery rebuilds the survivors' tables
	v.EP.Call(t, v.anyProc(), home, ProcRelease, nil,
		rpc.CallOpts{DataBytes: 48, NoHint: true, Arg: exportArgs{LP: pf.LP, Client: v.CellID}.line()})
}

// ImportRemote performs the client side of a remote page fault: the export
// RPC to the data home followed by Import. The file system and COW manager
// call it from their resolvers. The RPC carries more than one line of data
// (page descriptors), engaging the Table 5.2 copy/alloc costs.
func (v *VM) ImportRemote(t *sim.Task, lp LogicalPage, writable bool) (*Pfdat, error) {
	_, res, err := v.EP.Call(t, v.anyProc(), lp.Obj.Home, ProcExport, nil,
		rpc.CallOpts{DataBytes: 256, Arg: exportArgs{LP: lp, Client: v.CellID, Writable: writable}.line()})
	if err != nil {
		return nil, err
	}
	frame, err := v.validateExportReply(res)
	if err != nil {
		return nil, err
	}
	return v.Import(t, frame, lp.Obj.Home, lp, writable), nil
}

// validateExportReply sanity-checks an export reply, the page's frame
// in its first word (§5.2), as the careful-message discipline requires,
// before the frame number a peer chose enters our page cache. The frame
// must exist; it need not be owned by the data home, since a data home
// may legally serve a page cached in a borrowed frame (§5.5: a frame can
// be simultaneously borrowed and exported).
func (v *VM) validateExportReply(res rpc.Line) (machine.PageNum, error) {
	frame := machine.PageNum(res.W[0])
	if !v.frameExists(frame) {
		return 0, fmt.Errorf("%w: export reply frame %d out of range",
			ErrBadPage, frame)
	}
	return frame, nil
}

// validateExportArgs decodes and vets an export/page-fault or release
// request from another cell: the third word may set no bit outside its
// fields and the line carries no string, so two different lines never
// decode to the same request; we must be the data home for the page it
// names, and the client must be the cell that actually sent the request
// — a corrupt cell must not be able to charge export references to an
// innocent third cell.
func (v *VM) validateExportArgs(req *rpc.Request) (exportArgs, error) {
	w := req.Arg.W[2]
	if w&^exportWordMask != 0 || req.Arg.Str != "" {
		return exportArgs{}, ErrBadPage
	}
	obj := ObjID{
		Kind: ObjKind(w >> exportKindShift & exportFieldMask),
		Home: int(w >> exportHomeShift & exportFieldMask),
		Num:  uint64(req.Arg.W[0]),
	}
	args := exportArgs{
		LP:       LogicalPage{Obj: obj, Off: req.Arg.W[1]},
		Client:   int(w & exportFieldMask),
		Writable: w&exportWritable != 0,
	}
	if args.LP.Obj.Home != v.CellID || args.Client != req.From {
		return exportArgs{}, ErrBadPage
	}
	return args, nil
}

// registerServices installs the VM's RPC services on the cell's endpoint.
func (v *VM) registerServices() {
	v.registerPhysicalServices()
	v.EP.Register(ProcExport, "vm.export", v.serveExport)
	v.EP.Register(ProcRelease, "vm.release", v.serveRelease)
	v.EP.Register(ProcFirewall, "vm.firewall", v.serveFirewall, rpc.Queued())
}

// serveExport is the page-fault/export service. The common case, a hit in
// the data home's page cache, is served entirely at interrupt level
// (§4.3/§5.2). A held memory lock, a miss (which needs I/O) or a firewall
// change on a borrowed frame (which needs an RPC to its memory home)
// would block, so those requests go to a server task.
func (v *VM) serveExport(t *sim.Task, req *rpc.Request) (any, sim.Time, error) {
	args, err := v.validateExportArgs(req)
	if err != nil {
		return nil, 0, err
	}
	if v.holdFaults {
		return nil, 0, ErrRecovering
	}
	if !v.lock(t) {
		return nil, 0, rpc.ErrQueue
	}
	pf := v.hash.get(args.LP)
	hit := pf != nil
	v.unlock(t)
	switch {
	case t == nil && (!hit || args.Writable && !pf.writable.has(args.Client) && !v.localFrame(pf.Frame)):
		return nil, 0, rpc.ErrQueue
	case !hit:
		res := v.resolvers[args.LP.Obj.Kind]
		if res == nil {
			return nil, 0, fmt.Errorf("%w: no resolver", ErrBadPage)
		}
		if pf, err = res.ResolvePage(t, args.LP, args.Writable); err != nil {
			return nil, 0, err
		}
	}
	v.lock(t) // at interrupt level the lock is still free
	cost, err := v.Export(t, pf, args.Client, args.Writable)
	v.unlock(t)
	if err != nil {
		return nil, 0, err
	}
	if t == nil {
		v.Metrics.Counter("vm.export_intr").Inc()
	}
	req.Result = rpc.Line{W: [3]int64{int64(pf.Frame)}}
	return nil, cost, nil
}

// serveRelease drops the requesting client's export reference. A
// revocation on a borrowed frame needs the memory home's firewall RPC, so
// at interrupt level it queues.
func (v *VM) serveRelease(t *sim.Task, req *rpc.Request) (any, sim.Time, error) {
	args, err := v.validateExportArgs(req)
	if err != nil {
		return nil, 0, err
	}
	if pf := v.hash.get(args.LP); t == nil && pf != nil && pf.writable.has(args.Client) && !v.localFrame(pf.Frame) {
		return nil, 0, rpc.ErrQueue
	}
	if !v.lock(t) {
		return nil, 0, rpc.ErrQueue
	}
	v.dropExport(t, args.LP, args.Client)
	v.unlock(t)
	return nil, MiscVMDataHome, nil
}

// serveFirewall changes a loaned frame's firewall for its borrower.
func (v *VM) serveFirewall(t *sim.Task, req *rpc.Request) (any, sim.Time, error) {
	args, err := v.validateFirewallArgs(req)
	if err != nil {
		return nil, 0, err
	}
	_, err = v.M.SetFirewall(t, v.proc(args.Frame), args.Frame, args.Bits)
	return nil, 0, err
}

// validateFirewallArgs vets a firewall-change request: the frame must
// exist and be this memory home's, and only the cell the frame is loaned
// to may direct its firewall — a corrupt cell must not open other cells'
// pages.
func (v *VM) validateFirewallArgs(req *rpc.Request) (*firewallArgs, error) {
	args, ok := req.Args.(*firewallArgs)
	if !ok {
		return nil, ErrBadPage
	}
	if !v.frameExists(args.Frame) || !v.localFrame(args.Frame) {
		return nil, fmt.Errorf("%w: frame %d not local", ErrBadPage, args.Frame)
	}
	pf := v.pfdat(args.Frame)
	if pf == nil || pf.LoanedTo != req.From {
		return nil, fmt.Errorf("%w: frame %d not loaned to cell %d",
			ErrBadPage, args.Frame, req.From)
	}
	return args, nil
}

// dropExport decrements a client's export reference and revokes its write
// access when the last reference goes away. t may be nil only when the
// revocation (if any) is local; no one then pays its cost (DESIGN §6).
func (v *VM) dropExport(t *sim.Task, lp LogicalPage, client int) {
	pf := v.hash.get(lp)
	if pf == nil || !pf.exports.has(client) {
		return
	}
	ref := exportRef{pf.Frame, client}
	if n := v.extraExports[ref]; n > 0 {
		if n == 1 {
			delete(v.extraExports, ref)
		} else {
			v.extraExports[ref] = n - 1
		}
		return
	}
	writable := pf.writable.has(client)
	v.forgetClients(pf, cellOf(client))
	if writable {
		// The owning cell always retains access.
		mask := v.M.Firewall(pf.Frame)&^v.clientMask(client) | v.homeMask(pf.Frame)
		//hive:lint-ignore errdrop revocation failure means the frame's memory home is unreachable; recovery rewrites every surviving firewall wholesale (§4.2)
		v.setFirewall(t, pf, mask)
	}
}

// forgetClients drops clients from pf's export and writable sets, with
// their export counts past one. It changes no firewall.
func (v *VM) forgetClients(pf *Pfdat, clients cellSet) {
	if len(v.extraExports) > 0 {
		for s := uint64(pf.exports & clients); s != 0; s &= s - 1 {
			delete(v.extraExports, exportRef{pf.Frame, bits.TrailingZeros64(s)})
		}
	}
	pf.exports &^= clients
	pf.writable &^= clients
}

// firewallArgs asks a memory home to change a loaned frame's firewall.
type firewallArgs struct {
	Frame machine.PageNum
	Bits  uint64
}
