package fs

import (
	"fmt"

	"repro/internal/rpc"
	"repro/internal/sim"
	"repro/internal/vm"
)

// Server-side RPC services. Every handler sanity-checks its arguments
// before touching local state, per the message-exchange discipline of §3.1.

// lookupArgs drives ProcLookup/ProcGetattr/ProcCreate. It travels by
// value in the request's line: the path, then the component.
type lookupArgs struct {
	Path      string
	Component int
}

// line encodes a as a request's by-value argument.
func (a lookupArgs) line() rpc.Line {
	return rpc.Line{Str: a.Path, W: [3]int64{int64(a.Component)}}
}

// openReply returns the file identity, generation, and size. It travels
// by value in the reply's line: ID, Gen and Size in its words.
type openReply struct {
	ID   FileID
	Gen  uint64
	Size int64
}

// line encodes r as a reply's by-value result.
func (r openReply) line() rpc.Line {
	return rpc.Line{W: [3]int64{int64(r.ID), int64(r.Gen), r.Size}}
}

// pageArgs drives ProcReadPage. It travels by value in the request's
// line: the file id, then the offset with the home in its top 16 bits,
// then the generation.
type pageArgs struct {
	Key Key
	Off int64
	Gen uint64
}

// pageOffBits is the width of the offset beside the home in pageArgs'
// second word.
const pageOffBits = 48

// line encodes a as a request's by-value argument. The offset keeps its
// sign in 48 bits, so a negative one decodes negative.
func (a pageArgs) line() rpc.Line {
	return rpc.Line{W: [3]int64{int64(a.Key.ID), int64(a.Key.Home)<<pageOffBits | a.Off&(1<<pageOffBits-1), int64(a.Gen)}}
}

// pageReply returns one page's content. It travels by value in the
// reply's line: the tag, then the corrupt bit.
type pageReply struct {
	Tag     uint64
	Corrupt bool
}

// line encodes r as a reply's by-value result.
func (r pageReply) line() rpc.Line {
	l := rpc.Line{W: [3]int64{int64(r.Tag)}}
	if r.Corrupt {
		l.W[1] = 1
	}
	return l
}

// writeArgs drives ProcWriteBulk.
type writeArgs struct {
	Key  Key
	Off  int64
	Gen  uint64
	Tags []uint64
}

// The validate* functions below are the trust boundary for remote file
// requests: every field a corrupt peer could forge (paths, keys,
// offsets, generations, tag counts) is vetted here before it selects or
// mutates local file state, per the paper's rule that a cell assumes
// its peers are faulty until proven otherwise.

// validateLookupArgs vets a lookup request: non-empty path homed at this
// cell.
func (f *FS) validateLookupArgs(arg rpc.Line) (lookupArgs, error) {
	if arg.Str == "" || len(arg.Str) > 4096 || f.homeFor(arg.Str) != f.CellID {
		return lookupArgs{}, ErrBadArgs
	}
	return lookupArgs{Path: arg.Str, Component: int(arg.W[0])}, nil
}

// validateGetattrArgs vets a getattr request, which names a file either
// by path or — with an empty path — by id in the Component field.
func (f *FS) validateGetattrArgs(arg rpc.Line) (lookupArgs, error) {
	if len(arg.Str) > 4096 || arg.W[0] < 0 {
		return lookupArgs{}, ErrBadArgs
	}
	return lookupArgs{Path: arg.Str, Component: int(arg.W[0])}, nil
}

// validateCreateArgs vets a create request: well-formed path, homed here.
func (f *FS) validateCreateArgs(arg rpc.Line) (lookupArgs, error) {
	if arg.Str == "" || len(arg.Str) > 4096 {
		return lookupArgs{}, ErrBadArgs
	}
	if f.homeFor(arg.Str) != f.CellID {
		return lookupArgs{}, fmt.Errorf("%w: %s not homed here", ErrBadArgs, arg.Str)
	}
	return lookupArgs{Path: arg.Str}, nil
}

// validatePageArgs decodes and vets a page-fetch request and resolves it
// to the local file it names: key homed here, sane offset, file present,
// generation current.
func (f *FS) validatePageArgs(arg rpc.Line) (pageArgs, *File, error) {
	args := pageArgs{
		Key: Key{Home: int(uint64(arg.W[1]) >> pageOffBits), ID: FileID(arg.W[0])},
		Off: arg.W[1] << (64 - pageOffBits) >> (64 - pageOffBits),
		Gen: uint64(arg.W[2]),
	}
	if args.Key.Home != f.CellID || args.Off < 0 {
		return pageArgs{}, nil, ErrBadArgs
	}
	file := f.files[args.Key.ID]
	if file == nil {
		return pageArgs{}, nil, ErrNotFound
	}
	if args.Gen != file.Gen {
		return pageArgs{}, nil, ErrStale
	}
	return args, file, nil
}

// validateWriteArgs vets a bulk-write request and resolves its target
// file, additionally bounding the tag payload a peer may push at us.
func (f *FS) validateWriteArgs(raw any) (*writeArgs, *File, error) {
	args, ok := raw.(*writeArgs)
	if !ok || args.Key.Home != f.CellID || args.Off < 0 || len(args.Tags) > 1024 {
		return nil, nil, ErrBadArgs
	}
	file := f.files[args.Key.ID]
	if file == nil {
		return nil, nil, ErrNotFound
	}
	if args.Gen != file.Gen {
		return nil, nil, ErrStale
	}
	return args, file, nil
}

func (f *FS) registerServices() {
	// Path lookup: interrupt-level (directory maps are in memory).
	f.EP.Register(ProcLookup, "fs.lookup",
		func(_ *sim.Task, req *rpc.Request) (any, sim.Time, error) {
			args, err := f.validateLookupArgs(req.Arg)
			if err != nil {
				return nil, 0, err
			}
			id, ok := f.byPath[args.Path]
			if !ok {
				return nil, LookupServer, fmt.Errorf("%w: %s", ErrNotFound, args.Path)
			}
			req.Result = openReply{ID: id, Gen: f.files[id].Gen}.line()
			return nil, LookupServer, nil
		}, rpc.Idempotent())

	f.EP.Register(ProcGetattr, "fs.getattr",
		func(_ *sim.Task, req *rpc.Request) (any, sim.Time, error) {
			args, err := f.validateGetattrArgs(req.Arg)
			if err != nil {
				return nil, 0, err
			}
			var file *File
			if args.Path == "" {
				// Getattr by file id (size queries on open handles).
				file = f.files[FileID(args.Component)]
			} else if id, ok := f.byPath[args.Path]; ok {
				file = f.files[id]
			}
			if file == nil {
				return nil, GetattrServer, ErrNotFound
			}
			req.Result = openReply{ID: file.ID, Gen: file.Gen, Size: file.SizePgs}.line()
			return nil, GetattrServer, nil
		}, rpc.Idempotent())

	f.EP.Register(ProcCreate, "fs.create",
		func(t *sim.Task, req *rpc.Request) (any, sim.Time, error) {
			args, err := f.validateCreateArgs(req.Arg)
			if err != nil {
				return nil, 0, err
			}
			f.proc().Use(t, LookupServer)
			file := f.createLocal(args.Path)
			req.Result = openReply{ID: file.ID, Gen: file.Gen}.line()
			return nil, 0, nil
		}, rpc.Queued())

	// Page fetch: the common case — a hit in the data-home page cache —
	// is serviced entirely at interrupt level (§4.3); recovery, a held
	// memory lock and a disk fill fall back to the queued path.
	f.EP.Register(ProcReadPage, "fs.readpage",
		func(t *sim.Task, req *rpc.Request) (any, sim.Time, error) {
			args, file, err := f.validatePageArgs(req.Arg)
			if err != nil {
				return nil, 0, err
			}
			switch {
			case t == nil && (f.VM.InRecovery() || f.VM.Lock.Locked()):
				return nil, 0, rpc.ErrQueue
			case f.VM.InRecovery():
				return nil, 0, vm.ErrRecovering
			}
			lp := lpFor(args.Key, args.Off)
			pf, ok := f.VM.Lookup(lp)
			if !ok {
				if t == nil {
					return nil, 0, rpc.ErrQueue
				}
				if pf, err = f.fillFromDisk(t, lp, file); err != nil {
					return nil, 0, err
				}
			}
			tag, corrupt := f.M.PageTag(pf.Frame)
			req.Result = pageReply{Tag: tag, Corrupt: corrupt}.line()
			return nil, vm.MiscVMDataHome, nil
		}, rpc.Idempotent())

	// Bulk write: queued (it allocates frames and may evict).
	f.EP.Register(ProcWriteBulk, "fs.writebulk",
		func(t *sim.Task, req *rpc.Request) (any, sim.Time, error) {
			args, file, err := f.validateWriteArgs(req.Args)
			if err != nil {
				return nil, 0, err
			}
			return nil, 0, f.writeLocal(t, file, args.Off, args.Tags)
		}, rpc.Queued())
}
