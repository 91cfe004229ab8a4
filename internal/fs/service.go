package fs

import (
	"fmt"

	"repro/internal/rpc"
	"repro/internal/sim"
	"repro/internal/vm"
)

// Server-side RPC services. Every handler sanity-checks its arguments
// before touching local state, per the message-exchange discipline of §3.1.

// lookupArgs drives ProcLookup/ProcGetattr.
type lookupArgs struct {
	Path      string
	Component int
}

// createArgs drives ProcCreate.
type createArgs struct {
	Path string
}

// openReply returns the file identity, generation, and size.
type openReply struct {
	ID   FileID
	Gen  uint64
	Size int64
}

// pageArgs drives ProcReadPage.
type pageArgs struct {
	Key Key
	Off int64
	Gen uint64
}

// pageReply returns one page's content.
type pageReply struct {
	Tag     uint64
	Corrupt bool
}

// renameArgs drives ProcRename.
type renameArgs struct {
	Old, New string
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
func (f *FS) validateLookupArgs(raw any) (*lookupArgs, error) {
	args, ok := raw.(*lookupArgs)
	if !ok || args.Path == "" || len(args.Path) > 4096 {
		return nil, ErrBadArgs
	}
	if f.homeFor(args.Path) != f.CellID {
		return nil, ErrBadArgs
	}
	return args, nil
}

// validateGetattrArgs vets a getattr request, which names a file either
// by path or — with an empty path — by id in the Component field.
func (f *FS) validateGetattrArgs(raw any) (*lookupArgs, error) {
	args, ok := raw.(*lookupArgs)
	if !ok || len(args.Path) > 4096 || args.Component < 0 {
		return nil, ErrBadArgs
	}
	return args, nil
}

// validateRenameArgs vets a rename request: both paths well-formed and
// homed at this cell (cross-home renames are rejected at the client).
func (f *FS) validateRenameArgs(raw any) (*renameArgs, error) {
	args, ok := raw.(*renameArgs)
	if !ok || args.Old == "" || args.New == "" {
		return nil, ErrBadArgs
	}
	if f.homeFor(args.Old) != f.CellID || f.homeFor(args.New) != f.CellID {
		return nil, ErrBadArgs
	}
	return args, nil
}

// validateCreateArgs vets a create request: well-formed path, homed here.
func (f *FS) validateCreateArgs(raw any) (*createArgs, error) {
	args, ok := raw.(*createArgs)
	if !ok || args.Path == "" || len(args.Path) > 4096 {
		return nil, ErrBadArgs
	}
	if f.homeFor(args.Path) != f.CellID {
		return nil, fmt.Errorf("%w: %s not homed here", ErrBadArgs, args.Path)
	}
	return args, nil
}

// validatePageArgs vets a page-fetch request and resolves it to the
// local file it names: key homed here, sane offset, file present,
// generation current.
func (f *FS) validatePageArgs(raw any) (*pageArgs, *File, error) {
	args, ok := raw.(*pageArgs)
	if !ok || args.Key.Home != f.CellID || args.Off < 0 {
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
		func(req *rpc.Request) (any, sim.Time, bool, error) {
			args, err := f.validateLookupArgs(req.Args)
			if err != nil {
				return nil, 0, true, err
			}
			id, ok := f.byPath[args.Path]
			if !ok {
				return nil, LookupServer, true, fmt.Errorf("%w: %s", ErrNotFound, args.Path)
			}
			return &openReply{ID: id, Gen: f.files[id].Gen}, LookupServer, true, nil
		}, nil, rpc.Idempotent())

	f.EP.Register(ProcGetattr, "fs.getattr",
		func(req *rpc.Request) (any, sim.Time, bool, error) {
			args, err := f.validateGetattrArgs(req.Args)
			if err != nil {
				return nil, 0, true, err
			}
			if args.Path == "" {
				// Getattr by file id (size queries on open handles).
				file := f.files[FileID(args.Component)]
				if file == nil {
					return nil, GetattrServer, true, ErrNotFound
				}
				return &openReply{ID: file.ID, Gen: file.Gen, Size: file.SizePgs},
					GetattrServer, true, nil
			}
			id, ok := f.byPath[args.Path]
			if !ok {
				return nil, GetattrServer, true, ErrNotFound
			}
			file := f.files[id]
			return &openReply{ID: id, Gen: file.Gen, Size: file.SizePgs}, GetattrServer, true, nil
		}, nil, rpc.Idempotent())

	f.EP.Register(ProcRename, "fs.rename", nil,
		func(t *sim.Task, req *rpc.Request) (any, error) {
			args, err := f.validateRenameArgs(req.Args)
			if err != nil {
				return nil, err
			}
			return nil, f.Rename(t, args.Old, args.New)
		})

	f.EP.Register(ProcCreate, "fs.create", nil,
		func(t *sim.Task, req *rpc.Request) (any, error) {
			args, err := f.validateCreateArgs(req.Args)
			if err != nil {
				return nil, err
			}
			f.proc().Use(t, LookupServer)
			file := f.createLocal(args.Path)
			return &openReply{ID: file.ID, Gen: file.Gen}, nil
		})

	// Page fetch: the common case — a hit in the data-home page cache —
	// is serviced entirely at interrupt level (§4.3); disk fills fall
	// back to the queued path.
	f.EP.Register(ProcReadPage, "fs.readpage",
		func(req *rpc.Request) (any, sim.Time, bool, error) {
			args, _, err := f.validatePageArgs(req.Args)
			if err != nil {
				return nil, 0, true, err
			}
			if f.VM.InRecovery() || f.VM.Lock.Locked() {
				return nil, 0, false, nil
			}
			pf, ok := f.VM.Lookup(lpFor(args.Key, args.Off))
			if !ok {
				return nil, 0, false, nil // disk fill: queued path
			}
			tag, corrupt := f.M.PageTag(pf.Frame)
			return &pageReply{Tag: tag, Corrupt: corrupt}, vm.MiscVMDataHome, true, nil
		},
		func(t *sim.Task, req *rpc.Request) (any, error) {
			args, file, err := f.validatePageArgs(req.Args)
			if err != nil {
				return nil, err
			}
			if f.VM.InRecovery() {
				return nil, vm.ErrRecovering
			}
			pf, ok := f.VM.Lookup(lpFor(args.Key, args.Off))
			if !ok {
				pf, err = f.fillFromDisk(t, lpFor(args.Key, args.Off), file)
				if err != nil {
					return nil, err
				}
			}
			tag, corrupt := f.M.PageTag(pf.Frame)
			return &pageReply{Tag: tag, Corrupt: corrupt}, nil
		}, rpc.Idempotent())

	// Bulk write: queued (it allocates frames and may evict).
	f.EP.Register(ProcWriteBulk, "fs.writebulk", nil,
		func(t *sim.Task, req *rpc.Request) (any, error) {
			args, file, err := f.validateWriteArgs(req.Args)
			if err != nil {
				return nil, err
			}
			return nil, f.writeLocal(t, file, args.Off, args.Tags)
		})
}
