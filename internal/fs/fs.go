// Package fs implements Hive's file system layer: vnodes and client-side
// shadow vnodes (§5.2), a shared name space distributed over data-home
// cells, the page-cache service behind the unified file buffer cache, and
// the stable-write generation numbers that record data loss when dirty
// pages are preemptively discarded after a cell failure (§4.2).
//
// File contents are modelled as one content tag per page (a checksum
// surrogate kept in the machine's page state); the fault-injection
// campaign's output-file comparison checks these tags.
package fs

import (
	"errors"
	"fmt"
	"sort"
	"strings"

	"repro/internal/disk"
	"repro/internal/machine"
	"repro/internal/rpc"
	"repro/internal/sim"
	"repro/internal/stats"
	"repro/internal/vm"
)

// PageSize is the file page size in bytes (matches the firewall granularity).
const PageSize = 4096

// Cost components (ns) calibrated to Table 7.3: open 148 µs local / 580 µs
// remote (3.9×), 4 MB read 65 ms local / 76.2 ms remote (1.2×), 4 MB
// write/extend 83.7 ms local / 87.3 ms remote (1.1×). Composition is
// documented in DESIGN.md §4.
const (
	OpenBase        sim.Time = 40 * sim.Microsecond  // fd allocation, credential checks
	LookupLocal     sim.Time = 36 * sim.Microsecond  // per-component directory lookup
	LookupServer    sim.Time = 74 * sim.Microsecond  // server-side remote lookup work
	GetattrServer   sim.Time = 74 * sim.Microsecond  // server-side attribute fetch
	ChunkOverhead   sim.Time = 120 * sim.Microsecond // per-64KB read/write syscall work
	CopyPerPageRead sim.Time = 56 * sim.Microsecond  // copyout of one page to the user buffer
	CopyPerPageWr   sim.Time = 74200                 // copyin + allocation + dirty marking per page
	ImportLight     sim.Time = 1300                  // client binding for a served remote page
	RemoteWritePage sim.Time = 1400                  // per-page remote delayed-write token work
	ChunkPages      int      = 16                    // pages per read/write chunk (64 KB)
)

// Errors.
var (
	// ErrNotFound means the path does not resolve.
	ErrNotFound = errors.New("fs: no such file")
	// ErrStale is the EIO given to processes whose descriptor predates a
	// generation bump — they may have observed the lost dirty data (§4.2).
	ErrStale = errors.New("fs: stale file generation (EIO)")
	// ErrBadArgs is a server-side sanity-check rejection.
	ErrBadArgs = errors.New("fs: bad request arguments")
)

// RPC procedure numbers (range 120-139). The values are explicit: trace
// events record them, so a deleted procedure must not renumber the rest.
const (
	ProcLookup    rpc.ProcID = 120 // path component lookup
	ProcGetattr   rpc.ProcID = 121 // attribute fetch at open
	ProcCreate    rpc.ProcID = 122 // create a file at its data home
	ProcReadPage  rpc.ProcID = 123 // fetch one page (interrupt-level fast path)
	ProcWriteBulk rpc.ProcID = 125 // write a chunk of page tags
	ProcRename    rpc.ProcID = 127 // rename within a data home
)

// FileID numbers files within one data home.
type FileID uint64

// Key globally identifies a file.
type Key struct {
	Home int
	ID   FileID
}

// File is the data-home record of one file (the "vnode" of §5.1).
type File struct {
	ID       FileID
	Path     string
	SizePgs  int64
	Gen      uint64 // generation number (§4.2)
	diskBase int64
	onDisk   map[int64]uint64 // page offset -> tag on stable storage
}

// Handle is an open file descriptor. Gen is copied at open time; a
// mismatch with the file's current generation yields ErrStale (§4.2).
type Handle struct {
	Key  Key
	Gen  uint64
	Pos  int64 // page position for sequential I/O
	fs   *FS
	open bool
}

// Mount maps a path prefix to the cell serving it (e.g. /tmp on cell 2).
type Mount struct {
	Prefix string
	Cell   int
}

// FS is one cell's file system instance.
type FS struct {
	CellID int
	M      *machine.Machine
	EP     *rpc.Endpoint
	VM     *vm.VM
	Disk   *disk.Drive
	Mounts []Mount

	files    map[FileID]*File
	byPath   map[string]FileID
	nextID   FileID
	nextDisk int64

	Metrics *stats.Registry
}

// New creates the FS for a cell and registers it as the VM's file-page
// resolver and generation-bump sink.
func New(m *machine.Machine, ep *rpc.Endpoint, v *vm.VM, cellID int, mounts []Mount, d *disk.Drive) *FS {
	f := &FS{
		CellID: cellID, M: m, EP: ep, VM: v, Disk: d, Mounts: mounts,
		files:   make(map[FileID]*File),
		byPath:  make(map[string]FileID),
		nextID:  1,
		Metrics: stats.NewRegistry(),
	}
	v.SetResolver(vm.FileObj, f)
	v.OnDiscardDirty = f.bumpGeneration
	f.registerServices()
	return f
}

// homeFor resolves the data-home cell for a path by longest mount prefix;
// paths with no mount are served locally.
func (f *FS) homeFor(path string) int {
	best, cell := -1, f.CellID
	for _, m := range f.Mounts {
		if strings.HasPrefix(path, m.Prefix) && len(m.Prefix) > best {
			best, cell = len(m.Prefix), m.Cell
		}
	}
	return cell
}

// components counts path components for lookup cost accounting.
func components(path string) int {
	n := 0
	for _, c := range strings.Split(path, "/") {
		if c != "" {
			n++
		}
	}
	if n == 0 {
		n = 1
	}
	return n
}

// lpFor builds the logical page id for a file page.
func lpFor(key Key, off int64) vm.LogicalPage {
	return vm.LogicalPage{Obj: vm.ObjID{Kind: vm.FileObj, Home: key.Home, Num: uint64(key.ID)}, Off: off}
}

// KeyOf extracts the file key from a file logical page.
func KeyOf(lp vm.LogicalPage) Key {
	return Key{Home: lp.Obj.Home, ID: FileID(lp.Obj.Num)}
}

// proc returns a live processor for FS work.
func (f *FS) proc() *machine.Processor {
	for _, p := range f.EP.Procs {
		if !p.Halted() {
			return p
		}
	}
	return f.EP.Procs[0]
}

// validateOpenReply sanity-checks an open/create/lookup reply from a
// remote data home as the careful-message discipline requires. The id
// and generation are opaque tokens only the data home can interpret —
// the generation check on every later page operation is what catches a
// forged or stale id — so shape and a non-negative size are what a
// client can vet here.
func validateOpenReply(res any) (*openReply, error) {
	rep, ok := res.(*openReply)
	if !ok || rep.Size < 0 {
		return nil, ErrBadArgs
	}
	return rep, nil
}

// validatePageReply vets a page-fetch reply: shape only — the tag is
// content, and readers compare it against their expected seed.
func validatePageReply(res any) (*pageReply, error) {
	rep, ok := res.(*pageReply)
	if !ok {
		return nil, ErrBadArgs
	}
	return rep, nil
}

// Create makes a new empty file and returns an open handle to it.
func (f *FS) Create(t *sim.Task, path string) (*Handle, error) {
	home := f.homeFor(path)
	f.proc().Use(t, OpenBase+sim.Time(components(path))*LookupLocal)
	if home == f.CellID {
		file := f.createLocal(path)
		f.Metrics.Counter("fs.creates").Inc()
		return &Handle{Key: Key{Home: home, ID: file.ID}, Gen: file.Gen, fs: f, open: true}, nil
	}
	res, err := f.EP.Call(t, f.proc(), home, ProcCreate, &createArgs{Path: path},
		rpc.CallOpts{DataBytes: len(path)})
	if err != nil {
		return nil, err
	}
	rep, err := validateOpenReply(res)
	if err != nil {
		return nil, err
	}
	return &Handle{Key: Key{Home: home, ID: rep.ID}, Gen: rep.Gen, fs: f, open: true}, nil
}

func (f *FS) createLocal(path string) *File {
	if id, ok := f.byPath[path]; ok {
		file := f.files[id]
		file.SizePgs = 0
		file.onDisk = make(map[int64]uint64)
		return file
	}
	file := &File{
		ID: f.nextID, Path: path,
		diskBase: f.nextDisk,
		onDisk:   make(map[int64]uint64),
	}
	f.nextID++
	f.nextDisk += 16 << 20 // 16 MB extents keep files apart on disk
	f.files[file.ID] = file
	f.byPath[path] = file.ID
	return file
}

// Open resolves path and returns a handle carrying the file's current
// generation number. Local opens cost 148 µs; remote opens pay per-
// component lookup RPCs plus a getattr RPC (≈580 µs) — Table 7.3.
func (f *FS) Open(t *sim.Task, path string) (*Handle, error) {
	home := f.homeFor(path)
	ncomp := components(path)
	f.proc().Use(t, OpenBase)
	if home == f.CellID {
		f.proc().Use(t, sim.Time(ncomp)*LookupLocal)
		id, ok := f.byPath[path]
		if !ok {
			return nil, fmt.Errorf("%w: %s", ErrNotFound, path)
		}
		f.Metrics.Counter("fs.opens_local").Inc()
		return &Handle{Key: Key{Home: home, ID: id}, Gen: f.files[id].Gen, fs: f, open: true}, nil
	}
	// Remote: VOP_LOOKUP per component through the shadow vnode, then a
	// getattr to fill it in.
	var rep *openReply
	for i := 1; i <= ncomp; i++ {
		f.proc().Use(t, LookupLocal)
		res, err := f.EP.Call(t, f.proc(), home, ProcLookup,
			&lookupArgs{Path: path, Component: i}, rpc.CallOpts{DataBytes: len(path)})
		if err != nil {
			return nil, err
		}
		rep, err = validateOpenReply(res)
		if err != nil {
			return nil, err
		}
	}
	if _, err := f.EP.Call(t, f.proc(), home, ProcGetattr,
		&lookupArgs{Path: path}, rpc.CallOpts{DataBytes: 64}); err != nil {
		return nil, err
	}
	f.Metrics.Counter("fs.opens_remote").Inc()
	return &Handle{Key: Key{Home: home, ID: rep.ID}, Gen: rep.Gen, fs: f, open: true}, nil
}

// Rename moves a file within its data home (cross-home renames would be a
// copy; the paper's name-space work left that for the fault-tolerant FS).
func (f *FS) Rename(t *sim.Task, oldPath, newPath string) error {
	home := f.homeFor(oldPath)
	if f.homeFor(newPath) != home {
		return fmt.Errorf("%w: rename across data homes", ErrBadArgs)
	}
	if home == f.CellID {
		f.proc().Use(t, sim.Time(components(oldPath)+components(newPath))*LookupLocal)
		id, ok := f.byPath[oldPath]
		if !ok {
			return ErrNotFound
		}
		if victim, exists := f.byPath[newPath]; exists {
			delete(f.files, victim)
		}
		delete(f.byPath, oldPath)
		f.byPath[newPath] = id
		f.files[id].Path = newPath
		return nil
	}
	_, err := f.EP.Call(t, f.proc(), home, ProcRename,
		&renameArgs{Old: oldPath, New: newPath}, rpc.CallOpts{DataBytes: len(oldPath) + len(newPath)})
	return err
}

// Stat resolves a path and returns whether it exists — the namespace
// probe (header search paths, make dependency checks) that dominates
// compilation workloads' kernel traffic. Local stats are a directory
// lookup; remote ones cost one getattr RPC.
func (f *FS) Stat(t *sim.Task, path string) (bool, error) {
	home := f.homeFor(path)
	if home == f.CellID {
		f.proc().Use(t, sim.Time(components(path))*LookupLocal)
		_, ok := f.byPath[path]
		return ok, nil
	}
	f.proc().Use(t, LookupLocal)
	_, err := f.EP.Call(t, f.proc(), home, ProcGetattr,
		&lookupArgs{Path: path}, rpc.CallOpts{DataBytes: len(path)})
	if err != nil {
		if strings.Contains(err.Error(), "no such file") {
			return false, nil
		}
		return false, err
	}
	return true, nil
}

// Close drops the handle.
func (f *FS) Close(t *sim.Task, h *Handle) { h.open = false }

// PageData is one page of file content as observed by a reader.
type PageData struct {
	Tag     uint64
	Corrupt bool
}

// Read reads npages sequential pages through h, returning the observed
// content. It reproduces the Table 7.3 read path: chunked syscalls, page
// cache lookups, per-page copyout, and for remote files one interrupt-level
// page-fetch RPC per missed page.
func (f *FS) Read(t *sim.Task, h *Handle, npages int) ([]PageData, error) {
	if !h.open {
		return nil, ErrBadArgs
	}
	out := make([]PageData, 0, npages)
	for done := 0; done < npages; {
		n := ChunkPages
		if rem := npages - done; rem < n {
			n = rem
		}
		f.proc().Use(t, ChunkOverhead)
		for i := 0; i < n; i++ {
			pd, err := f.readPage(t, h, h.Pos)
			if err != nil {
				return out, err
			}
			out = append(out, pd)
			h.Pos++
		}
		done += n
	}
	f.Metrics.Counter("fs.pages_read").Add(int64(len(out)))
	return out, nil
}

// readPage obtains one page of h at offset off.
func (f *FS) readPage(t *sim.Task, h *Handle, off int64) (PageData, error) {
	lp := lpFor(h.Key, off)
	if h.Key.Home == f.CellID {
		file := f.files[h.Key.ID]
		if file == nil {
			return PageData{}, ErrNotFound
		}
		if h.Gen != file.Gen {
			return PageData{}, ErrStale
		}
		pf, ok := f.VM.Lookup(lp)
		if !ok {
			var err error
			pf, err = f.fillFromDisk(t, lp, file)
			if err != nil {
				return PageData{}, err
			}
		}
		f.proc().Use(t, CopyPerPageRead)
		tag, corrupt, err := f.M.ReadPage(t, f.proc(), pf.Frame)
		if err != nil {
			return PageData{}, err
		}
		return PageData{Tag: tag, Corrupt: corrupt}, nil
	}
	// Remote file: if the page is cached locally (mapped via an import),
	// use it; otherwise one page-fetch RPC to the data home.
	if pf, ok := f.VM.Lookup(lp); ok {
		f.proc().Use(t, CopyPerPageRead)
		tag, corrupt, err := f.M.ReadPage(t, f.proc(), pf.Frame)
		if err != nil {
			return PageData{}, err
		}
		return PageData{Tag: tag, Corrupt: corrupt}, nil
	}
	res, err := f.EP.Call(t, f.proc(), h.Key.Home, ProcReadPage,
		&pageArgs{Key: h.Key, Off: off, Gen: h.Gen}, rpc.CallOpts{DataBytes: 64})
	if err != nil {
		return PageData{}, err
	}
	rep, err := validatePageReply(res)
	if err != nil {
		return PageData{}, err
	}
	f.proc().Use(t, ImportLight+CopyPerPageRead)
	f.Metrics.Counter("fs.remote_page_fetches").Inc()
	return PageData{Tag: rep.Tag, Corrupt: rep.Corrupt}, nil
}

// Write appends/overwrites npages sequential pages through h with content
// derived from seed. Remote writes ship chunks of tags to the data home —
// one queued RPC per 16-page chunk plus a small per-page token cost,
// reproducing Table 7.3's 1.1× write ratio.
func (f *FS) Write(t *sim.Task, h *Handle, npages int, seed uint64) error {
	if !h.open {
		return ErrBadArgs
	}
	for done := 0; done < npages; {
		n := ChunkPages
		if rem := npages - done; rem < n {
			n = rem
		}
		f.proc().Use(t, ChunkOverhead)
		tags := make([]uint64, n)
		for i := range tags {
			tags[i] = PageTag(h.Key, h.Pos+int64(i), seed)
			f.proc().Use(t, CopyPerPageWr)
		}
		if h.Key.Home == f.CellID {
			file := f.files[h.Key.ID]
			if file == nil {
				return ErrNotFound
			}
			if h.Gen != file.Gen {
				return ErrStale
			}
			if err := f.writeLocal(t, file, h.Pos, tags); err != nil {
				return err
			}
		} else {
			f.proc().Use(t, sim.Time(n)*RemoteWritePage)
			_, err := f.EP.Call(t, f.proc(), h.Key.Home, ProcWriteBulk,
				&writeArgs{Key: h.Key, Off: h.Pos, Gen: h.Gen, Tags: tags},
				rpc.CallOpts{DataBytes: 256})
			if err != nil {
				return err
			}
		}
		h.Pos += int64(n)
		done += n
	}
	f.Metrics.Counter("fs.pages_written").Add(int64(npages))
	return nil
}

// writeLocal stores tags into the data home's page cache, marking dirty.
func (f *FS) writeLocal(t *sim.Task, file *File, off int64, tags []uint64) error {
	for i, tag := range tags {
		o := off + int64(i)
		lp := lpFor(Key{Home: f.CellID, ID: file.ID}, o)
		pf, ok := f.VM.Lookup(lp)
		if !ok {
			frame, err := f.VM.AllocFrame(t, vm.AllocOpts{})
			if err != nil {
				return err
			}
			pf = f.VM.InsertLocal(lp, frame, false)
		}
		if err := f.M.WritePage(t, f.proc(), pf.Frame, tag); err != nil {
			return err
		}
		pf.Dirty = true
		if o >= file.SizePgs {
			file.SizePgs = o + 1
		}
	}
	return nil
}

// fillFromDisk materializes a page in the cache: from disk when it has
// stable backing, zero-filled (no I/O) when it is a hole or lies beyond
// the end of the file (fresh extends and temp-file mappings).
func (f *FS) fillFromDisk(t *sim.Task, lp vm.LogicalPage, file *File) (*vm.Pfdat, error) {
	frame, err := f.VM.AllocFrame(t, vm.AllocOpts{})
	if err != nil {
		return nil, err
	}
	tag, stable := file.onDisk[lp.Off]
	if stable {
		f.Disk.Read(t, file.diskBase+lp.Off*PageSize, PageSize)
		f.Metrics.Counter("fs.disk_reads").Inc()
	}
	if err := f.M.WritePage(t, f.proc(), frame, tag); err != nil {
		return nil, err
	}
	if lp.Off >= file.SizePgs {
		file.SizePgs = lp.Off + 1
	}
	return f.VM.InsertLocal(lp, frame, false), nil
}

// Sync writes back every dirty locally-homed page (the update daemon),
// in file-ID order so disk traffic is deterministic.
func (f *FS) Sync(t *sim.Task) int {
	n := 0
	ids := make([]FileID, 0, len(f.files))
	for id := range f.files {
		ids = append(ids, id)
	}
	sort.SliceStable(ids, func(i, j int) bool { return ids[i] < ids[j] })
	for _, id := range ids {
		file := f.files[id]
		for off := int64(0); off < file.SizePgs; off++ {
			lp := lpFor(Key{Home: f.CellID, ID: id}, off)
			pf, ok := f.VM.Lookup(lp)
			if !ok || !pf.Dirty {
				continue
			}
			tag, _ := f.M.PageTag(pf.Frame)
			f.Disk.Write(t, file.diskBase+off*PageSize, PageSize)
			file.onDisk[off] = tag
			pf.Dirty = false
			n++
		}
	}
	f.Metrics.Counter("fs.pages_synced").Add(int64(n))
	return n
}

// WritebackPage persists one dirty page of a locally-homed file (the
// clock hand's pre-eviction writeback). It reports whether the page is now
// stable.
func (f *FS) WritebackPage(t *sim.Task, lp vm.LogicalPage) bool {
	if lp.Obj.Kind != vm.FileObj || lp.Obj.Home != f.CellID {
		return false // anonymous/remote pages are not ours to stabilize
	}
	file := f.files[FileID(lp.Obj.Num)]
	if file == nil {
		return false
	}
	pf, ok := f.VM.Lookup(lp)
	if !ok {
		return false
	}
	tag, _ := f.M.PageTag(pf.Frame)
	f.Disk.Write(t, file.diskBase+lp.Off*PageSize, PageSize)
	file.onDisk[lp.Off] = tag
	pf.Dirty = false
	f.Metrics.Counter("fs.pages_synced").Inc()
	return true
}

// bumpGeneration records the loss of a discarded dirty page (§4.2): the
// file is the unit of data loss, so its generation number increments and
// every pre-failure descriptor goes stale.
func (f *FS) bumpGeneration(lp vm.LogicalPage) {
	if lp.Obj.Kind != vm.FileObj || lp.Obj.Home != f.CellID {
		return
	}
	if file := f.files[FileID(lp.Obj.Num)]; file != nil {
		file.Gen++
		f.Metrics.Counter("fs.generation_bumps").Inc()
	}
}

// Generation returns a file's current generation (tests/diagnostics).
func (f *FS) Generation(id FileID) (uint64, bool) {
	if file := f.files[id]; file != nil {
		return file.Gen, true
	}
	return 0, false
}

// PageTag derives the canonical content tag for page off of a file written
// with the given seed; workloads use it to verify output integrity.
func PageTag(key Key, off int64, seed uint64) uint64 {
	x := uint64(key.Home)<<56 ^ uint64(key.ID)<<32 ^ uint64(off) ^ seed*0x9e3779b97f4a7c15
	x ^= x >> 29
	x *= 0xbf58476d1ce4e5b9
	x ^= x >> 32
	if x == 0 {
		x = 1
	}
	return x
}

// ResolvePage implements vm.Resolver for file pages: the data home fills
// from disk; clients import from the data home (§5.2).
func (f *FS) ResolvePage(t *sim.Task, lp vm.LogicalPage, write bool) (*vm.Pfdat, error) {
	key := KeyOf(lp)
	if key.Home == f.CellID {
		file := f.files[key.ID]
		if file == nil {
			return nil, ErrNotFound
		}
		if pf, ok := f.VM.Lookup(lp); ok {
			return pf, nil
		}
		return f.fillFromDisk(t, lp, file)
	}
	f.proc().Use(t, vm.FSClientCost)
	return f.VM.ImportRemote(t, lp, write)
}
