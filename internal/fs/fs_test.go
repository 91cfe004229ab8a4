package fs

import (
	"errors"
	"strings"
	"testing"

	"repro/internal/machine"
	"repro/internal/rpc"
	"repro/internal/sim"
	"repro/internal/vm"
)

type fixture struct {
	e   *sim.Engine
	m   *machine.Machine
	vms []*vm.VM
	fss []*FS
	eps []*rpc.Endpoint
}

// newFixture builds `cells` single-node cells with /tmp homed on the last.
func newFixture(t testing.TB, cells int) *fixture {
	t.Helper()
	e := sim.NewEngine(33)
	cfg := machine.DefaultConfig()
	cfg.Nodes = cells
	cfg.MemPerNodeMB = 8
	m := machine.New(e, cfg)
	f := &fixture{e: e, m: m}
	cellOfNode := make([]int, cells)
	for i := range cellOfNode {
		cellOfNode[i] = i
	}
	mounts := []Mount{{Prefix: "/tmp", Cell: cells - 1}}
	for c := 0; c < cells; c++ {
		ep := rpc.NewEndpoint(m, c, []*machine.Processor{m.Procs[c]}, 2)
		f.eps = append(f.eps, ep)
	}
	rpc.Connect(f.eps...)
	for c := 0; c < cells; c++ {
		v := vm.New(m, f.eps[c], c, []int{c}, cellOfNode, 16)
		f.vms = append(f.vms, v)
		f.fss = append(f.fss, New(m, f.eps[c], v, c, mounts, m.Nodes[c].Disk))
	}
	return f
}

func (f *fixture) run(t testing.TB, fn func(tk *sim.Task)) {
	t.Helper()
	f.e.Go("test", fn)
	f.e.Run(0)
}

func TestCreateWriteReadLocal(t *testing.T) {
	f := newFixture(t, 2)
	f.run(t, func(tk *sim.Task) {
		h, err := f.fss[0].Create(tk, "/home/a/data")
		if err != nil {
			t.Fatalf("create: %v", err)
		}
		if err := f.fss[0].Write(tk, h, 8, 99); err != nil {
			t.Fatalf("write: %v", err)
		}
		h.Pos = 0
		pages, err := f.fss[0].Read(tk, h, 8)
		if err != nil {
			t.Fatalf("read: %v", err)
		}
		for i, p := range pages {
			want := PageTag(h.Key, int64(i), 99)
			if p.Tag != want || p.Corrupt {
				t.Fatalf("page %d: tag=%x want=%x corrupt=%v", i, p.Tag, want, p.Corrupt)
			}
		}
	})
}

func TestRemoteCreateWriteRead(t *testing.T) {
	f := newFixture(t, 2)
	f.run(t, func(tk *sim.Task) {
		// /tmp is homed on cell 1; cell 0 is the client.
		h, err := f.fss[0].Create(tk, "/tmp/build.o")
		if err != nil {
			t.Fatalf("create: %v", err)
		}
		if h.Key.Home != 1 {
			t.Fatalf("home = %d", h.Key.Home)
		}
		if err := f.fss[0].Write(tk, h, 20, 7); err != nil {
			t.Fatalf("write: %v", err)
		}
		// Another client on the data home reads it back coherently —
		// the unified file buffer cache.
		h1, err := f.fss[1].Open(tk, "/tmp/build.o")
		if err != nil {
			t.Fatalf("open at home: %v", err)
		}
		pages, err := f.fss[1].Read(tk, h1, 20)
		if err != nil {
			t.Fatalf("read: %v", err)
		}
		for i, p := range pages {
			if want := PageTag(h.Key, int64(i), 7); p.Tag != want {
				t.Fatalf("page %d mismatch", i)
			}
		}
	})
}

func TestOpenLatencies(t *testing.T) {
	// Table 7.3: open 148 µs local, 580 µs remote (3.9×).
	f := newFixture(t, 2)
	var local, remote sim.Time
	f.run(t, func(tk *sim.Task) {
		if _, err := f.fss[0].Create(tk, "/home/u/f"); err != nil {
			t.Fatalf("create: %v", err)
		}
		if _, err := f.fss[0].Create(tk, "/tmp/u/f"); err != nil {
			t.Fatalf("create: %v", err)
		}
		start := tk.Now()
		if _, err := f.fss[0].Open(tk, "/home/u/f"); err != nil {
			t.Fatalf("open local: %v", err)
		}
		local = tk.Now() - start
		start = tk.Now()
		if _, err := f.fss[0].Open(tk, "/tmp/u/f"); err != nil {
			t.Fatalf("open remote: %v", err)
		}
		remote = tk.Now() - start
	})
	if us := local.Micros(); us < 130 || us > 170 {
		t.Errorf("local open = %.0f µs, want ≈148", us)
	}
	if us := remote.Micros(); us < 500 || us > 660 {
		t.Errorf("remote open = %.0f µs, want ≈580", us)
	}
	ratio := float64(remote) / float64(local)
	if ratio < 3.0 || ratio > 4.8 {
		t.Errorf("remote/local open ratio = %.1f, want ≈3.9", ratio)
	}
}

func TestReadLatency4MB(t *testing.T) {
	// Table 7.3: 4 MB read = 65 ms local, 76.2 ms remote (1.2×), with a
	// warm file cache.
	f := newFixture(t, 2)
	const npages = 1024 // 4 MB
	var local, remote sim.Time
	f.run(t, func(tk *sim.Task) {
		hl, _ := f.fss[1].Create(tk, "/data/local")
		if err := f.fss[1].Write(tk, hl, npages, 3); err != nil {
			t.Fatalf("write: %v", err)
		}
		hr, _ := f.fss[1].Create(tk, "/tmp/remote") // homed on cell 1 too
		if err := f.fss[1].Write(tk, hr, npages, 4); err != nil {
			t.Fatalf("write: %v", err)
		}

		hl.Pos = 0
		start := tk.Now()
		if _, err := f.fss[1].Read(tk, hl, npages); err != nil {
			t.Fatalf("local read: %v", err)
		}
		local = tk.Now() - start

		// Client on cell 0 reads the same (cache-warm) remote file.
		h0, err := f.fss[0].Open(tk, "/tmp/remote")
		if err != nil {
			t.Fatalf("open: %v", err)
		}
		start = tk.Now()
		if _, err := f.fss[0].Read(tk, h0, npages); err != nil {
			t.Fatalf("remote read: %v", err)
		}
		remote = tk.Now() - start
	})
	if ms := local.Millis(); ms < 60 || ms > 70 {
		t.Errorf("local 4MB read = %.1f ms, want ≈65", ms)
	}
	if ms := remote.Millis(); ms < 71 || ms > 82 {
		t.Errorf("remote 4MB read = %.1f ms, want ≈76.2", ms)
	}
}

func TestWriteLatency4MB(t *testing.T) {
	// Table 7.3: 4 MB write/extend = 83.7 ms local, 87.3 ms remote (1.1×).
	f := newFixture(t, 2)
	const npages = 1024
	var local, remote sim.Time
	f.run(t, func(tk *sim.Task) {
		hl, _ := f.fss[1].Create(tk, "/data/wlocal")
		start := tk.Now()
		if err := f.fss[1].Write(tk, hl, npages, 5); err != nil {
			t.Fatalf("local write: %v", err)
		}
		local = tk.Now() - start

		hr, err := f.fss[0].Create(tk, "/tmp/wremote")
		if err != nil {
			t.Fatalf("create: %v", err)
		}
		start = tk.Now()
		if err := f.fss[0].Write(tk, hr, npages, 6); err != nil {
			t.Fatalf("remote write: %v", err)
		}
		remote = tk.Now() - start
	})
	if ms := local.Millis(); ms < 78 || ms > 90 {
		t.Errorf("local 4MB write = %.1f ms, want ≈83.7", ms)
	}
	if ms := remote.Millis(); ms < 82 || ms > 95 {
		t.Errorf("remote 4MB write = %.1f ms, want ≈87.3", ms)
	}
	if ratio := float64(remote) / float64(local); ratio < 1.0 || ratio > 1.25 {
		t.Errorf("write ratio = %.2f, want ≈1.1", ratio)
	}
}

func TestGenerationBumpGivesEIOToOldHandles(t *testing.T) {
	// §4.2: a discarded dirty page bumps the file generation; handles
	// opened before the failure get EIO, later opens read disk data.
	f := newFixture(t, 2)
	f.run(t, func(tk *sim.Task) {
		h, _ := f.fss[1].Create(tk, "/tmp/precious")
		if err := f.fss[1].Write(tk, h, 4, 11); err != nil {
			t.Fatalf("write: %v", err)
		}
		f.fss[1].Sync(tk) // pages clean on disk
		if err := f.fss[1].Write(tk, h, 2, 12); err != nil {
			t.Fatalf("dirty write: %v", err)
		}
		// A dirty page is preemptively discarded (as recovery would).
		lp := vm.LogicalPage{Obj: vm.ObjID{Kind: vm.FileObj, Home: 1, Num: uint64(h.Key.ID)}, Off: 4}
		pf, ok := f.vms[1].Lookup(lp)
		if !ok || !pf.Dirty {
			t.Fatal("dirty page missing")
		}
		f.fss[1].bumpGeneration(lp)

		h.Pos = 0
		if _, err := f.fss[1].Read(tk, h, 1); !errors.Is(err, ErrStale) {
			t.Errorf("old handle read err = %v, want ErrStale", err)
		}
		if err := f.fss[1].Write(tk, h, 1, 13); !errors.Is(err, ErrStale) {
			t.Errorf("old handle write err = %v, want ErrStale", err)
		}
		// A fresh open succeeds and reads the stable (disk) data.
		h2, err := f.fss[1].Open(tk, "/tmp/precious")
		if err != nil {
			t.Fatalf("reopen: %v", err)
		}
		if _, err := f.fss[1].Read(tk, h2, 4); err != nil {
			t.Errorf("fresh handle read: %v", err)
		}
	})
}

func TestStaleGenerationAcrossRPC(t *testing.T) {
	f := newFixture(t, 2)
	f.run(t, func(tk *sim.Task) {
		h, _ := f.fss[0].Create(tk, "/tmp/r")
		if err := f.fss[0].Write(tk, h, 2, 9); err != nil {
			t.Fatalf("write: %v", err)
		}
		// Bump at the data home; the remote client's handle is stale.
		f.fss[1].bumpGeneration(vm.LogicalPage{
			Obj: vm.ObjID{Kind: vm.FileObj, Home: 1, Num: uint64(h.Key.ID)}})
		h.Pos = 0
		_, err := f.fss[0].Read(tk, h, 1)
		if err == nil || !strings.Contains(err.Error(), "stale") {
			t.Errorf("remote stale read err = %v", err)
		}
	})
}

func TestSyncWritesBack(t *testing.T) {
	f := newFixture(t, 1)
	f.run(t, func(tk *sim.Task) {
		h, _ := f.fss[0].Create(tk, "/a")
		f.fss[0].Write(tk, h, 5, 2)
		if n := f.fss[0].Sync(tk); n != 5 {
			t.Errorf("synced %d pages, want 5", n)
		}
		if n := f.fss[0].Sync(tk); n != 0 {
			t.Errorf("second sync wrote %d pages", n)
		}
		file := f.fss[0].files[h.Key.ID]
		for off := int64(0); off < 5; off++ {
			if file.onDisk[off] != PageTag(h.Key, off, 2) {
				t.Errorf("disk content wrong at %d", off)
			}
		}
	})
}

func TestColdReadFillsFromDisk(t *testing.T) {
	f := newFixture(t, 1)
	f.run(t, func(tk *sim.Task) {
		h, _ := f.fss[0].Create(tk, "/cold")
		f.fss[0].Write(tk, h, 3, 8)
		f.fss[0].Sync(tk)
		// Evict all pages to make the cache cold.
		for off := int64(0); off < 3; off++ {
			lp := vm.LogicalPage{Obj: vm.ObjID{Kind: vm.FileObj, Home: 0, Num: uint64(h.Key.ID)}, Off: off}
			f.vms[0].Evict(tk, lp)
		}
		h.Pos = 0
		pages, err := f.fss[0].Read(tk, h, 3)
		if err != nil {
			t.Fatalf("cold read: %v", err)
		}
		for i, p := range pages {
			if want := PageTag(h.Key, int64(i), 8); p.Tag != want {
				t.Fatalf("page %d wrong after disk fill", i)
			}
		}
		if f.fss[0].Metrics.Counter("fs.disk_reads").Value() != 3 {
			t.Error("disk reads not recorded")
		}
	})
}

func TestOpenNonexistent(t *testing.T) {
	f := newFixture(t, 2)
	f.run(t, func(tk *sim.Task) {
		if _, err := f.fss[0].Open(tk, "/nope"); !errors.Is(err, ErrNotFound) {
			t.Errorf("local err = %v", err)
		}
		_, err := f.fss[0].Open(tk, "/tmp/nope")
		if err == nil || !strings.Contains(err.Error(), "no such file") {
			t.Errorf("remote err = %v", err)
		}
	})
}

func TestCorruptPageObservedByReader(t *testing.T) {
	// A wild write that lands before detection is visible to readers —
	// the data-integrity window the paper's preemptive discard narrows.
	f := newFixture(t, 2)
	f.run(t, func(tk *sim.Task) {
		h, _ := f.fss[1].Create(tk, "/tmp/victim")
		f.fss[1].Write(tk, h, 1, 3)
		lp := vm.LogicalPage{Obj: vm.ObjID{Kind: vm.FileObj, Home: 1, Num: uint64(h.Key.ID)}}
		pf, _ := f.vms[1].Lookup(lp)
		f.m.MarkCorrupt(pf.Frame)
		h.Pos = 0
		pages, err := f.fss[1].Read(tk, h, 1)
		if err != nil {
			t.Fatalf("read: %v", err)
		}
		if !pages[0].Corrupt {
			t.Error("corruption not observable")
		}
	})
}

func TestPageTagDeterministicAndDistinct(t *testing.T) {
	k1 := Key{Home: 0, ID: 1}
	k2 := Key{Home: 1, ID: 1}
	if PageTag(k1, 0, 5) != PageTag(k1, 0, 5) {
		t.Error("tag not deterministic")
	}
	if PageTag(k1, 0, 5) == PageTag(k2, 0, 5) {
		t.Error("tags collide across homes")
	}
	if PageTag(k1, 0, 5) == PageTag(k1, 1, 5) {
		t.Error("tags collide across offsets")
	}
}

func TestComponentsCount(t *testing.T) {
	cases := map[string]int{"/a": 1, "/a/b/c": 3, "/": 1, "/tmp/x.o": 2,
		"": 1, "a": 1, "a/": 1, "//a//b/": 2, "/usr/include/h3.h": 3}
	for path, want := range cases {
		if got := components(path); got != want {
			t.Errorf("components(%q) = %d, want %d", path, got, want)
		}
	}
}

// statPath returns a task body that stats path from cell 0 n times and
// checks that it exists iff exists: pmake's probes of temp files.
func (f *fixture) statPath(t testing.TB, path string, exists bool, n int) func(tk *sim.Task) {
	return func(tk *sim.Task) {
		for i := 0; i < n; i++ {
			if ok, err := f.fss[0].Stat(tk, path); ok != exists || err != nil {
				t.Errorf("stat %d of %s: %v, %v; want %v", i, path, ok, err, exists)
				return
			}
		}
	}
}

// statMissing stats a missing /tmp path, on cell 1, n times.
func (f *fixture) statMissing(t testing.TB, n int) func(tk *sim.Task) {
	return f.statPath(t, "/tmp/cc5.s", false, n)
}

// TestRemoteStatAllocations checks that a warm Stat on another cell
// allocates nothing, whether the path exists or not: the request comes
// from the endpoint's freelist, the path travels in it by value, the
// attributes come back by value, and a "no such file" reply is the
// endpoint's last remote error again.
func TestRemoteStatAllocations(t *testing.T) {
	f := newFixture(t, 2)
	f.run(t, func(tk *sim.Task) {
		if _, err := f.fss[0].Create(tk, "/tmp/cc5.o"); err != nil {
			t.Fatalf("create: %v", err)
		}
	})
	for _, c := range []struct {
		path   string
		exists bool
	}{{"/tmp/cc5.s", false}, {"/tmp/cc5.o", true}} {
		f.run(t, f.statPath(t, c.path, c.exists, 5000))
		stat := f.statPath(t, c.path, c.exists, 1)
		var allocs float64
		f.run(t, func(tk *sim.Task) {
			allocs = testing.AllocsPerRun(2000, func() { stat(tk) })
		})
		if allocs > 0 {
			t.Errorf("a warm remote Stat of %s (exists: %v) allocates %v times, want 0", c.path, c.exists, allocs)
		}
	}
}

// TestPageArgsRoundTrip checks the page-fetch line: a request for a file
// homed here decodes to itself at offsets up to 2^47 - 1; a forged home,
// a negative offset, an unknown file and a stale generation are each
// rejected; and a reply decodes to itself unless its corrupt word is
// neither 0 nor 1.
func TestPageArgsRoundTrip(t *testing.T) {
	f := newFixture(t, 2)
	srv := f.fss[1]
	var h *Handle
	f.run(t, func(tk *sim.Task) {
		var err error
		if h, err = srv.Create(tk, "/tmp/pages"); err != nil {
			t.Fatalf("create: %v", err)
		}
	})
	for _, off := range []int64{0, 1, 1<<47 - 1} {
		want := pageArgs{Key: h.Key, Off: off, Gen: h.Gen}
		if got, file, err := srv.validatePageArgs(want.line()); err != nil || got != want || file.ID != h.Key.ID {
			t.Errorf("%+v decoded to %+v, %v", want, got, err)
		}
	}
	for _, c := range []struct {
		name string
		args pageArgs
		want error
	}{
		{"home 0", pageArgs{Key: Key{Home: 0, ID: h.Key.ID}, Gen: h.Gen}, ErrBadArgs},
		{"home 0xffff", pageArgs{Key: Key{Home: 0xffff, ID: h.Key.ID}, Gen: h.Gen}, ErrBadArgs},
		{"offset -1", pageArgs{Key: h.Key, Off: -1, Gen: h.Gen}, ErrBadArgs},
		{"offset -2^47", pageArgs{Key: h.Key, Off: -1 << 47, Gen: h.Gen}, ErrBadArgs},
		{"unknown file", pageArgs{Key: Key{Home: 1, ID: h.Key.ID + 1}, Gen: h.Gen}, ErrNotFound},
		{"stale generation", pageArgs{Key: h.Key, Gen: h.Gen + 1}, ErrStale},
	} {
		if _, _, err := srv.validatePageArgs(c.args.line()); !errors.Is(err, c.want) {
			t.Errorf("%s: err = %v, want %v", c.name, err, c.want)
		}
	}
	for _, want := range []pageReply{{Tag: 1<<64 - 1}, {Tag: 7, Corrupt: true}} {
		if got, err := validatePageReply(want.line()); err != nil || got != want {
			t.Errorf("reply %+v decoded to %+v, %v", want, got, err)
		}
	}
	for _, corrupt := range []int64{2, -1} {
		if _, err := validatePageReply(rpc.Line{W: [3]int64{7, corrupt}}); !errors.Is(err, ErrBadArgs) {
			t.Errorf("reply with corrupt word %d: err = %v, want ErrBadArgs", corrupt, err)
		}
	}
}

// TestRemotePageReadAllocations checks that a warm read of a page cached
// at its data home on another cell, through fs.readpage, allocates
// nothing: the request comes from the endpoint's freelist, the file id,
// offset, home and generation travel in it by value, and the tag comes
// back by value.
func TestRemotePageReadAllocations(t *testing.T) {
	f := newFixture(t, 2)
	var h *Handle
	f.run(t, func(tk *sim.Task) {
		var err error
		if h, err = f.fss[0].Create(tk, "/tmp/cc5.o"); err != nil {
			t.Fatalf("create: %v", err)
		}
		if err := f.fss[0].Write(tk, h, 1, 5); err != nil {
			t.Fatalf("write: %v", err)
		}
	})
	want := PageTag(h.Key, 0, 5)
	read := func(tk *sim.Task) {
		if pd, err := f.fss[0].readPage(tk, h, 0); pd.Tag != want || pd.Corrupt || err != nil {
			t.Errorf("remote page read: %+v, %v; want tag %#x", pd, err, want)
		}
	}
	var allocs float64
	f.run(t, func(tk *sim.Task) {
		for i := 0; i < 100; i++ {
			read(tk)
		}
		allocs = testing.AllocsPerRun(2000, func() { read(tk) })
	})
	if allocs > 0 {
		t.Errorf("a warm remote page read allocates %v times, want 0", allocs)
	}
	if got := f.fss[0].Metrics.Counter("fs.remote_page_fetches").Value(); got < 2000 {
		t.Errorf("%d remote page fetches, want every read to be one", got)
	}
}

// TestRemoteOpenAllocations checks that a remote Open, two lookups and a
// getattr, allocates only the Handle it returns, and so does a remote
// Create of an existing file: the results come back by value, by Call's
// return, not through a pointer that would move them to the heap.
func TestRemoteOpenAllocations(t *testing.T) {
	f := newFixture(t, 2)
	const path = "/tmp/cc5.o"
	for _, c := range []struct {
		name string
		op   func(tk *sim.Task) (*Handle, error)
	}{
		{"Create", func(tk *sim.Task) (*Handle, error) { return f.fss[0].Create(tk, path) }},
		{"Open", func(tk *sim.Task) (*Handle, error) { return f.fss[0].Open(tk, path) }},
	} {
		op := func(tk *sim.Task) {
			if _, err := c.op(tk); err != nil {
				t.Errorf("remote %s: %v", c.name, err)
			}
		}
		var allocs float64
		f.run(t, func(tk *sim.Task) {
			for i := 0; i < 100; i++ {
				op(tk)
			}
			allocs = testing.AllocsPerRun(1000, func() { op(tk) })
		})
		if allocs != 1 {
			t.Errorf("a remote %s allocates %v times, want 1 (its Handle)", c.name, allocs)
		}
	}
}

// BenchmarkRemoteStat measures a warm Stat of a missing path on another
// cell, the probe pmake makes most.
func BenchmarkRemoteStat(b *testing.B) {
	b.ReportAllocs()
	f := newFixture(b, 2)
	f.run(b, f.statMissing(b, 5000))
	b.ResetTimer()
	f.run(b, f.statMissing(b, b.N))
}
