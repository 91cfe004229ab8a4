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
func newFixture(t *testing.T, cells int) *fixture {
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

func (f *fixture) run(t *testing.T, fn func(tk *sim.Task)) {
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
	cases := map[string]int{"/a": 1, "/a/b/c": 3, "/": 1, "/tmp/x.o": 2}
	for path, want := range cases {
		if got := components(path); got != want {
			t.Errorf("components(%q) = %d, want %d", path, got, want)
		}
	}
}

func TestRenameLocalAndRemote(t *testing.T) {
	f := newFixture(t, 2)
	f.run(t, func(tk *sim.Task) {
		f.fss[0].Create(tk, "/a/old")
		if err := f.fss[0].Rename(tk, "/a/old", "/a/new"); err != nil {
			t.Fatalf("rename: %v", err)
		}
		if _, err := f.fss[0].Open(tk, "/a/old"); err == nil {
			t.Error("old name still resolves")
		}
		if _, err := f.fss[0].Open(tk, "/a/new"); err != nil {
			t.Errorf("new name: %v", err)
		}
		// Remote rename within /tmp (cell 1).
		f.fss[0].Create(tk, "/tmp/r1")
		if err := f.fss[0].Rename(tk, "/tmp/r1", "/tmp/r2"); err != nil {
			t.Fatalf("remote rename: %v", err)
		}
		if _, err := f.fss[0].Open(tk, "/tmp/r2"); err != nil {
			t.Errorf("remote new name: %v", err)
		}
		// Cross-home renames are refused.
		if err := f.fss[0].Rename(tk, "/a/new", "/tmp/x"); err == nil {
			t.Error("cross-home rename accepted")
		}
	})
}
