// Package disk models a disk drive in the style of the HP 97560 model the
// paper cites (Kotz, Toh, Radhakrishnan, Dartmouth PCS-TR94-20): a seek
// curve, rotational positioning, per-sector transfer, and FIFO queueing at
// the drive. SimOS modelled both DMA latency and controller occupancy; we
// fold controller occupancy into the per-request overhead.
package disk

import (
	"math"

	"repro/internal/sim"
)

// Config describes a drive.
type Config struct {
	Cylinders      int
	RPM            int
	SectorsPerTrk  int
	SectorBytes    int
	TracksPerCyl   int
	SeekAvgMs      float64 // published average seek
	SeekMaxMs      float64
	ControllerOvNs sim.Time // per-request controller + DMA setup overhead
}

// HP97560 returns the parameters of the HP 97560 drive (1.3 GB, 5400 RPM).
func HP97560() Config {
	return Config{
		Cylinders:      1962,
		RPM:            4002,
		SectorsPerTrk:  72,
		SectorBytes:    512,
		TracksPerCyl:   19,
		SeekAvgMs:      13.5,
		SeekMaxMs:      25.0,
		ControllerOvNs: 200_000, // 0.2 ms controller occupancy + DMA setup
	}
}

// Drive is one disk with a FIFO request queue in virtual time.
type Drive struct {
	cfg     Config
	eng     *sim.Engine
	busy    *sim.Mutex
	headCyl int

	// Stats
	Reads, Writes int64
	BusyTime      sim.Time
}

// New returns a drive on the given engine.
func New(e *sim.Engine, cfg Config) *Drive {
	return &Drive{cfg: cfg, eng: e, busy: &sim.Mutex{}}
}

// rotationNs returns the time for one full revolution.
func (d *Drive) rotationNs() sim.Time {
	return sim.Time(60.0 / float64(d.cfg.RPM) * 1e9)
}

// seekNs models the seek curve: a short constant settle plus a square-root
// distance term calibrated so a one-third-stroke seek matches SeekAvgMs.
func (d *Drive) seekNs(from, to int) sim.Time {
	dist := to - from
	if dist < 0 {
		dist = -dist
	}
	if dist == 0 {
		return 0
	}
	settle := 2.0 // ms
	third := float64(d.cfg.Cylinders) / 3
	k := (d.cfg.SeekAvgMs - settle) / math.Sqrt(third)
	ms := settle + k*math.Sqrt(float64(dist))
	if ms > d.cfg.SeekMaxMs {
		ms = d.cfg.SeekMaxMs
	}
	return sim.Time(ms * 1e6)
}

// transferNs returns the media transfer time for n bytes.
func (d *Drive) transferNs(n int) sim.Time {
	perSector := d.rotationNs() / sim.Time(d.cfg.SectorsPerTrk)
	sectors := (n + d.cfg.SectorBytes - 1) / d.cfg.SectorBytes
	if sectors == 0 {
		sectors = 1
	}
	return perSector * sim.Time(sectors)
}

// access performs one I/O of n bytes at byte offset off, blocking task t for
// queueing plus mechanical latency.
func (d *Drive) access(t *sim.Task, off int64, n int, write bool) {
	d.busy.Lock(t)
	start := t.Now()

	bytesPerCyl := int64(d.cfg.TracksPerCyl) * int64(d.cfg.SectorsPerTrk) * int64(d.cfg.SectorBytes)
	cyl := int(off / bytesPerCyl)
	if cyl >= d.cfg.Cylinders {
		cyl = cyl % d.cfg.Cylinders
	}

	lat := d.cfg.ControllerOvNs
	lat += d.seekNs(d.headCyl, cyl)
	// Rotational delay: uniformly distributed over one revolution.
	lat += sim.Time(d.eng.Rand().Int63n(int64(d.rotationNs())))
	lat += d.transferNs(n)
	d.headCyl = cyl

	t.Sleep(lat)
	d.BusyTime += t.Now() - start
	if write {
		d.Writes++
	} else {
		d.Reads++
	}
	d.busy.Unlock(t)
}

// Read blocks t for the latency of reading n bytes at offset off.
func (d *Drive) Read(t *sim.Task, off int64, n int) { d.access(t, off, n, false) }

// Write blocks t for the latency of writing n bytes at offset off.
func (d *Drive) Write(t *sim.Task, off int64, n int) { d.access(t, off, n, true) }
