package workload

import (
	"fmt"
	"math/rand"

	"repro/internal/core"
	"repro/internal/cow"
	"repro/internal/kmem"
	"repro/internal/proc"
	"repro/internal/sim"
	"repro/internal/stats"
	"repro/internal/trace"
)

// FrontendConfig parameterizes the multi-tenant compute-server frontend:
// an open-loop client population (10⁵–10⁶ simulated users) issuing short
// jobs at a Poisson rate in virtual time, skewed across tenants by a Zipf
// mix and ramped through a configurable burst window. Arrivals are open
// loop — clients do not wait for earlier requests before issuing new ones
// — so queueing delay shows up as latency, not as a reduced offered rate,
// which is what makes the SLO tail meaningful under overload and faults.
type FrontendConfig struct {
	Users   int     // simulated user population (job attribution only)
	Tenants int     // tenant count; each tenant has a home cell and shared state
	ZipfS   float64 // Zipf skew exponent (>1); <=1 or 1 tenant = uniform mix

	RatePerSec int      // aggregate offered arrival rate, jobs per virtual second
	Duration   sim.Time // arrival window length

	BurstAt     sim.Time // burst window start (offset from run start; 0 = none)
	BurstLen    sim.Time // burst window length
	BurstFactor float64  // arrival-rate multiplier inside the window

	JobCPU         sim.Time // per-job compute
	JobSharedPages int      // tenant-state pages mapped per job
	JobAnonPages   int      // private anonymous pages touched per job

	SLOTarget   sim.Time // latency target; completions within it count as goodput
	MaxInFlight int      // per-dispatcher admission cap; arrivals beyond it shed
	SpanSample  int      // trace one per-tenant span every N issued jobs (0 = off)

	Seed uint64
}

// DefaultFrontend returns the calibrated configuration: half a million
// users across 64 tenants, ~2.6k jobs over a 3 s window with a 2.5×
// mid-run burst — heavy enough to make Wax's balancing measurable, light
// enough that one run stays inside a campaign trial's time budget.
func DefaultFrontend() FrontendConfig {
	return FrontendConfig{
		Users:          500_000,
		Tenants:        64,
		ZipfS:          1.2,
		RatePerSec:     700,
		Duration:       3 * sim.Second,
		BurstAt:        1 * sim.Second,
		BurstLen:       800 * sim.Millisecond,
		BurstFactor:    2.5,
		JobCPU:         300 * sim.Microsecond,
		JobSharedPages: 4,
		JobAnonPages:   8,
		SLOTarget:      20 * sim.Millisecond,
		MaxInFlight:    96,
		SpanSample:     64,
		Seed:           0xF12E,
	}
}

// FrontendResult is the SLO-level outcome of one frontend run. All values
// derive from virtual time and per-dispatcher seeded RNGs, so they are
// byte-identical across -j.
type FrontendResult struct {
	Offered  int // arrivals generated (open loop, includes shed)
	Issued   int // jobs actually forked
	Shed     int // arrivals dropped by the admission cap
	ForkErrs int // dispatch failures (no live target / fork error)

	Completed int // jobs that ran to completion
	Lost      int // issued but never completed (killed with their cell)
	Good      int // completed within SLOTarget
	Redirects int // jobs routed off their tenant's home cell

	// SharedSkips counts completions that ran without their tenant's
	// shared state because its home cell (or holder process) was dead —
	// degraded service rather than an error.
	SharedSkips int

	// Latency is the merged job-latency distribution in virtual
	// microseconds (arrival to completion, queueing included).
	Latency stats.HistSnapshot

	// Availability under fault: a dispatch is degraded while any cell is
	// failed (the fleet is below capacity). The window runs from the
	// first user-visible loss or degraded arrival to the last, bounding
	// what users saw of the death → reboot → rejoin loop.
	Degraded    int // arrivals generated while the fleet was below capacity
	FirstLossAt sim.Time
	LastLossAt  sim.Time
	ErrWindowMs float64

	OfferedPerSec    float64 // offered rate over the arrival window
	ThroughputPerSec float64 // completions per virtual second of the window
	GoodputPerSec    float64 // within-SLO completions per virtual second

	TenantIssued []int64 // per-tenant arrivals issued
	TenantDone   []int64 // per-tenant completions
}

// feCellStats is completion-side accounting for one cell. Every field is
// written only by jobs running on that cell and read after the run.
type feCellStats struct {
	completed   int
	good        int
	sharedSkips int
	hist        stats.Histogram
	tenantDone  []int64
}

// feGenStats is dispatch-side accounting for one per-cell generator,
// written only by that generator.
type feGenStats struct {
	offered      int
	issued       int
	shed         int
	forkErrs     int
	redirects    int
	degraded     int
	firstLoss    sim.Time
	lastLoss     sim.Time
	done         bool
	inflight     []int   // outstanding jobs per target cell
	out          []feJob // outstanding job handles, launch order
	tenantIssued []int64
}

// feJob is one outstanding dispatch.
type feJob struct {
	pid  int
	cell int
}

func (g *feGenStats) markLoss(at sim.Time) {
	if g.firstLoss == 0 {
		g.firstLoss = at
	}
	if at > g.lastLoss {
		g.lastLoss = at
	}
}

// feHolder is one tenant's resident state: a holder process on the
// tenant's home cell whose COW leaf anchors the shared pages jobs map.
// The table is filled during setup and immutable while generators run.
type feHolder struct {
	pid  int
	home int
	leaf kmem.Addr
}

// RunFrontend drives the open-loop frontend against the hive and blocks
// (in simulated time) until the arrival window has passed and in-flight
// work has drained, or maxTime elapses. The second result carries the
// SLO-level metrics; the first is the common workload envelope.
func RunFrontend(h *core.Hive, cfg FrontendConfig, maxTime sim.Time) (*Result, *FrontendResult) {
	res := &Result{Name: "frontend", Cells: len(h.Cells)}
	fe := &FrontendResult{}
	h0, m0, i0 := snapshotFaults(h)
	cells := len(h.Cells)
	if cfg.Tenants < 1 {
		cfg.Tenants = 1
	}
	if cfg.MaxInFlight < 1 {
		cfg.MaxInFlight = 1
	}

	// Tenant holders: one resident process per tenant on its home cell.
	// Each materializes the tenant's shared pages in its COW leaf, then
	// parks; jobs from any cell map those pages (setting a dependency on
	// the home, §2's fault model) until the run ends or the home dies.
	tenantPages := 8 * cfg.JobSharedPages
	if tenantPages < 8 {
		tenantPages = 8
	}
	holders := make([]feHolder, cfg.Tenants)
	holdersReady := make([]int, cfg.Tenants) // one slot per holder
	stopHolders := false
	for k := 0; k < cfg.Tenants; k++ {
		k := k
		home := k % cells
		h.Cells[home].Procs.Spawn(fmt.Sprintf("fe.tenant%d", k), 910,
			func(p *proc.Process, t *sim.Task) {
				for off := 0; off < tenantPages; off++ {
					if err := p.TouchAnon(t, int64(off), true); err != nil {
						return
					}
				}
				holders[k] = feHolder{pid: p.PID, home: home, leaf: p.Leaf}
				holdersReady[k] = 1
				for !stopHolders && !h.Cells[p.Cell].Failed() {
					t.Sleep(47 * sim.Millisecond)
				}
			})
	}
	allReady := func() bool {
		for _, r := range holdersReady {
			if r == 0 {
				return false
			}
		}
		return true
	}
	if !h.RunUntil(allReady, h.Now()+20*sim.Second) {
		res.AddError("tenant holders never became ready")
		return res, fe
	}

	// Completion-side and dispatch-side state, one slot per cell.
	cellStats := make([]*feCellStats, cells)
	genStats := make([]*feGenStats, cells)
	for i := range cellStats {
		cellStats[i] = &feCellStats{tenantDone: make([]int64, cfg.Tenants)}
		genStats[i] = &feGenStats{
			inflight:     make([]int, cells),
			tenantIssued: make([]int64, cfg.Tenants),
		}
	}

	// jobBody is one short request: exec, map the tenant's shared state
	// (read-mostly, one page written — the remotely-writable population
	// Wax's borrowing acts on), compute interleaved with private pages,
	// then record latency against the arrival stamp.
	jobBody := func(tenant, user int, arrival sim.Time, hold feHolder, sampled bool) proc.Body {
		return func(p *proc.Process, t *sim.Task) {
			cell := h.Cells[p.Cell]
			st := cellStats[p.Cell]
			var span trace.SpanID
			haveSpan := false
			if sampled && cell.Tracer.Enabled() {
				span = cell.Tracer.Begin(t.Now(), fmt.Sprintf("fe:tenant%d", tenant))
				haveSpan = true
			}
			cell.Procs.Exec(t, p)

			// Tenant state: skip (degraded) rather than fail when the
			// tenant's home or holder is gone.
			homeUp := !h.Cells[hold.home].Failed()
			if homeUp {
				if _, alive := h.Cells[hold.home].Procs.Get(hold.pid); !alive {
					homeUp = false
				}
			}
			if homeUp {
				base := int64(user%8) * int64(cfg.JobSharedPages)
				for off := 0; off < cfg.JobSharedPages; off++ {
					lp := cow.LP(hold.leaf, base+int64(off))
					pf, err := p.MapShared(t, lp, off == 0)
					if err != nil {
						return // home died mid-request: the job is lost
					}
					if off == 0 {
						cell.EP.M.WritePage(t, cell.Sched.Procs[0], pf.Frame,
							uint64(tenant)<<32|uint64(user))
					}
				}
			} else {
				st.sharedSkips++
			}

			chunks := 2
			perChunkAnon := cfg.JobAnonPages / chunks
			for ch := 0; ch < chunks; ch++ {
				p.Compute(t, cfg.JobCPU/sim.Time(chunks))
				for k := 0; k < perChunkAnon; k++ {
					if err := p.TouchAnon(t, int64(ch*perChunkAnon+k), true); err != nil {
						return
					}
				}
			}

			lat := t.Now() - arrival
			st.hist.ObserveTime(lat)
			st.completed++
			if lat <= cfg.SLOTarget {
				st.good++
			}
			st.tenantDone[tenant]++
			if haveSpan {
				cell.Tracer.End(t.Now(), span, fmt.Sprintf("fe:tenant%d", tenant), int64(lat))
			}
		}
	}

	// Generators: one open-loop dispatcher per cell, each with its own
	// seeded RNG.
	start := h.Now()
	res.Started = start
	endAt := start + cfg.Duration
	perGenRate := float64(cfg.RatePerSec) / float64(cells)
	genProcs := make([]*proc.Process, cells)
	for g := 0; g < cells; g++ {
		g := g
		cell := h.Cells[g]
		gs := genStats[g]
		genProcs[g] = cell.Procs.Spawn(fmt.Sprintf("fe.gen%d", g), 911,
			func(p *proc.Process, t *sim.Task) {
				rng := rand.New(rand.NewSource(int64(cfg.Seed) + int64(g)*1_000_003 + 17))
				var zipf *rand.Zipf
				if cfg.Tenants > 1 && cfg.ZipfS > 1 {
					zipf = rand.NewZipf(rng, cfg.ZipfS, 1, uint64(cfg.Tenants-1))
				}
				drawTenant := func() int {
					if zipf != nil {
						return int(zipf.Uint64())
					}
					return rng.Intn(cfg.Tenants)
				}
				// sweep retires finished jobs and charges jobs stranded on
				// a failed cell as losses.
				sweep := func(now sim.Time) {
					keep := gs.out[:0]
					for _, j := range gs.out {
						tc := h.Cells[j.cell]
						if tc.Failed() {
							gs.markLoss(now)
							gs.inflight[j.cell]--
							continue
						}
						if _, alive := tc.Procs.Get(j.pid); alive {
							keep = append(keep, j)
						} else {
							gs.inflight[j.cell]--
						}
					}
					gs.out = keep
				}
				route := func(home int) int {
					perTarget := cfg.MaxInFlight / cells
					if perTarget < 2 {
						perTarget = 2
					}
					if !h.Cells[home].Failed() && gs.inflight[home] < perTarget {
						return home
					}
					// Wax's placement hint for this dispatcher's cell:
					// spill to the least-loaded live cells it named.
					for _, tc := range cell.PlaceTargets {
						if tc >= 0 && tc < cells && !h.Cells[tc].Failed() && gs.inflight[tc] < perTarget {
							return tc
						}
					}
					for i := 0; i < cells; i++ {
						tc := (home + 1 + i) % cells
						if !h.Cells[tc].Failed() {
							return tc
						}
					}
					return -1
				}

				// Arrivals are paced against an absolute schedule (`next`),
				// not by sleeping between dispatches: the virtual time a
				// dispatch itself costs (fork RPC, sweeps) never stretches
				// the inter-arrival gaps. Under overload the dispatcher
				// falls behind the schedule and arrivals queue — the
				// open-loop property the closed-loop workloads lack.
				next := t.Now()
				for {
					now := t.Now()
					if cell.Failed() || now >= endAt+sim.Second {
						break
					}
					rate := perGenRate
					if cfg.BurstFactor > 1 && cfg.BurstLen > 0 &&
						next >= start+cfg.BurstAt && next < start+cfg.BurstAt+cfg.BurstLen {
						rate *= cfg.BurstFactor
					}
					gap := sim.Time(rng.ExpFloat64() / rate * float64(sim.Second))
					if gap < sim.Microsecond {
						gap = sim.Microsecond
					}
					next += gap
					if next >= endAt {
						break
					}
					if d := next - now; d > 0 {
						t.Sleep(d)
					}
					now = t.Now()
					if cell.Failed() {
						break
					}
					gs.offered++
					if gs.offered%8 == 0 {
						sweep(now)
					}
					below := false
					for _, c := range h.Cells {
						if c.Failed() {
							below = true
							break
						}
					}
					if below {
						gs.degraded++
						gs.markLoss(now)
					}
					// A dispatcher running behind schedule is itself a queue.
					// An arrival that already waited out its SLO budget
					// before dispatch is shed, not issued: the overload
					// response is bounded latency for admitted jobs, never a
					// collapse into an ever-deepening backlog.
					if now-next > cfg.SLOTarget {
						gs.shed++
						// Keep the RNG stream aligned with admitted arrivals.
						_ = drawTenant()
						_ = rng.Intn(cfg.Users)
						continue
					}
					tenant := drawTenant()
					user := rng.Intn(cfg.Users)
					if len(gs.out) >= cfg.MaxInFlight {
						sweep(now)
						if len(gs.out) >= cfg.MaxInFlight {
							gs.shed++
							continue
						}
					}
					target := route(holders[tenant].home)
					if target < 0 {
						gs.forkErrs++
						gs.markLoss(now)
						continue
					}
					sampled := cfg.SpanSample > 0 && gs.issued%cfg.SpanSample == 0
					// Latency is charged from the scheduled arrival, so time
					// spent queued behind a backlogged dispatcher counts.
					pid, err := cell.Procs.ForkExec(t, p, target,
						fmt.Sprintf("fe%d.%d", g, gs.issued),
						jobBody(tenant, user, next, holders[tenant], sampled))
					if err != nil {
						gs.forkErrs++
						gs.markLoss(now)
						continue
					}
					if target != holders[tenant].home {
						gs.redirects++
					}
					gs.issued++
					gs.tenantIssued[tenant]++
					gs.inflight[target]++
					gs.out = append(gs.out, feJob{pid: pid, cell: target})
				}

				// Drain: the arrival window is over; retire everything still
				// in flight. The drain is not time-bounded — returning with
				// live jobs would hand whoever runs next a hive still
				// working through this run's backlog (the caller's maxTime
				// deadline is the only bound). Jobs stranded on a failed
				// cell are charged as losses by the sweep.
				for len(gs.out) > 0 && !cell.Failed() {
					t.Sleep(5 * sim.Millisecond)
					sweep(t.Now())
				}
				gs.done = true
			})
	}

	deadline := h.Now() + maxTime
	settled := func() bool {
		for g := 0; g < cells; g++ {
			if !genStats[g].done && !genProcs[g].Exited() {
				return false
			}
		}
		return true
	}
	h.RunUntil(settled, deadline)
	res.Done = settled()
	res.Elapsed = h.Now() - start
	// Release the holders: they park in 47 ms sleeps and exit on their
	// next wake-up if the caller keeps simulating (campaign settle does);
	// with the engine stopped they are simply left parked.
	stopHolders = true

	// Merge (single-threaded, cell order).
	var merged stats.Histogram
	fe.TenantIssued = make([]int64, cfg.Tenants)
	fe.TenantDone = make([]int64, cfg.Tenants)
	for g := 0; g < cells; g++ {
		gs, cs := genStats[g], cellStats[g]
		fe.Offered += gs.offered
		fe.Issued += gs.issued
		fe.Shed += gs.shed
		fe.ForkErrs += gs.forkErrs
		fe.Redirects += gs.redirects
		fe.Degraded += gs.degraded
		if gs.firstLoss > 0 && (fe.FirstLossAt == 0 || gs.firstLoss < fe.FirstLossAt) {
			fe.FirstLossAt = gs.firstLoss
		}
		if gs.lastLoss > fe.LastLossAt {
			fe.LastLossAt = gs.lastLoss
		}
		fe.Completed += cs.completed
		fe.Good += cs.good
		fe.SharedSkips += cs.sharedSkips
		merged.Merge(&cs.hist)
		for k := 0; k < cfg.Tenants; k++ {
			fe.TenantIssued[k] += gs.tenantIssued[k]
			fe.TenantDone[k] += cs.tenantDone[k]
		}
	}
	fe.Lost = fe.Issued - fe.Completed
	fe.Latency = merged.Snapshot()
	if fe.LastLossAt > fe.FirstLossAt {
		fe.ErrWindowMs = (fe.LastLossAt - fe.FirstLossAt).Millis()
	}
	secs := cfg.Duration.Seconds()
	if secs > 0 {
		fe.OfferedPerSec = float64(fe.Offered) / secs
		fe.ThroughputPerSec = float64(fe.Completed) / secs
		fe.GoodputPerSec = float64(fe.Good) / secs
	}
	res.finishStats(h, h0, m0, i0)
	return res, fe
}
