package core

import (
	"fmt"

	"repro/internal/membership"
	"repro/internal/sim"
	"repro/internal/trace"
)

// The availability loop (§4.3 closed end-to-end): after the survivors'
// agreement kills a cell, the Rebooter microboots a fresh cell image on the
// dead cell's repaired nodes, re-admits it through a membership join round
// (coordinator-led, barriered, restart-safe — symmetric to the death
// round), and warms it back to full capacity. The recovering cell is
// untrusted until the join round commits: its monitor stays stopped, it is
// not a barrier party, and every byte it sends crosses the same
// validate*/checksum boundaries as any other cell's traffic.

// RebootPolicy configures the Rebooter.
type RebootPolicy struct {
	// Enabled turns the availability loop on.
	Enabled bool
	// Delay models hardware repair + firmware reload between the death
	// verdict and the first microboot attempt.
	Delay sim.Time
	// BackoffBase/BackoffMax bound the exponential backoff between failed
	// join attempts; MaxAttempts is the crash-loop give-up bound.
	BackoffBase sim.Time
	BackoffMax  sim.Time
	MaxAttempts int
	// WarmPages is how many page-cache pages each survivor migrates onto
	// the rejoined cell during warm-up (0 = default).
	WarmPages int
}

func (p RebootPolicy) withDefaults() RebootPolicy {
	if p.Delay == 0 {
		p.Delay = 60 * sim.Millisecond
	}
	if p.BackoffBase == 0 {
		p.BackoffBase = 40 * sim.Millisecond
	}
	if p.BackoffMax == 0 {
		p.BackoffMax = 500 * sim.Millisecond
	}
	if p.MaxAttempts == 0 {
		p.MaxAttempts = 6
	}
	if p.WarmPages == 0 {
		p.WarmPages = 16
	}
	return p
}

// RejoinRecord is one pass through the loop for one cell death.
type RejoinRecord struct {
	Cell     int
	DeadAt   sim.Time // death verdict applied
	RebootAt sim.Time // last microboot attempt
	RejoinAt sim.Time // join round committed (0 if never)
	Attempts int
	GaveUp   bool // hit MaxAttempts without a commit
}

// Restored reports whether this pass ended with the cell back in service.
func (r RejoinRecord) Restored() bool { return r.RejoinAt > 0 }

// Rebooter drives the fault → reboot → rejoin → full-capacity loop.
type Rebooter struct {
	h      *Hive
	Policy RebootPolicy

	// Records accumulates one entry per completed loop pass, in commit
	// order. FullCapacityAt is the last instant every cell was live again
	// (0 if full capacity was never restored).
	Records        []RejoinRecord
	FullCapacityAt sim.Time

	busy map[int]bool // cells with a controller task in flight
}

func newRebooter(h *Hive, p RebootPolicy) *Rebooter {
	return &Rebooter{h: h, Policy: p.withDefaults(), busy: map[int]bool{}}
}

// Idle reports whether no controller task is in flight — the harness's
// "loop has settled" condition.
func (rb *Rebooter) Idle() bool { return len(rb.busy) == 0 }

// noteDeath is called from OnDeclaredDead, while the death verdict is
// being applied.
func (rb *Rebooter) noteDeath(cell int) {
	if rb.busy[cell] {
		return
	}
	rb.busy[cell] = true
	deadAt := rb.h.Eng.Now()
	rb.h.Eng.Go(fmt.Sprintf("rebooter.cell%d", cell), func(t *sim.Task) {
		rb.loop(t, cell, deadAt)
	})
}

// loop runs as its own task on the hive's engine and reads coordinator and
// machine state directly.
func (rb *Rebooter) loop(t *sim.Task, cell int, deadAt sim.Time) {
	h := rb.h
	c := h.Cells[cell]
	rec := RejoinRecord{Cell: cell, DeadAt: deadAt}
	t.Sleep(rb.Policy.Delay)
	backoff := rb.Policy.BackoffBase
	for attempt := 1; ; attempt++ {
		rec.Attempts = attempt
		// Let any in-flight recovery round drain: the joiner must not
		// race its own death round, and the join round needs the
		// coordinator free.
		for !h.Coord.RecoveryIdle() {
			t.Sleep(membership.TickInterval)
		}
		if c.Failed() || attempt == 1 {
			c.Microboot()
			rec.RebootAt = t.Now()
			c.Tracer.Emit(t.Now(), trace.Reboot, int64(cell), int64(attempt), "microboot")
		}
		commit, seq := h.Coord.RequestJoin(cell)
		mon := c.Mon
		h.Eng.Go(fmt.Sprintf("cell%d.announce", cell), func(at *sim.Task) {
			mon.AnnounceJoin(at, seq)
		})
		v, _ := commit.Wait(t)
		if ok, _ := v.(bool); ok {
			rec.RejoinAt = t.Now()
			c.Mon.Start()
			rb.warmUp(t, cell)
			if h.Coord.LiveCount() == h.Cfg.Cells {
				rb.FullCapacityAt = t.Now()
			}
			break
		}
		if attempt >= rb.Policy.MaxAttempts {
			rec.GaveUp = true
			c.Tracer.Emit(t.Now(), trace.Reboot, int64(cell), int64(attempt),
				"rejoin-backoff bound reached; giving up")
			break
		}
		t.Sleep(backoff)
		if backoff *= 2; backoff > rb.Policy.BackoffMax {
			backoff = rb.Policy.BackoffMax
		}
	}
	rb.Records = append(rb.Records, rec)
	delete(rb.busy, cell) // a later death of this cell starts a new pass
}

// warmUp re-stripes capacity onto the rejoined cell: each survivor
// migrates a slice of its page cache into frames borrowed from the joiner
// (vm.RebalanceToward) and re-creates its striped-file components homed
// there (fs.RestripeFor). The work runs asynchronously in one task per
// peer — warm-up is a background repair, not part of the commit.
func (rb *Rebooter) warmUp(t *sim.Task, cell int) {
	for _, peer := range rb.h.Cells {
		if peer.ID == cell || peer.Failed() {
			continue
		}
		p := peer
		rb.h.Eng.Go(fmt.Sprintf("cell%d.warm%d", p.ID, cell), func(wt *sim.Task) {
			p.VM.RebalanceToward(wt, cell, rb.Policy.WarmPages)
			p.FS.RestripeFor(wt, cell)
		})
	}
}
