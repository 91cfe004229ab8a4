package membership

import (
	"fmt"
	"sort"
	"strings"

	"repro/internal/sim"
	"repro/internal/trace"
)

// Coordinator is the shared substrate of the agreement protocol: the live
// set, round bookkeeping, votes, and the global barriers. In the real
// system this state is replicated by the group-membership messages; the
// simulation centralizes it (as the paper's oracle did) while the probe
// traffic and recovery work remain real per-cell activity.
type Coordinator struct {
	Mode AgreementMode
	// OracleFailed reports ground truth: has this cell failed or been
	// corrupted? Wired by the fault injector in Oracle mode.
	OracleFailed func(cell int) bool
	// OnDeclaredDead is invoked once when agreement declares a cell
	// dead; the cell layer uses it to force the (possibly still
	// running, corrupt) cell to stop — the consensus-gated reboot.
	OnDeclaredDead func(cell int)
	// OnBarrier1Open, when set (fault injectors), fires once per round at
	// the moment the first member crosses barrier 1 — the window between
	// the two barriers that the v2 campaign and the reintegration fault
	// scenarios inject faults into. cell is the suspect of a death round
	// or the joiner of a join round.
	OnBarrier1Open func(join bool, cell, coordinator int)

	cells      int
	nodesByCel [][]int
	live       map[int]bool
	monitors   map[int]*Monitor

	cur       *round
	completed map[string]bool
	waiters   []*sim.Task

	votedDown  map[int]map[int]int // accuser -> suspect -> times voted down
	forcedDead map[int]bool

	// pendingJoins holds the commit future of each cell whose reboot
	// controller has requested re-admission; resolved (true = committed,
	// false = aborted) exactly once per request.
	pendingJoins map[int]*sim.Future
	joinSeq      int

	// Measurements for the Table 7.4 harness.
	LastDetectAt   sim.Time // latest "entered recovery" time of any cell
	FirstDetectAt  sim.Time
	RecoveryEndAt  sim.Time
	RoundsRun      int
	FalseAlarms    int
	recoveryActive int
	// RoundRestarts counts rounds whose coordinator died mid-round and
	// were deterministically restarted under the next live member.
	RoundRestarts int
	// Rejoins lists the cells whose join round committed, in commit
	// order; LastRejoinAt is the latest commit time (the
	// capacity-restoration measurement's raw input).
	Rejoins      []int
	LastRejoinAt sim.Time
}

// round is one membership round: agreement on a change to the live set,
// then a double global barrier. A death round removes its cell, the
// suspect. A join round re-admits its cell, a microbooted joiner, which is
// not a member, holds no barrier slot and stays untrusted until the
// commit.
type round struct {
	key     string
	join    bool
	cell    int
	accuser int
	members map[int]bool // live cells minus the suspect
	joined  map[int]bool // members that have taken up the round
	votes   map[int]bool // cell -> voted for the change
	// yes counts the true entries in votes, maintained incrementally on
	// insert and withdrawal so the tally never rescans the vote map —
	// the rescans were O(members²) per round at large cell counts.
	yes      int
	verdict  *sim.Future // resolves to true when the change carries
	barrier1 *sim.Barrier
	barrier2 *sim.Barrier
	b1Seen   map[int]bool
	b2Seen   map[int]bool
	done     map[int]bool

	// coordinator is the member that drives the round's post-barrier
	// work (diagnostics, the join commit): the lowest live member at
	// round creation. If it dies mid-round the round restarts
	// deterministically under the next live member (CellDiedMidRound).
	coordinator int
	b1Fired     bool // OnBarrier1Open fired

	corruptAccuser int // -1, or a cell the round branded corrupt

	// aborted is set when a join round's joiner dies mid-round;
	// committed guards the one-shot commit.
	aborted   bool
	committed bool
}

// NewCoordinator builds the coordinator for `cells` cells, each owning the
// listed nodes.
func NewCoordinator(cells int, nodesByCell [][]int, mode AgreementMode) *Coordinator {
	c := &Coordinator{
		Mode:         mode,
		cells:        cells,
		nodesByCel:   nodesByCell,
		live:         make(map[int]bool),
		monitors:     make(map[int]*Monitor),
		completed:    make(map[string]bool),
		votedDown:    make(map[int]map[int]int),
		forcedDead:   make(map[int]bool),
		pendingJoins: make(map[int]*sim.Future),
	}
	for i := 0; i < cells; i++ {
		c.live[i] = true
	}
	return c
}

func (c *Coordinator) register(m *Monitor) { c.monitors[m.CellID] = m }

// isLive reports whether a cell is in the current live set.
func (c *Coordinator) isLive(cell int) bool { return c.live[cell] }

// liveSet returns the live cells, ascending.
func (c *Coordinator) liveSet() []int { return sortedCells(c.live) }

// LiveCount returns the size of the live set.
func (c *Coordinator) LiveCount() int { return len(c.live) }

// neighborOf returns the next live cell after `cell` in the monitoring
// ring, or -1 when alone.
func (c *Coordinator) neighborOf(cell int) int {
	for i := 1; i < c.cells; i++ {
		n := (cell + i) % c.cells
		if c.live[n] {
			return n
		}
	}
	return -1
}

// firstNodeOf returns a cell's first node (its clock word's home).
func (c *Coordinator) firstNodeOf(cell int) int { return c.nodesByCel[cell][0] }

// ensureRound joins (or creates), on behalf of cellID, the round that an
// alert or a join announcement asks for. A nil round with retry=false
// means the request is stale: its round already completed, the suspect is
// already dead or the joiner already live or no longer wanted, or this
// cell already served the active round. retry=true means the coordinator
// is busy with a different round and the caller should re-present the
// request once the active round drains.
func (c *Coordinator) ensureRound(msg any, cellID int) (*round, bool) {
	var (
		join          bool
		cell, accuser int
		key           string
	)
	switch m := msg.(type) {
	case *alertMsg:
		cell, accuser, key = m.Suspect, m.Accuser, fmt.Sprintf("%d:%d", m.Accuser, m.Sequence)
	case *joinMsg:
		join, cell, key = true, m.Joiner, fmt.Sprintf("join:%d:%d", m.Joiner, m.Sequence)
	}
	if cur := c.cur; cur != nil {
		if cur.join != join || cur.cell != cell {
			// Busy with a different round: retry while the change this
			// request asks for is still wanted.
			return nil, c.wanted(join, cell)
		}
		// The active round folds late members in even if the verdict has
		// already landed — the barriers need every member, and the live
		// set may already exclude the suspect.
		if cur.members[cellID] && !cur.done[cellID] && !cur.joined[cellID] {
			cur.joined[cellID] = true
			return cur, false
		}
		c.completed[key] = true // duplicate request, already serving
		return nil, false
	}
	if c.completed[key] {
		return nil, false
	}
	if !c.wanted(join, cell) {
		c.completed[key] = true
		return nil, false
	}
	r := &round{
		key:     key,
		join:    join,
		cell:    cell,
		accuser: accuser,
		members: make(map[int]bool),
		joined:  map[int]bool{cellID: true},
		votes:   make(map[int]bool),
		verdict: &sim.Future{},
		b1Seen:  make(map[int]bool),
		b2Seen:  make(map[int]bool),
		done:    make(map[int]bool),

		corruptAccuser: -1,
	}
	for m := range c.live {
		if m == cell {
			continue
		}
		// A cell whose monitor already died (simultaneous failure, not yet
		// declared by its own round) can never join or arrive at the
		// barriers — enrolling it would hang every survivor.
		if mon := c.monitors[m]; mon != nil && mon.dead {
			continue
		}
		r.members[m] = true
	}
	ms := sortedCells(r.members)
	if len(ms) > 0 {
		r.coordinator = ms[0]
	}
	if !join {
		// Hand the alert to any enrolled member that has not heard it.
		// The accuser's cast went to the live set of cast time — a cell
		// that rejoined between the cast and round creation is a member
		// now but was not a recipient then, and a member without the
		// alert never arrives at the barriers (every survivor would
		// hang). Members the in-flight cast still reaches later just see
		// a duplicate accusation, which the completed table absorbs.
		for _, m := range ms {
			if m == cellID {
				continue
			}
			if mon := c.monitors[m]; mon != nil && !mon.dead && !mon.alerting[cell] {
				mon.alerting[cell] = true
				// A relay task, not a direct push, delivers the alert:
				// the event order that faultinject's golden test pins
				// includes the relay task's dispatch.
				relay := mon
				relay.eng().Go(fmt.Sprintf("cell%d.alertrelay", relay.CellID),
					func(rt *sim.Task) { relay.alerts.Push(msg) })
			}
		}
	}
	r.barrier1 = sim.NewBarrier(len(r.members))
	r.barrier2 = sim.NewBarrier(len(r.members))
	c.cur = r
	c.RoundsRun++
	return r, false
}

// wanted reports whether a round about cell still has a change to
// decide: a suspect must still be live, a joiner still waiting to be
// re-admitted.
func (c *Coordinator) wanted(join bool, cell int) bool {
	if join {
		return !c.live[cell] && c.pendingJoins[cell] != nil
	}
	return c.live[cell]
}

// agree resolves the round's verdict for one member cell and reports
// whether the change carries: the suspect is declared dead, or the joiner
// admitted. Oracle mode asks ground truth whether the cell has failed;
// Vote mode has every member probe the cell — real RPC traffic from the
// member's cell, against an endpoint that stays untrusted until a join
// commits — and vote.
func (c *Coordinator) agree(t *sim.Task, mon *Monitor, r *round) bool {
	needVote := false
	if !r.verdict.Ready() {
		switch {
		case !r.join && c.forcedDead[r.cell]:
			// Corrupt-accuser rule already branded the suspect.
			c.applyVerdict(r, true)
		case c.Mode == Oracle:
			failed := c.OracleFailed != nil && c.OracleFailed(r.cell)
			c.applyVerdict(r, failed != r.join)
		default:
			// Voting: this member probes and records its vote; the
			// last vote tallies.
			_, voted := r.votes[mon.CellID]
			needVote = !voted
		}
	}
	if needVote {
		alive := mon.probe(t, r.cell)
		if _, voted := r.votes[mon.CellID]; !voted {
			// "unreachable" votes to remove a suspect, "reachable" to
			// admit a joiner.
			r.votes[mon.CellID] = alive == r.join
			if alive == r.join {
				r.yes++
			}
			mon.Tracer.Emit(t.Now(), trace.Vote, int64(r.cell), b2i(!alive), r.kind().voteLabel)
			c.tally(r)
		}
	}
	v, _ := r.verdict.Wait(t)
	return v.(bool)
}

// tally resolves the verdict once every (still-live) member has voted:
// the change carries on a strict majority of the members. It is re-run
// when a member dies mid-agreement, so a dead voter can never hang the
// round.
func (c *Coordinator) tally(r *round) {
	if r.verdict.Ready() || len(r.members) == 0 || len(r.votes) < len(r.members) {
		return
	}
	c.applyVerdict(r, r.yes*2 > len(r.members))
}

// noteBarrier1Open fires the fault-injection hook the first time any member
// crosses barrier 1 — the inter-barrier window of the round.
func (c *Coordinator) noteBarrier1Open(r *round) {
	if r.b1Fired {
		return
	}
	r.b1Fired = true
	if c.OnBarrier1Open != nil {
		c.OnBarrier1Open(r.join, r.cell, r.coordinator)
	}
}

// applyVerdict commits a round's verdict, once. A death round that
// carries removes the suspect from the live set and forces it to stop;
// one that does not is a false alarm, and the corrupt-accuser rule counts
// it against the accuser. A join round that does not carry resolves its
// requester at once; one that carries is committed after the barriers
// (commitJoin).
func (c *Coordinator) applyVerdict(r *round, carries bool) {
	if r.verdict.Ready() {
		return
	}
	switch {
	case r.join:
		if !carries {
			c.resolveJoin(r, false)
		}
	case carries:
		delete(c.live, r.cell)
		if mon := c.monitors[r.cell]; mon != nil {
			mon.Stop()
		}
		if c.OnDeclaredDead != nil {
			c.OnDeclaredDead(r.cell)
		}
	default:
		c.FalseAlarms++
		// Corrupt-accuser rule (§4.3): two voted-down alerts for the
		// same suspect brand the accuser corrupt.
		if c.votedDown[r.accuser] == nil {
			c.votedDown[r.accuser] = make(map[int]int)
		}
		c.votedDown[r.accuser][r.cell]++
		if c.votedDown[r.accuser][r.cell] >= 2 {
			r.corruptAccuser = r.accuser
			c.forcedDead[r.accuser] = true
		}
	}
	r.verdict.Set(carries, nil)
}

// noteRecoveryEntered records detection latency (Table 7.4's measurement:
// latency until the last cell enters recovery).
func (c *Coordinator) noteRecoveryEntered(at sim.Time) {
	if c.recoveryActive == 0 {
		c.FirstDetectAt = at
	}
	c.recoveryActive++
	if at > c.LastDetectAt {
		c.LastDetectAt = at
	}
}

// noteRecoveryDone records recovery completion times.
func (c *Coordinator) noteRecoveryDone(at sim.Time) {
	if at > c.RecoveryEndAt {
		c.RecoveryEndAt = at
	}
}

// finishRound marks a member's round participation complete; the last
// member closes the round.
func (c *Coordinator) finishRound(r *round, cell int) {
	r.done[cell] = true
	c.checkRoundDone(r)
}

func (c *Coordinator) checkRoundDone(r *round) {
	if r == nil {
		return
	}
	for m := range r.members {
		if !r.done[m] && c.live[m] {
			return
		}
	}
	c.completed[r.key] = true
	if c.cur == r {
		c.cur = nil
		c.recoveryActive = 0
	}
	if r.join {
		// Backstop: a join round that drained without committing (e.g.
		// every member died) must still resolve its requester, or the
		// reboot controller would wait forever. No-op after commitJoin.
		c.resolveJoin(r, false)
	}
}

// CellDiedMidRound handles a member cell dying while a round is in flight
// (multi-failure tolerance): barrier membership shrinks so the survivors
// cannot hang, the dead member's vote is withdrawn and the agreement
// re-tallied, and — when the dead member was the round coordinator — the
// round deterministically restarts under the next live member.
func (c *Coordinator) CellDiedMidRound(cell int) {
	r := c.cur
	if r == nil {
		return
	}
	if r.join && cell == r.cell && !c.live[cell] {
		// The joiner itself died mid-join (a second fault landed during
		// reintegration). The members are not waiting on it — it holds no
		// barrier slot — so the round drains normally; the commit is
		// cancelled and the requester told to retry.
		r.aborted = true
		c.applyVerdict(r, false)
		c.checkRoundDone(r)
		return
	}
	if !r.members[cell] {
		return
	}
	delete(r.members, cell)
	if !r.b1Seen[cell] {
		r.barrier1.SetParties(len(r.members))
	}
	if !r.b2Seen[cell] {
		r.barrier2.SetParties(len(r.members))
	}
	// Withdraw the dead member's vote (it may never have voted; a round
	// must not wait on a dead voter) and re-tally the survivors.
	if r.votes[cell] {
		r.yes--
	}
	delete(r.votes, cell)
	c.tally(r)
	if cell == r.coordinator {
		if ms := sortedCells(r.members); len(ms) > 0 {
			r.coordinator = ms[0]
			c.RoundRestarts++
			if mon := c.monitors[r.coordinator]; mon != nil {
				mon.Tracer.Emit(mon.M.Eng.Now(), trace.RoundRestart,
					int64(cell), int64(r.coordinator), "")
			}
		}
	}
	c.checkRoundDone(r)
}

// RecoveryIdle reports that no agreement/recovery round is active. Harness
// code uses it to wait until multi-fault recovery has fully drained — the
// live set shrinks at verdict time, before the recovery phases run.
func (c *Coordinator) RecoveryIdle() bool { return c.cur == nil }

// reintegrate returns a repaired cell to the live set and scrubs every
// piece of survivor bookkeeping that went stale while it was dead. The
// round machinery was written when the live set only shrank; a cell coming
// *back* invalidates three things:
//
//   - corrupt-accuser strikes by or about the old incarnation (votedDown):
//     the fresh image never alerted anyone, and strikes about it describe
//     a kernel that no longer exists;
//   - completed-round keys of the old incarnation's alerts ("accuser:seq"):
//     the fresh monitor's sequence numbers restart at 1, so a stale key
//     would silently swallow its first alerts;
//   - peer monitors' per-cell caches (lastClock, alerting): a stale clock
//     value can false-hint against the fresh image's restarted clock, and
//     a stuck alerting flag would suppress real future alerts about it.
func (c *Coordinator) reintegrate(cell int) {
	c.live[cell] = true
	delete(c.forcedDead, cell)
	delete(c.votedDown, cell)
	for _, rows := range c.votedDown {
		delete(rows, cell)
	}
	prefix := fmt.Sprintf("%d:", cell)
	var stale []string
	for key := range c.completed {
		stale = append(stale, key)
	}
	sort.Strings(stale)
	for _, key := range stale {
		if strings.HasPrefix(key, prefix) {
			delete(c.completed, key)
		}
	}
	for _, id := range sortedMonitorIDs(c.monitors) {
		if m := c.monitors[id]; m.CellID != cell {
			delete(m.lastClock, cell)
			delete(m.alerting, cell)
		}
	}
}

// RequestJoin asks the membership layer to re-admit a microbooted cell
// through a coordinator-led join round; the reboot controller calls it.
// The returned future resolves to a bool: true when the round committed
// and the joiner is live again, false when it aborted (the joiner died
// mid-join, or every member did). The int is the join sequence the joiner
// must announce with. The joiner's fresh monitor must already be
// registered (NewMonitor) but not started: until the commit it is
// untrusted and passive — the live members run the round; the joiner only
// answers their probes over the validated RPC path.
func (c *Coordinator) RequestJoin(joiner int) (*sim.Future, int) {
	if c.live[joiner] {
		f := &sim.Future{}
		f.Set(true, nil)
		return f, 0
	}
	if f := c.pendingJoins[joiner]; f != nil {
		return f, c.joinSeq
	}
	c.joinSeq++
	f := &sim.Future{}
	c.pendingJoins[joiner] = f
	return f, c.joinSeq
}

// commitJoin is run by the round coordinator after barrier 2: the joiner
// enters the live set, every piece of stale bookkeeping about the old
// incarnation is scrubbed, and the Rejoin control-ring event marks the
// taint boundary for the forensic walk. If the joiner died between the
// vote and the commit, the commit is cancelled instead.
func (c *Coordinator) commitJoin(r *round, at sim.Time, tr *trace.Tracer) {
	if r.committed {
		return
	}
	r.committed = true
	if r.aborted {
		c.resolveJoin(r, false)
		return
	}
	joiner := r.cell
	c.reintegrate(joiner)
	c.Rejoins = append(c.Rejoins, joiner)
	c.LastRejoinAt = at
	tr.Emit(at, trace.Rejoin, int64(joiner), int64(r.coordinator), "")
	c.resolveJoin(r, true)
}

// resolveJoin resolves the pending join future exactly once.
func (c *Coordinator) resolveJoin(r *round, ok bool) {
	if f := c.pendingJoins[r.cell]; f != nil {
		f.Set(ok, nil)
		delete(c.pendingJoins, r.cell)
	}
}

// Monitors exposes the registered monitors by cell (read-only use).
func (c *Coordinator) Monitors() map[int]*Monitor { return c.monitors }
