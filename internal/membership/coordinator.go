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
	// the two recovery barriers the v2 campaign injects faults into.
	OnBarrier1Open func(suspect, coordinator int)
	// OnJoinBarrier1Open is the join-round analogue: it fires once per
	// join round when the first member crosses barrier 1 — the window the
	// reintegration fault scenarios inject into.
	OnJoinBarrier1Open func(joiner, coordinator int)

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
	DeadDeclared   []int
	recoveryActive int
	// RoundRestarts counts rounds whose coordinator died mid-round and
	// were deterministically restarted under the next live member.
	RoundRestarts int
	// JoinRounds counts join rounds run; Rejoins lists the cells whose
	// join round committed, in commit order; LastRejoinAt is the latest
	// commit time (the capacity-restoration measurement's raw input).
	JoinRounds   int
	Rejoins      []int
	LastRejoinAt sim.Time
}

// round is one agreement/recovery round.
type round struct {
	key     string
	suspect int
	accuser int
	members map[int]bool // live cells minus suspect
	joined  map[int]bool // members that have taken up the round
	votes   map[int]bool // cell -> votesDead
	// deadVotes counts the true entries in votes, maintained incrementally
	// on insert and withdrawal so the tally never rescans the vote map —
	// the rescans were O(members²) per round at large cell counts.
	deadVotes int
	verdict   *sim.Future // resolves to map[int]bool of confirmed-dead cells
	applied   bool
	barrier1  *sim.Barrier
	barrier2  *sim.Barrier
	b1Seen    map[int]bool
	b2Seen    map[int]bool
	done      map[int]bool
	entered   map[int]sim.Time

	// coordinator is the member that drives the round's post-barrier
	// work (diagnostics, reintegration): the lowest live member at round
	// creation. If it dies mid-round the round restarts deterministically
	// under the next live member (CellDiedMidRound).
	coordinator int
	b1Fired     bool // OnBarrier1Open fired

	corruptAccuser int // -1, or a cell the round branded corrupt

	// join marks a join round: suspect is the joiner (not a member), the
	// vote is about reachability of the fresh image, and the verdict set
	// {joiner} means "admit". aborted is set when the joiner dies
	// mid-round; committed guards the one-shot commit.
	join      bool
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

// ensureRound joins (or creates) the round for this alert on behalf of
// cellID. A nil round with retry=false means the alert is stale: its round
// already completed, the suspect is already dead, or this cell already
// served the active round. retry=true means the coordinator is busy with a
// different suspect and the caller should re-present the alert once the
// active round drains.
func (c *Coordinator) ensureRound(alert *alertMsg, cellID int) (*round, bool) {
	key := fmt.Sprintf("%d:%d", alert.Accuser, alert.Sequence)
	if c.cur != nil {
		// An active round for this suspect folds late members in even
		// if the verdict has already landed — the barriers need every
		// member, and the live set may already exclude the suspect.
		if c.cur.suspect == alert.Suspect && c.cur.members[cellID] &&
			!c.cur.done[cellID] && !c.cur.joined[cellID] {
			c.cur.joined[cellID] = true
			return c.cur, false
		}
		if c.cur.suspect == alert.Suspect {
			c.completed[key] = true // duplicate accusation, already serving
			return nil, false
		}
		// Busy with a different suspect: this alert still needs a round.
		return nil, c.live[alert.Suspect]
	}
	if c.completed[key] {
		return nil, false
	}
	if !c.live[alert.Suspect] {
		c.completed[key] = true
		return nil, false
	}
	r := &round{
		key:     key,
		suspect: alert.Suspect,
		accuser: alert.Accuser,
		members: make(map[int]bool),
		joined:  map[int]bool{cellID: true},
		votes:   make(map[int]bool),
		verdict: &sim.Future{},
		b1Seen:  make(map[int]bool),
		b2Seen:  make(map[int]bool),
		done:    make(map[int]bool),
		entered: make(map[int]sim.Time),

		corruptAccuser: -1,
	}
	for cell := range c.live {
		if cell == alert.Suspect {
			continue
		}
		// A cell whose monitor already died (simultaneous failure, not yet
		// declared by its own round) can never join or arrive at the
		// barriers — enrolling it would hang every survivor.
		if mon := c.monitors[cell]; mon != nil && mon.dead {
			continue
		}
		r.members[cell] = true
	}
	if ms := sortedCells(r.members); len(ms) > 0 {
		r.coordinator = ms[0]
	}
	// Hand the alert to any enrolled member that has not heard it. The
	// accuser's cast went to the live set of cast time — a cell that
	// rejoined between the cast and round creation is a member now but was
	// not a recipient then, and a member without the alert never arrives
	// at the barriers (every survivor would hang). Members the in-flight
	// cast still reaches later just see a duplicate accusation, which the
	// completed table absorbs.
	for _, m := range sortedCells(r.members) {
		if m == cellID {
			continue
		}
		if mon := c.monitors[m]; mon != nil && !mon.dead && !mon.alerting[alert.Suspect] {
			mon.alerting[alert.Suspect] = true
			// A relay task, not a direct push, delivers the alert: the
			// event order that faultinject's golden test pins includes
			// the relay task's dispatch.
			relay := mon
			relay.eng().Go(fmt.Sprintf("cell%d.alertrelay", relay.CellID),
				func(rt *sim.Task) { relay.alerts.Push(alert) })
		}
	}
	r.barrier1 = sim.NewBarrier(len(r.members))
	r.barrier2 = sim.NewBarrier(len(r.members))
	c.cur = r
	c.RoundsRun++
	return r, false
}

// agree resolves the round's verdict for one member cell and returns the
// set of confirmed-dead cells (empty = false alarm). The liveness probe is
// real RPC traffic from the member's cell.
func (c *Coordinator) agree(t *sim.Task, mon *Monitor, r *round) map[int]bool {
	needVote := false
	if !r.verdict.Ready() {
		switch {
		case c.forcedDead[r.suspect]:
			// Corrupt-accuser rule already branded the suspect.
			c.applyVerdict(r, map[int]bool{r.suspect: true})
		case c.Mode == Oracle:
			dead := map[int]bool{}
			if c.OracleFailed != nil && c.OracleFailed(r.suspect) {
				dead[r.suspect] = true
			}
			c.applyVerdict(r, dead)
		default:
			// Voting: this member probes and records its vote; the
			// last vote tallies.
			_, voted := r.votes[mon.CellID]
			needVote = !voted
		}
	}
	if needVote {
		alive := mon.probe(t, r.suspect)
		if _, voted := r.votes[mon.CellID]; !voted {
			r.votes[mon.CellID] = !alive
			dead := int64(0)
			if r.votes[mon.CellID] {
				dead = 1
				r.deadVotes++
			}
			mon.Tracer.Emit(t.Now(), trace.Vote, int64(r.suspect), dead, "")
			c.tallyVotes(r)
		}
	}
	v, _ := r.verdict.Wait(t)
	return v.(map[int]bool)
}

// agreeJoin resolves the join round's admit/abort verdict for one member
// and reports whether the joiner was admitted. Oracle mode asks ground
// truth whether the fresh image is healthy (as it does for deaths); Vote
// mode probes the joiner — real RPC traffic against its endpoint, which
// stays untrusted until the commit.
func (c *Coordinator) agreeJoin(t *sim.Task, mon *Monitor, r *round) bool {
	needVote := false
	if !r.verdict.Ready() {
		switch {
		case c.Mode == Oracle:
			admit := true
			if c.OracleFailed != nil && c.OracleFailed(r.suspect) {
				admit = false
			}
			c.applyJoinVerdict(r, admit)
		default:
			_, voted := r.votes[mon.CellID]
			needVote = !voted
		}
	}
	if needVote {
		alive := mon.probe(t, r.suspect)
		if _, voted := r.votes[mon.CellID]; !voted {
			r.votes[mon.CellID] = !alive
			dead := int64(0)
			if !alive {
				dead = 1
				r.deadVotes++
			}
			mon.Tracer.Emit(t.Now(), trace.Vote, int64(r.suspect), dead, "join")
			c.tallyJoinVotes(r)
		}
	}
	v, _ := r.verdict.Wait(t)
	return v.(map[int]bool)[r.suspect]
}

// tallyVotes resolves the verdict once every (still-live) member has
// voted. It is re-run when a member dies mid-agreement, so a dead voter
// can never hang the round.
func (c *Coordinator) tallyVotes(r *round) {
	if r.verdict.Ready() || len(r.members) == 0 || len(r.votes) < len(r.members) {
		return
	}
	dead := map[int]bool{}
	if r.deadVotes*2 > len(r.members) {
		dead[r.suspect] = true
	}
	c.applyVerdict(r, dead)
}

// noteBarrier1Open fires the fault-injection hook the first time any member
// crosses barrier 1 — the inter-barrier window of the round.
func (c *Coordinator) noteBarrier1Open(r *round) {
	if r.b1Fired {
		return
	}
	r.b1Fired = true
	if c.OnBarrier1Open != nil {
		c.OnBarrier1Open(r.suspect, r.coordinator)
	}
}

// applyVerdict commits a round's outcome: live-set updates, the corrupt-
// accuser rule, and the forced stop of cells declared dead.
func (c *Coordinator) applyVerdict(r *round, dead map[int]bool) {
	if r.applied {
		return
	}
	r.applied = true
	if len(dead) == 0 {
		c.FalseAlarms++
		// Corrupt-accuser rule (§4.3): two voted-down alerts for the
		// same suspect brand the accuser corrupt.
		if c.votedDown[r.accuser] == nil {
			c.votedDown[r.accuser] = make(map[int]int)
		}
		c.votedDown[r.accuser][r.suspect]++
		if c.votedDown[r.accuser][r.suspect] >= 2 {
			r.corruptAccuser = r.accuser
			c.forcedDead[r.accuser] = true
		}
	} else {
		for _, cell := range sortedCells(dead) {
			delete(c.live, cell)
			c.DeadDeclared = append(c.DeadDeclared, cell)
			if mon := c.monitors[cell]; mon != nil {
				mon.Stop()
			}
			if c.OnDeclaredDead != nil {
				c.OnDeclaredDead(cell)
			}
		}
	}
	r.verdict.Set(dead, nil)
}

// noteRecoveryEntered records detection latency (Table 7.4's measurement:
// latency until the last cell enters recovery).
func (c *Coordinator) noteRecoveryEntered(r *round, cell int, at sim.Time) {
	r.entered[cell] = at
	if c.recoveryActive == 0 {
		c.FirstDetectAt = at
	}
	c.recoveryActive++
	if at > c.LastDetectAt {
		c.LastDetectAt = at
	}
}

// noteRecoveryDone records recovery completion times.
func (c *Coordinator) noteRecoveryDone(r *round, cell int, at sim.Time) {
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
	if r.join && cell == r.suspect && !c.live[cell] {
		// The joiner itself died mid-join (a second fault landed during
		// reintegration). The members are not waiting on it — it holds no
		// barrier slot — so the round drains normally; the commit is
		// cancelled and the requester told to retry.
		r.aborted = true
		if !r.verdict.Ready() {
			c.applyJoinVerdict(r, false)
		}
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
		r.deadVotes--
	}
	delete(r.votes, cell)
	if r.join {
		c.tallyJoinVotes(r)
	} else {
		c.tallyVotes(r)
	}
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

// ensureJoinRound joins (or creates) the join round for an announcement,
// mirroring ensureRound: a nil round with retry=false means the request is
// stale (already served, joiner already live, or no longer wanted);
// retry=true means the coordinator is busy with another round and the
// member should re-present the announcement once it drains.
func (c *Coordinator) ensureJoinRound(msg *joinMsg, cellID int) (*round, bool) {
	key := fmt.Sprintf("join:%d:%d", msg.Joiner, msg.Sequence)
	if c.cur != nil {
		if c.cur.join && c.cur.suspect == msg.Joiner && c.cur.members[cellID] &&
			!c.cur.done[cellID] && !c.cur.joined[cellID] {
			c.cur.joined[cellID] = true
			return c.cur, false
		}
		if c.cur.join && c.cur.suspect == msg.Joiner {
			c.completed[key] = true // duplicate announcement, already serving
			return nil, false
		}
		// Busy with a different round (a death round outranks a join):
		// retry while the reboot controller still wants the join.
		return nil, c.pendingJoins[msg.Joiner] != nil
	}
	if c.completed[key] {
		return nil, false
	}
	if c.live[msg.Joiner] || c.pendingJoins[msg.Joiner] == nil {
		c.completed[key] = true
		return nil, false
	}
	r := &round{
		key:     key,
		suspect: msg.Joiner,
		accuser: msg.Joiner,
		members: make(map[int]bool),
		joined:  map[int]bool{cellID: true},
		votes:   make(map[int]bool),
		verdict: &sim.Future{},
		b1Seen:  make(map[int]bool),
		b2Seen:  make(map[int]bool),
		done:    make(map[int]bool),
		entered: make(map[int]sim.Time),

		corruptAccuser: -1,
		join:           true,
	}
	for cell := range c.live {
		if mon := c.monitors[cell]; mon != nil && mon.dead {
			continue
		}
		r.members[cell] = true
	}
	if ms := sortedCells(r.members); len(ms) > 0 {
		r.coordinator = ms[0]
	}
	r.barrier1 = sim.NewBarrier(len(r.members))
	r.barrier2 = sim.NewBarrier(len(r.members))
	c.cur = r
	c.RoundsRun++
	c.JoinRounds++
	return r, false
}

// tallyJoinVotes resolves the admit/abort verdict once every still-live
// member has voted on the joiner's reachability: admission needs a strict
// majority of "reachable" votes, symmetric to the death tally.
func (c *Coordinator) tallyJoinVotes(r *round) {
	if r.verdict.Ready() || len(r.members) == 0 || len(r.votes) < len(r.members) {
		return
	}
	reachable := len(r.votes) - r.deadVotes
	c.applyJoinVerdict(r, reachable*2 > len(r.members))
}

// applyJoinVerdict commits the join round's agreement outcome. The verdict
// future resolves to the same map[int]bool shape as a death round:
// {joiner: true} = admit, empty = abort. Aborts resolve the requester
// immediately; admits resolve at commit, after the barriers.
func (c *Coordinator) applyJoinVerdict(r *round, admit bool) {
	if r.applied {
		return
	}
	r.applied = true
	verdict := map[int]bool{}
	if admit && !r.aborted {
		verdict[r.suspect] = true
	} else {
		c.resolveJoin(r, false)
	}
	r.verdict.Set(verdict, nil)
}

// noteJoinBarrier1Open fires the join-round fault-injection hook once, when
// the first member crosses barrier 1.
func (c *Coordinator) noteJoinBarrier1Open(r *round) {
	if r.b1Fired {
		return
	}
	r.b1Fired = true
	if c.OnJoinBarrier1Open != nil {
		c.OnJoinBarrier1Open(r.suspect, r.coordinator)
	}
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
	joiner := r.suspect
	c.reintegrate(joiner)
	c.Rejoins = append(c.Rejoins, joiner)
	c.LastRejoinAt = at
	tr.Emit(at, trace.Rejoin, int64(joiner), int64(r.coordinator), "")
	c.resolveJoin(r, true)
}

// resolveJoin resolves the pending join future exactly once.
func (c *Coordinator) resolveJoin(r *round, ok bool) {
	if f := c.pendingJoins[r.suspect]; f != nil {
		f.Set(ok, nil)
		delete(c.pendingJoins, r.suspect)
	}
}

// Monitors exposes the registered monitors by cell (read-only use).
func (c *Coordinator) Monitors() map[int]*Monitor { return c.monitors }
