// Package membership implements Hive's failure detection and recovery
// (§4.3 of the paper):
//
//   - Heuristic failure hints during normal operation: RPC timeouts, bus
//     errors, clock monitoring (each cell's clock handler checks a
//     neighbour's shared clock word every tick via the careful reference
//     protocol), and consistency-check failures from careful reads.
//   - Confirmation by distributed agreement before any cell is declared
//     failed. The paper's experiments used an oracle (the agreement
//     protocol was future work); we provide both the oracle and a real
//     broadcast-voting protocol, selectable per configuration.
//   - The corrupt-accuser rule: a cell that broadcasts the same alert twice
//     and is voted down both times is itself considered corrupt.
//   - Recovery: user processes suspended, a double global barrier
//     synchronizing TLB flush/remote-unmap (phase 1) with firewall
//     revocation and preemptive discard (phase 2), dependent-process
//     killing, election of a recovery master, hardware diagnostics, and
//     optional reboot/reintegration of repaired cells.
package membership

import (
	"fmt"
	"sort"

	"repro/internal/machine"
	"repro/internal/rpc"
	"repro/internal/sim"
	"repro/internal/stats"
	"repro/internal/trace"
)

// AgreementMode selects how alerts are confirmed.
type AgreementMode int

const (
	// Oracle consults ground truth, as the paper's experiments did
	// ("simulated by an oracle", §4.3/§7.2).
	Oracle AgreementMode = iota
	// Vote runs the real probe-and-majority-vote protocol.
	Vote
)

// Timing parameters.
const (
	// TickInterval is the clock interrupt period (10 ms UNIX tick).
	TickInterval = 10 * sim.Millisecond
	// DefaultCheckEvery is how many ticks pass between neighbour clock
	// checks; raising it shrinks monitoring cost and widens the window
	// of vulnerability (the §4.3 tradeoff).
	DefaultCheckEvery = 2
	// ProbeTimeout bounds one agreement ping.
	ProbeTimeout = 300 * sim.Microsecond
	// Phase1Base and Phase2Base are the fixed per-cell costs of the
	// recovery phases (process table scans, dangling-reference cleanup);
	// with per-page work they produce the paper's 40-80 ms recovery.
	Phase1Base = 14 * sim.Millisecond
	Phase2Base = 24 * sim.Millisecond
	// DiagnosticsCost is the recovery master's hardware check of a
	// failed node.
	DiagnosticsCost = 25 * sim.Millisecond
	// JoinPhase1Base and JoinPhase2Base are the per-member costs of the
	// join round's two phases (re-validating the joiner's identity, then
	// dropping stale state about the old incarnation and warming shared
	// caches). Deliberately cheaper than the death phases: user processes
	// keep running throughout a join.
	JoinPhase1Base = 6 * sim.Millisecond
	JoinPhase2Base = 8 * sim.Millisecond
)

// RPC procedure numbers (range 180-199).
const (
	ProcAlert rpc.ProcID = 180 + iota // failure alert broadcast
	ProcPing                          // agreement liveness probe
	ProcJoin                          // join-round announcement from a microbooted cell
)

// Hooks connect the monitor to the rest of the cell.
type Hooks struct {
	SuspendUser    func()
	ResumeUser     func()
	Phase1         func(t *sim.Task)
	Phase2         func(t *sim.Task, failed map[int]bool) int
	Finish         func()
	KillDependents func(failed map[int]bool) int
	// Panic shuts this cell down (it was declared corrupt).
	Panic func(reason string)
	// Reintegrate tells the cell a failed peer was repaired and
	// rebooted; stale state about it must be dropped.
	Reintegrate func(cell int)
}

// alertMsg is the wire form of a failure alert.
type alertMsg struct {
	Suspect  int
	Accuser  int
	Reason   string
	Sequence int
}

// joinMsg is the wire form of a join-round announcement: a microbooted
// cell asking the live members to re-admit it.
type joinMsg struct {
	Joiner   int
	Sequence int
}

// Monitor is one cell's failure detector and recovery agent.
type Monitor struct {
	CellID int
	M      *machine.Machine
	EP     *rpc.Endpoint
	Coord  *Coordinator
	Hooks  Hooks
	// NodeIDs this cell owns (clock words to tick).
	NodeIDs []int
	// ReadNeighborClock performs the careful clock read of the given
	// cell, returning its clock value or an error (wired to the careful
	// reference protocol by the cell layer).
	ReadNeighborClock func(t *sim.Task, cell int) (uint64, error)

	// CheckEvery overrides DefaultCheckEvery when positive.
	CheckEvery int

	// Tracer records this cell's detection and recovery events (nil
	// no-ops; set by the cell layer).
	Tracer *trace.Tracer

	alerts    *sim.Queue
	lastClock map[int]uint64
	alerting  map[int]bool // suspects with an active alert from this cell
	dead      bool
	seq       int
	Metrics   *stats.Registry
}

// NewMonitor builds a cell's monitor; Start must be called to launch its
// clock and recovery tasks.
func NewMonitor(m *machine.Machine, ep *rpc.Endpoint, coord *Coordinator, cellID int, nodeIDs []int) *Monitor {
	mon := &Monitor{
		CellID: cellID, M: m, EP: ep, Coord: coord, NodeIDs: nodeIDs,
		alerts:    &sim.Queue{},
		lastClock: make(map[int]uint64),
		alerting:  make(map[int]bool),
		Metrics:   stats.NewRegistry(),
	}
	coord.register(mon)
	mon.registerServices()
	return mon
}

// Start launches the clock tick task, the neighbour watch task, and the
// recovery agent task.
func (mon *Monitor) Start() {
	eng := mon.eng()
	eng.Go(fmt.Sprintf("cell%d.clock", mon.CellID), mon.clockLoop)
	eng.Go(fmt.Sprintf("cell%d.watch", mon.CellID), mon.watchLoop)
	eng.Go(fmt.Sprintf("cell%d.recovery", mon.CellID), mon.recoveryLoop)
}

// eng returns the engine this cell's monitor tasks run on.
func (mon *Monitor) eng() *sim.Engine { return mon.EP.Engine() }

// Stop marks the monitor dead (its cell failed or panicked).
func (mon *Monitor) Stop() {
	mon.dead = true
	mon.alerts.Close()
}

// proc returns a live local processor.
func (mon *Monitor) proc() *machine.Processor {
	for _, n := range mon.NodeIDs {
		p := mon.M.Nodes[n].Procs[0]
		if !p.Halted() {
			return p
		}
	}
	return mon.M.Nodes[mon.NodeIDs[0]].Procs[0]
}

// clockLoop ticks the cell's clock words (§4.3). It runs alone so the
// ticks land on schedule: the neighbour watch in watchLoop goes through
// the careful reference protocol, whose stealable CPU bursts can stall
// for tens of milliseconds when the cell's processor is saturated with
// interrupt-level RPC service — and a cell whose own clock freezes while
// it waits on a busy neighbour reads as dead to its watcher.
func (mon *Monitor) clockLoop(t *sim.Task) {
	for !mon.dead {
		t.Sleep(TickInterval)
		if mon.dead {
			return
		}
		if mon.proc().Halted() {
			return
		}
		for _, n := range mon.NodeIDs {
			if p := mon.M.Nodes[n].Procs[0]; !p.Halted() {
				mon.M.TickClock(t, p, n)
			}
		}
	}
}

// watchLoop monitors the neighbour's clock word (§4.3): a shared location
// that fails to increment, or a bus error on the read, is a failure hint.
func (mon *Monitor) watchLoop(t *sim.Task) {
	every := mon.CheckEvery
	if every <= 0 {
		every = DefaultCheckEvery
	}
	for !mon.dead {
		t.Sleep(sim.Time(every) * TickInterval)
		if mon.dead {
			return
		}
		if mon.proc().Halted() {
			return
		}
		nb := mon.Coord.neighborOf(mon.CellID)
		if nb < 0 || nb == mon.CellID {
			continue
		}
		val, err := mon.readClock(t, nb)
		if err != nil {
			mon.Hint(nb, "clock read bus error")
			continue
		}
		mon.Tracer.Emit(t.Now(), trace.Heartbeat, int64(nb), int64(val), "")
		if last, ok := mon.lastClock[nb]; ok && val == last {
			mon.Hint(nb, "clock word failed to increment")
		}
		mon.lastClock[nb] = val
	}
}

func (mon *Monitor) readClock(t *sim.Task, cell int) (uint64, error) {
	if mon.ReadNeighborClock != nil {
		return mon.ReadNeighborClock(t, cell)
	}
	return mon.M.ReadClockWord(t, mon.proc(), mon.Coord.firstNodeOf(cell))
}

// Hint receives a failure hint about a suspect cell from any detector
// (clock monitor, RPC timeout, careful reference failure). It broadcasts an
// alert unless one is already active for that suspect.
func (mon *Monitor) Hint(suspect int, reason string) {
	if mon.dead || suspect == mon.CellID || !mon.Coord.isLive(suspect) {
		return
	}
	if mon.alerting[suspect] {
		return
	}
	mon.alerting[suspect] = true
	mon.seq++
	mon.Metrics.Counter("membership.hints").Inc()
	mon.Tracer.Emit(mon.eng().Now(), trace.Hint, int64(suspect), 0, reason)
	msg := &alertMsg{Suspect: suspect, Accuser: mon.CellID, Reason: reason, Sequence: mon.seq}
	// Deliver locally, then broadcast. The broadcast runs as its own
	// task since Hint may be called from interrupt/engine context.
	mon.alerts.Push(msg)
	mon.eng().Go(fmt.Sprintf("cell%d.alertcast", mon.CellID), func(t *sim.Task) {
		span := mon.Tracer.Begin(t.Now(), "recovery:alert")
		mon.Tracer.Emit(t.Now(), trace.Alert, int64(suspect), 0, reason)
		var peers []int
		for _, c := range mon.Coord.liveSet() {
			if c != mon.CellID && c != suspect {
				peers = append(peers, c)
			}
		}
		// Fan the alert out concurrently — one sender task per peer — so
		// the cast completes in one round-trip instead of len(peers) of
		// them. At 32+ cells the serial cast dominated detection latency.
		join := sim.NewBarrier(len(peers) + 1)
		for _, c := range peers {
			c := c
			mon.eng().Go(fmt.Sprintf("cell%d.alert%d", mon.CellID, c), func(t *sim.Task) {
				//hive:lint-ignore errdrop alert cast is best-effort: a peer that cannot hear the alert is itself suspect and will be caught by its own consistency round
				mon.EP.Call(t, mon.proc(), c, ProcAlert, msg,
					rpc.CallOpts{DataBytes: 64, NoHint: true})
				join.Await(t)
			})
		}
		join.Await(t)
		mon.Tracer.End(t.Now(), span, "recovery:alert", int64(len(peers)))
	})
}

// recoveryLoop consumes alerts, runs agreement, and drives the double-
// barrier recovery rounds.
func (mon *Monitor) recoveryLoop(t *sim.Task) {
	for {
		v, ok := mon.alerts.Pop(t)
		if !ok {
			return
		}
		if mon.dead {
			return
		}
		switch msg := v.(type) {
		case *alertMsg:
			// No liveness precheck here: the verdict may already have
			// removed the suspect from the live set while this member was
			// still on its way to the round; ensureRound folds it in.
			round, retry := mon.Coord.ensureRound(msg, mon.CellID)
			if round == nil {
				if retry {
					// The coordinator is serving a round for a different
					// suspect. The alert is not stale — this suspect still
					// needs its own round once the active one drains — and
					// the accuser will not re-broadcast (its alerting flag
					// stays up while it serves the round it created), so
					// requeue the alert and try again next tick.
					t.Sleep(TickInterval)
					if mon.dead {
						return
					}
					mon.alerts.Push(msg)
					continue
				}
				delete(mon.alerting, msg.Suspect)
				continue
			}
			mon.runRound(t, round)
			delete(mon.alerting, msg.Suspect)
		case *joinMsg:
			round, retry := mon.Coord.ensureJoinRound(msg, mon.CellID)
			if round == nil {
				if retry {
					// A death round is in flight; the join waits its turn.
					t.Sleep(TickInterval)
					if mon.dead {
						return
					}
					mon.alerts.Push(msg)
				}
				continue
			}
			mon.runJoinRound(t, round)
		}
	}
}

// runRound executes one agreement + recovery round on this cell.
func (mon *Monitor) runRound(t *sim.Task, r *round) {
	// All cells temporarily suspend user-level processes (§3.1).
	if mon.Hooks.SuspendUser != nil {
		mon.Hooks.SuspendUser()
	}
	mon.Metrics.Counter("membership.rounds").Inc()

	// Agreement: oracle or probe-and-vote.
	detectSpan := mon.Tracer.Begin(t.Now(), "recovery:detect")
	verdict := mon.Coord.agree(t, mon, r)
	mon.Tracer.End(t.Now(), detectSpan, "recovery:detect", int64(len(verdict)))

	if mon.dead {
		return
	}
	if r.corruptAccuser == mon.CellID {
		// The other cells concluded we are corrupt: panic (shut down)
		// rather than keep damaging the system.
		if mon.Hooks.Panic != nil {
			mon.Hooks.Panic("voted corrupt after repeated false alerts")
		}
		return
	}

	if len(verdict) == 0 {
		// False alarm: resume. If this round branded the accuser
		// corrupt, every other cell now alerts about the accuser.
		if mon.Hooks.ResumeUser != nil {
			mon.Hooks.ResumeUser()
		}
		accused := r.corruptAccuser
		mon.Coord.finishRound(r, mon.CellID)
		if accused >= 0 && accused != mon.CellID {
			mon.Hint(accused, "corrupt after repeated voted-down alerts")
		}
		return
	}

	// Confirmed failure: enter recovery.
	mon.Coord.noteRecoveryEntered(r, mon.CellID, t.Now())
	mon.Metrics.Counter("membership.recoveries").Inc()

	proc := mon.proc()
	b1Span := mon.Tracer.Begin(t.Now(), "recovery:barrier1")
	proc.Use(t, Phase1Base)
	if mon.dead {
		// This member died during phase 1: it must not arrive at the
		// barrier, whose party count no longer includes it — a dead
		// member's arrival would open the barrier early and strand a
		// live member in the next generation.
		return
	}
	if mon.Hooks.Phase1 != nil {
		mon.Hooks.Phase1(t)
	}
	r.b1Seen[mon.CellID] = true
	r.barrier1.Await(t)
	mon.Coord.noteBarrier1Open(r)
	mon.Tracer.End(t.Now(), b1Span, "recovery:barrier1", 0)

	b2Span := mon.Tracer.Begin(t.Now(), "recovery:barrier2")
	proc.Use(t, Phase2Base)
	if mon.dead {
		// Died between the barriers (the v2 campaign's favorite spot).
		return
	}
	var discarded, killed int64
	if mon.Hooks.Phase2 != nil {
		discarded = int64(mon.Hooks.Phase2(t, verdict))
	}
	if mon.Hooks.KillDependents != nil {
		killed = int64(mon.Hooks.KillDependents(verdict))
	}
	r.b2Seen[mon.CellID] = true
	r.barrier2.Await(t)
	mon.Tracer.End(t.Now(), b2Span, "recovery:barrier2", discarded+killed)
	if mon.dead {
		return
	}

	resumeSpan := mon.Tracer.Begin(t.Now(), "recovery:resume")
	if mon.Hooks.Finish != nil {
		mon.Hooks.Finish()
	}
	if mon.Hooks.ResumeUser != nil {
		mon.Hooks.ResumeUser()
	}
	mon.Coord.noteRecoveryDone(r, mon.CellID, t.Now())
	mon.Tracer.End(t.Now(), resumeSpan, "recovery:resume", 0)

	// The round coordinator (the recovery master — lowest live member,
	// reassigned deterministically if it died mid-round) runs hardware
	// diagnostics on the failed nodes (§4.3); the reboot controller, not
	// the master, brings a repaired cell back through a join round.
	if r.coordinator == mon.CellID {
		for range len(verdict) {
			mon.runDiagnostics(t)
		}
	}
	mon.Coord.finishRound(r, mon.CellID)
}

// runJoinRound executes one join round on a live member cell: validate
// the joiner's fresh image (probe or oracle — the joiner is untrusted
// until the commit, so even validation traffic rides the ordinary RPC
// boundary), then a double barrier symmetric to the death round — stale
// state about the old incarnation is dropped between the barriers — and
// finally the coordinator commits the joiner into the live set. Unlike a
// death round, user processes keep running throughout: the availability
// loop must not pause the survivors' workloads.
func (mon *Monitor) runJoinRound(t *sim.Task, r *round) {
	mon.Metrics.Counter("membership.joinrounds").Inc()

	validateSpan := mon.Tracer.Begin(t.Now(), "join:validate")
	admit := mon.Coord.agreeJoin(t, mon, r)
	var admitted int64
	if admit {
		admitted = 1
	}
	mon.Tracer.End(t.Now(), validateSpan, "join:validate", admitted)
	if mon.dead {
		return
	}
	if !admit {
		// The fresh image is unreachable (or died already): abort. The
		// requester was resolved by the verdict; the members just drain.
		mon.Coord.finishRound(r, mon.CellID)
		return
	}

	proc := mon.proc()
	b1Span := mon.Tracer.Begin(t.Now(), "join:barrier1")
	proc.Use(t, JoinPhase1Base)
	if mon.dead {
		// Same rule as the death round: a member that died during the
		// phase must not arrive at a barrier that no longer counts it.
		return
	}
	r.b1Seen[mon.CellID] = true
	r.barrier1.Await(t)
	mon.Coord.noteJoinBarrier1Open(r)
	mon.Tracer.End(t.Now(), b1Span, "join:barrier1", 0)

	b2Span := mon.Tracer.Begin(t.Now(), "join:warm")
	proc.Use(t, JoinPhase2Base)
	if mon.dead {
		return
	}
	// Drop stale state about the old incarnation before the fresh one
	// becomes visible.
	if mon.Hooks.Reintegrate != nil {
		mon.Hooks.Reintegrate(r.suspect)
	}
	r.b2Seen[mon.CellID] = true
	r.barrier2.Await(t)
	mon.Tracer.End(t.Now(), b2Span, "join:warm", 0)
	if mon.dead {
		return
	}

	if r.coordinator == mon.CellID {
		mon.Coord.commitJoin(r, t.Now(), mon.Tracer)
	}
	mon.Coord.finishRound(r, mon.CellID)
}

// AnnounceJoin broadcasts the microbooted cell's join request to every
// live member and waits for the casts to land. The request travels the
// ordinary RPC path — checksummed on the wire, sanity-checked at the
// receiver — because the joiner is untrusted until the round commits.
func (mon *Monitor) AnnounceJoin(t *sim.Task, seq int) {
	span := mon.Tracer.Begin(t.Now(), "join:announce")
	msg := &joinMsg{Joiner: mon.CellID, Sequence: seq}
	peers := mon.Coord.liveSet()
	join := sim.NewBarrier(len(peers) + 1)
	for _, c := range peers {
		c := c
		mon.eng().Go(fmt.Sprintf("cell%d.join%d", mon.CellID, c), func(t *sim.Task) {
			//hive:lint-ignore errdrop join announce is best-effort: a member that cannot be reached is itself failing and will leave the round via CellDiedMidRound
			mon.EP.Call(t, mon.proc(), c, ProcJoin, msg,
				rpc.CallOpts{DataBytes: 64, NoHint: true})
			join.Await(t)
		})
	}
	join.Await(t)
	mon.Tracer.End(t.Now(), span, "join:announce", int64(len(peers)))
}

// runDiagnostics charges the recovery master's hardware check of one
// failed cell's nodes.
func (mon *Monitor) runDiagnostics(t *sim.Task) {
	mon.proc().Use(t, DiagnosticsCost)
	mon.Metrics.Counter("membership.diagnostics").Inc()
}

// registerServices installs the alert and ping services.
func (mon *Monitor) registerServices() {
	mon.EP.Register(ProcAlert, "membership.alert",
		func(req *rpc.Request) (any, sim.Time, bool, error) {
			msg, ok := req.Args.(*alertMsg)
			if !ok || msg.Accuser != req.From || msg.Suspect == mon.CellID {
				// A cell alerting about *us* gets no cooperation;
				// sanity checks defend against forged alerts.
				return nil, 0, true, fmt.Errorf("membership: bad alert")
			}
			// Receiving an alert suppresses this cell's own broadcast for
			// the same suspect: the sender's cast already reached every
			// live cell, so a second cast would only add another N-message
			// wave (N independent accusers × N recipients grows O(N²) with
			// the cell count; the flag keeps the total O(N)). The queued
			// copy below still guarantees this cell joins the round.
			mon.alerting[msg.Suspect] = true
			mon.alerts.Push(msg)
			return nil, 20 * sim.Microsecond, true, nil
		}, nil)

	mon.EP.Register(ProcPing, "membership.ping",
		func(req *rpc.Request) (any, sim.Time, bool, error) {
			return "pong", 0, true, nil
		}, nil)

	mon.EP.Register(ProcJoin, "membership.join",
		func(req *rpc.Request) (any, sim.Time, bool, error) {
			msg, ok := req.Args.(*joinMsg)
			if !ok || msg.Joiner != req.From || msg.Joiner == mon.CellID {
				// A join announcement must come from the joiner itself;
				// anything else is a forged or corrupt request. The live
				// check happens later, inside ensureJoinRound.
				return nil, 0, true, fmt.Errorf("membership: bad join request")
			}
			mon.alerts.Push(msg)
			return nil, 20 * sim.Microsecond, true, nil
		}, nil)
}

// probe tests a suspect's liveness for the voting protocol: two pings, dead
// only if both fail.
func (mon *Monitor) probe(t *sim.Task, suspect int) bool {
	for attempt := 0; attempt < 2; attempt++ {
		_, err := mon.EP.Call(t, mon.proc(), suspect, ProcPing, nil,
			rpc.CallOpts{Timeout: ProbeTimeout, NoHint: true})
		if err == nil {
			return true // alive
		}
	}
	return false
}

// sortedCells returns keys ascending (determinism helper).
func sortedCells(m map[int]bool) []int {
	out := make([]int, 0, len(m))
	for c := range m {
		out = append(out, c)
	}
	sort.Ints(out)
	return out
}

// sortedMonitorIDs returns the registered cell ids ascending.
func sortedMonitorIDs(m map[int]*Monitor) []int {
	out := make([]int, 0, len(m))
	for c := range m {
		out = append(out, c)
	}
	sort.Ints(out)
	return out
}
