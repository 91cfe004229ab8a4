package membership

import "testing"

// deathRound opens the death round an alert about suspect opens on a
// coordinator of cells cells in Vote mode: every other cell is a member.
func deathRound(t *testing.T, cells, suspect int) (*Coordinator, *round) {
	t.Helper()
	c := NewCoordinator(cells, nil, Vote)
	r, _ := c.ensureRound(&alertMsg{Suspect: suspect, Accuser: 0, Sequence: 1}, 0)
	if r == nil || len(r.members) != cells-1 {
		t.Fatalf("no death round of %d members about cell %d", cells-1, suspect)
	}
	return c, r
}

// vote records member's vote on r's change, yes to carry it, as agree
// does once the member's probe returns, and tallies.
func vote(c *Coordinator, r *round, member int, yes bool) {
	r.votes[member] = yes
	if yes {
		r.yes++
	}
	c.tally(r)
}

// TestTallyNeedsStrictMajority votes every vector of a 4-member death
// round, in member order: the suspect is declared dead only on 3 or 4
// yes votes, and no verdict lands before the last vote.
func TestTallyNeedsStrictMajority(t *testing.T) {
	cases := []struct {
		votes   [4]bool
		carries bool
	}{
		{[4]bool{false, false, false, false}, false},
		{[4]bool{true, false, false, false}, false},
		{[4]bool{false, false, false, true}, false},
		{[4]bool{true, true, false, false}, false},
		{[4]bool{false, true, false, true}, false},
		{[4]bool{true, true, true, false}, true},
		{[4]bool{false, true, true, true}, true},
		{[4]bool{true, true, true, true}, true},
	}
	for _, tc := range cases {
		c, r := deathRound(t, 5, 4)
		for m, yes := range tc.votes {
			if r.verdict.Ready() {
				t.Fatalf("votes %v: a verdict before member %d voted", tc.votes, m)
			}
			vote(c, r, m, yes)
		}
		if !r.verdict.Ready() {
			t.Fatalf("votes %v: no verdict after every member voted", tc.votes)
		}
		if dead := !c.isLive(4); dead != tc.carries || c.FalseAlarms != int(b2i(!tc.carries)) {
			t.Errorf("votes %v: suspect dead=%v with %d false alarms, want dead=%v",
				tc.votes, dead, c.FalseAlarms, tc.carries)
		}
	}
}

// TestTallyWithdrawsADeadVoter kills the first yes-voter of a 3-member
// death round while the last vote is pending: its vote is withdrawn, so
// the last member's no leaves one yes of two members, which must not
// carry.
func TestTallyWithdrawsADeadVoter(t *testing.T) {
	c, r := deathRound(t, 4, 3)
	vote(c, r, 0, true)
	vote(c, r, 1, true)
	c.CellDiedMidRound(0)
	if r.verdict.Ready() {
		t.Fatal("a verdict before the last member voted")
	}
	vote(c, r, 2, false)
	if !r.verdict.Ready() || !c.isLive(3) || c.FalseAlarms != 1 {
		t.Errorf("verdict ready=%v, suspect live=%v, %d false alarms; want a false alarm: one yes of two members",
			r.verdict.Ready(), c.isLive(3), c.FalseAlarms)
	}
}
