// Fixture for the errdrop analyzer: an rpc call's error is a dead-cell
// hint, so discarding it — as a bare statement, via go/defer, assigned to
// _, or assigned and never read — is flagged, one helper hop included.
package errdrop

import (
	"repro/internal/machine"
	"repro/internal/rpc"
	"repro/internal/sim"
)

type cell struct {
	ep   *rpc.Endpoint
	proc *machine.Processor
}

// dropped: the statement-shaped discards.
func (c *cell) dropped(t *sim.Task) {
	c.ep.Call(t, c.proc, 1, 7, nil, rpc.CallOpts{})           // want `result of Call discarded`
	_, _, _ = c.ep.Call(t, c.proc, 1, 7, nil, rpc.CallOpts{}) // want `error of Call assigned to _`
}

// fired: go and defer throw the error away just as surely.
func (c *cell) fired(t *sim.Task) {
	go c.ep.Call(t, c.proc, 1, 7, nil, rpc.CallOpts{})    // want `result of Call discarded by go statement`
	defer c.ep.Call(t, c.proc, 1, 7, nil, rpc.CallOpts{}) // want `result of Call discarded by defer`
}

// lost: assigned to a named result, then overwritten before anyone reads
// it — the timeout is gone.
func (c *cell) lost(t *sim.Task) (err error) {
	_, _, err = c.ep.Call(t, c.proc, 1, 7, nil, rpc.CallOpts{}) // want `error of Call assigned to err but never read in lost`
	err = nil
	return
}

// ping propagates the rpc error upward: it is a member of the erroring
// set, and dropping ITS result drops the timeout one hop removed.
func (c *cell) ping(t *sim.Task) error {
	_, _, err := c.ep.Call(t, c.proc, 1, 7, nil, rpc.CallOpts{})
	return err
}

func (c *cell) fanout(t *sim.Task) {
	c.ping(t) // want `result of ping discarded`
}

// handled: reading the error — even just to count the failure — is the
// contract.
func (c *cell) handled(t *sim.Task) int {
	fails := 0
	if _, _, err := c.ep.Call(t, c.proc, 1, 7, nil, rpc.CallOpts{}); err != nil {
		fails++
	}
	return fails
}

// bestEffort shows the documented escape hatch for deliberate advisory
// sends to possibly-dead peers.
func (c *cell) bestEffort(t *sim.Task) {
	//hive:lint-ignore errdrop fixture: deliberate best-effort cast to a possibly-dead peer
	c.ep.Call(t, c.proc, 1, 7, nil, rpc.CallOpts{})
}
