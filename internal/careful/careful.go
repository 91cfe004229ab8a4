// Package careful implements the careful reference protocol of §4.1: the
// discipline a cell follows when reading another cell's internal kernel
// data structures directly through shared memory. The protocol defends the
// reading cell against bus errors (failed nodes), invalid pointers, linked
// structures with loops, and values that change mid-operation:
//
//  1. careful_on captures the current context and names the cell about to
//     be read; bus errors inside the window return to this context instead
//     of panicking the kernel.
//  2. Every remote address is checked for alignment and for addressing the
//     expected cell's memory range before use.
//  3. Data is copied to local memory before sanity checks, defending
//     against concurrent modification.
//  4. Each remote object's allocator-written type tag is verified.
//  5. careful_off restores normal trap handling.
//
// The measured cost of the full on→read→off sequence for the clock-monitor
// read is 1.16 µs (232 cycles at 200 MHz), of which 0.7 µs is the remote
// cache miss (§4.1); the component costs below reproduce that.
package careful

import (
	"errors"
	"fmt"

	"repro/internal/kmem"
	"repro/internal/machine"
	"repro/internal/sim"
	"repro/internal/trace"
)

// Component costs (ns), calibrated so a single-word careful read totals
// 1.16 µs with a 700 ns miss (§4.1).
const (
	OnCost        sim.Time = 200 // capture stack frame, arm trap handler
	OffCost       sim.Time = 110 // disarm trap handler
	AddrCheckCost sim.Time = 50  // alignment + range validation
	SanityCost    sim.Time = 100 // per-object tag/sanity check
)

// Protocol failure modes. All are survivable by the reading cell; each is
// also a failure-detection hint about the remote cell (§4.3).
var (
	// ErrBadPointer covers misaligned addresses, addresses outside the
	// expected cell, and nil dereferences.
	ErrBadPointer = errors.New("careful: invalid remote pointer")
	// ErrBadTag is a type-tag mismatch: the pointer is stale or wild.
	ErrBadTag = errors.New("careful: type tag mismatch")
	// ErrBusError wraps a hardware bus error caught by the armed handler.
	ErrBusError = errors.New("careful: bus error during remote read")
)

// Reader performs careful reads on behalf of one cell. HintSink, if set,
// receives a hint naming the suspect cell whenever a careful operation
// fails — wiring consistency-check failures into failure detection.
type Reader struct {
	M        *machine.Machine
	Space    *kmem.Space
	HintSink func(suspectCell int, reason string)
	// Tracer, if set, records a CarefulAbort event whenever a window
	// fails — the forensic record that bad remote data was discarded
	// at the protocol boundary instead of trusted.
	Tracer *trace.Tracer
}

// Ctx is one careful_on..careful_off window.
type Ctx struct {
	r          *Reader
	t          *sim.Task
	proc       *machine.Processor
	expectCell int
	err        error
	lineReads  int
}

// On opens a careful window for reading cell expectCell's memory from proc.
func (r *Reader) On(t *sim.Task, proc *machine.Processor, expectCell int) *Ctx {
	proc.Use(t, OnCost)
	return &Ctx{r: r, t: t, proc: proc, expectCell: expectCell}
}

// Off closes the window and returns the first error encountered (nil on a
// clean read). If the window failed, the hint sink is notified.
func (c *Ctx) Off() error {
	c.proc.Use(c.t, OffCost)
	if c.err != nil {
		c.r.Tracer.Emit(c.r.M.Eng.Now(), trace.CarefulAbort,
			int64(c.expectCell), 0, c.err.Error())
		if c.r.HintSink != nil {
			c.r.HintSink(c.expectCell, c.err.Error())
		}
	}
	return c.err
}

func (c *Ctx) fail(err error) {
	if c.err == nil {
		c.err = err
	}
}

// CheckAddr validates a remote address: non-nil, word-aligned, and within
// the expected cell's memory. It reports whether the address is usable.
func (c *Ctx) CheckAddr(addr kmem.Addr) bool {
	if c.err != nil {
		return false
	}
	c.proc.Use(c.t, AddrCheckCost)
	if addr == kmem.NilAddr || !addr.Aligned() {
		c.fail(fmt.Errorf("%w: %v", ErrBadPointer, addr))
		return false
	}
	if addr.Cell() != c.expectCell {
		c.fail(fmt.Errorf("%w: %v addresses cell %d, expected %d",
			ErrBadPointer, addr, addr.Cell(), c.expectCell))
		return false
	}
	return true
}

// CheckTag validates the object's allocator-written type tag — the first
// line of defense against invalid remote pointers (§4.1). The address must
// already have passed CheckAddr.
func (c *Ctx) CheckTag(addr kmem.Addr, want kmem.TypeTag) bool {
	if c.err != nil {
		return false
	}
	c.chargeRead()
	tag, err := c.r.Space.TagAt(addr)
	if err != nil {
		c.fail(fmt.Errorf("%w reading tag at %v", ErrBusError, addr))
		return false
	}
	c.proc.Use(c.t, SanityCost)
	if tag != want {
		c.fail(fmt.Errorf("%w at %v: tag %#x, want %#x", ErrBadTag, addr, tag, want))
		return false
	}
	return true
}

// chargeRead charges one remote cache line miss per 16 words read in this
// window (128-byte lines of 8-byte words), subsequent words hitting in
// cache — the cost structure behind the 1.16 µs single-word figure.
func (c *Ctx) chargeRead() {
	if c.lineReads%16 == 0 {
		if c.expectCell == -1 || c.proc.Node.ID == c.expectCell {
			c.r.M.CacheHit(c.t, c.proc)
		} else {
			c.r.M.RemoteMiss(c.t, c.proc)
		}
	} else {
		c.r.M.CacheHit(c.t, c.proc)
	}
	c.lineReads++
}

// ReadWord reads word i of the remote object at addr. On a bus error the
// window fails and 0 is returned; garbage from wild pointers is returned
// as-is for the caller's sanity checks to catch.
func (c *Ctx) ReadWord(addr kmem.Addr, i int) uint64 {
	if c.err != nil {
		return 0
	}
	c.chargeRead()
	v, err := c.r.Space.ReadWord(addr, i)
	if err != nil {
		c.fail(fmt.Errorf("%w at %v+%d", ErrBusError, addr, i))
		return 0
	}
	return v
}

// CopyObject copies n words of the object at addr into local memory before
// any sanity checking (step 3 of the protocol): the returned slice cannot
// change under the caller even if the remote cell keeps mutating.
func (c *Ctx) CopyObject(addr kmem.Addr, n int) []uint64 {
	if c.err != nil {
		return nil
	}
	out := make([]uint64, n)
	for i := 0; i < n; i++ {
		out[i] = c.ReadWord(addr, i)
		if c.err != nil {
			return nil
		}
	}
	return out
}

// ReadClock reads the clock word of node nodeID — the clock-monitoring
// check (§4.3) — inside this window.
func (c *Ctx) ReadClock(nodeID int) uint64 {
	if c.err != nil {
		return 0
	}
	c.proc.Use(c.t, AddrCheckCost+SanityCost) // vector check + monotonicity sanity
	v, err := c.r.M.ReadClockWord(c.t, c.proc, nodeID)
	if err != nil {
		c.fail(fmt.Errorf("%w reading clock of node %d", ErrBusError, nodeID))
		return 0
	}
	return v
}
