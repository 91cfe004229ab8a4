// Fixture for the rpctaint analyzer: data arriving through rpc.Request.Args,
// a request's by-value Arg, a reply's by-value result or a SIPS payload
// must pass a named validator before reaching a kernel mutation sink.
// Taint survives type assertions and helper hops; a validate* return or a
// guard-style verify* call clears it.
package rpctaint

import (
	"errors"

	"repro/internal/kmem"
	"repro/internal/machine"
	"repro/internal/rpc"
	"repro/internal/sim"
)

type writeArgs struct {
	Addr kmem.Addr
	Val  uint64
}

type server struct {
	arena *kmem.Arena
}

// unvetted: wire args straight into an arena write.
func (s *server) unvetted(req *rpc.Request) {
	args := req.Args.(*writeArgs)
	s.arena.WriteWord(args.Addr, 0, args.Val) // want `Arena.WriteWord argument args.Addr carries rpc request args`
}

// validateWrite is a designated sanitizer: its result enters the caller
// clean.
func validateWrite(req *rpc.Request) (*writeArgs, error) {
	args, ok := req.Args.(*writeArgs)
	if !ok {
		return nil, errors.New("bad args")
	}
	return args, nil
}

// vetted: the validator return is trusted.
func (s *server) vetted(req *rpc.Request) error {
	args, err := validateWrite(req)
	if err != nil {
		return err
	}
	s.arena.WriteWord(args.Addr, 0, args.Val)
	return nil
}

func verifyArgs(a *writeArgs) error {
	if a.Val == 0 {
		return errors.New("zero value")
	}
	return nil
}

// guarded: calling a verify* function on the variable vouches for it in
// this function even though the variable itself stays tainted elsewhere.
func (s *server) guarded(req *rpc.Request) error {
	args := req.Args.(*writeArgs)
	if err := verifyArgs(args); err != nil {
		return err
	}
	s.arena.WriteWord(args.Addr, 0, args.Val)
	return nil
}

// store is one hop removed from the wire: its parameters are tainted by
// the indirect call site below and caught at the sink here.
func (s *server) store(a kmem.Addr, v uint64) {
	s.arena.WriteWord(a, 0, v) // want `Arena.WriteWord argument a carries rpc request args`
}

func (s *server) indirect(req *rpc.Request) {
	args := req.Args.(*writeArgs)
	s.store(args.Addr, args.Val)
}

// sips: the second wire source — raw SIPS payloads.
func (s *server) sips(msg *machine.SIPSMsg, addr kmem.Addr) {
	v := msg.Payload.(uint64)
	s.arena.WriteWord(addr, 0, v) // want `Arena.WriteWord argument v carries a SIPS message payload`
}

// unvettedLine: a by-value argument straight into an arena write.
func (s *server) unvettedLine(req *rpc.Request) {
	s.arena.WriteWord(kmem.Addr(req.Arg.W[0]), 0, 0) // want `Arena.WriteWord argument kmem.Addr\(req.Arg.W\[0\]\) carries an rpc line`
}

// validateLine decodes and vets a by-value argument.
func validateLine(l rpc.Line) (writeArgs, error) {
	if l.W[1] == 0 {
		return writeArgs{}, errors.New("zero value")
	}
	return writeArgs{Addr: kmem.Addr(l.W[0]), Val: uint64(l.W[1])}, nil
}

// vettedLine: the by-value argument went through a validator.
func (s *server) vettedLine(req *rpc.Request) error {
	args, err := validateLine(req.Arg)
	if err != nil {
		return err
	}
	s.arena.WriteWord(args.Addr, 0, args.Val)
	return nil
}

type client struct {
	ep    *rpc.Endpoint
	proc  *machine.Processor
	arena *kmem.Arena
}

// unvettedResult: a by-value reply result reaches a sink on the client.
func (c *client) unvettedResult(t *sim.Task) error {
	_, res, err := c.ep.Call(t, c.proc, 1, 7, nil, rpc.CallOpts{})
	if err != nil {
		return err
	}
	c.arena.WriteWord(kmem.Addr(res.W[0]), 0, 0) // want `Arena.WriteWord argument kmem.Addr\(res.W\[0\]\) carries an rpc line`
	return nil
}

// vettedResult: the client validated the result first.
func (c *client) vettedResult(t *sim.Task) error {
	_, res, err := c.ep.Call(t, c.proc, 1, 7, nil, rpc.CallOpts{})
	if err != nil {
		return err
	}
	args, err := validateLine(res)
	if err != nil {
		return err
	}
	c.arena.WriteWord(args.Addr, 0, args.Val)
	return nil
}
