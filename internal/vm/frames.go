package vm

import (
	"slices"

	"repro/internal/machine"
)

// The cell's pfdats (§5.1): the regular table for local frames, the
// extended map for remote ones, the loan and borrow counts kept in step
// with both, and the ascending walks the sweeps and the auditor use.

// pfdat returns the pfdat for a frame this cell tracks, or nil: a local
// frame's from the regular table, a remote frame's from the extended map.
func (v *VM) pfdat(frame machine.PageNum) *Pfdat {
	if i := uint(frame - v.firstFrame); i < uint(len(v.regular)) {
		return &v.regular[i]
	}
	return v.extended[frame]
}

// addExtended enters the pfdat of a remote frame, replacing any pfdat the
// frame had, and keeps the borrowed count in step.
func (v *VM) addExtended(pf *Pfdat) {
	v.dropExtended(pf.Frame)
	if pf.BorrowedFrom >= 0 {
		v.borrowed++
	}
	v.extended[pf.Frame] = pf
}

// dropExtended forgets a remote frame's pfdat, with the export counts
// past one it had, and keeps the borrowed count in step.
func (v *VM) dropExtended(frame machine.PageNum) {
	pf := v.extended[frame]
	if pf == nil {
		return
	}
	if pf.BorrowedFrom >= 0 {
		v.borrowed--
	}
	v.forgetClients(pf, allCells)
	delete(v.extended, frame)
}

// setLoan records that a local frame is loaned to client (-1: not
// loaned) and keeps the loaned count in step.
func (v *VM) setLoan(pf *Pfdat, client int) {
	if pf.LoanedTo >= 0 {
		v.loaned--
	}
	if client >= 0 {
		v.loaned++
	}
	pf.LoanedTo = client
}

// WalkFrames calls fn on every pfdat this cell tracks, ascending by frame:
// the regular table in place, with the extended pfdats, whose frames lie
// wholly below or above the local range, sorted around it. fn must not
// add or drop a pfdat; a sweep that can do so walks sortedFrames instead.
func (v *VM) WalkFrames(fn func(pf *Pfdat)) {
	ext := v.extendedFrames()
	i := 0
	for ; i < len(ext) && ext[i] < v.firstFrame; i++ {
		fn(v.extended[ext[i]])
	}
	for j := range v.regular {
		fn(&v.regular[j])
	}
	for ; i < len(ext); i++ {
		fn(v.extended[ext[i]])
	}
}

// extendedFrames returns the frames of the extended pfdats, ascending.
func (v *VM) extendedFrames() []machine.PageNum {
	out := make([]machine.PageNum, 0, len(v.extended))
	for f := range v.extended {
		out = append(out, f)
	}
	slices.Sort(out)
	return out
}

// numFrames counts the pfdats this cell tracks.
func (v *VM) numFrames() int { return len(v.regular) + len(v.extended) }

// sortedFrames returns the frame numbers this cell tracks, ascending: a
// snapshot for the sweeps whose bodies can add or drop pfdats.
func (v *VM) sortedFrames() []machine.PageNum {
	out := make([]machine.PageNum, 0, v.numFrames())
	v.WalkFrames(func(pf *Pfdat) { out = append(out, pf.Frame) })
	return out
}
