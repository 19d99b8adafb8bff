package core

import (
	"fmt"

	"wrht/internal/rwa"
	"wrht/internal/topo"
)

// CheckStep runs the structural checks every consumer needs before it
// indexes by node or chunk: each transfer's endpoints lie in [0, n),
// it is no self transfer, and its chunk is well formed. si numbers the
// step in the error. fabric.Engine.RunStream runs it on each step it
// does not validate; StepValidator.Step runs the same per-transfer
// check inside its circuit loop, so a step is read once.
func CheckStep(st *Step, si, n int) error {
	for ti := range st.Transfers {
		if err := checkTransfer(&st.Transfers[ti], si, ti, n); err != nil {
			return err
		}
	}
	return nil
}

// checkTransfer is CheckStep's test of transfer ti of step si.
func checkTransfer(t *Transfer, si, ti, n int) error {
	if t.Src < 0 || t.Src >= n || t.Dst < 0 || t.Dst >= n {
		return fmt.Errorf("core: step %d transfer %d: node out of range: %v", si, ti, *t)
	}
	if t.Src == t.Dst {
		return fmt.Errorf("core: step %d transfer %d: self transfer: %v", si, ti, *t)
	}
	if err := t.Chunk.Validate(); err != nil {
		return fmt.Errorf("core: step %d transfer %d: %w", si, ti, err)
	}
	return nil
}

// StepValidator validates a schedule one step at a time: CheckStep's
// structural checks, then wavelength conflict-freedom on an occupancy
// index that follows the stream (rwa.Index.Transition). A step that
// repeats the previous step's circuits in order leaves the index as it
// is. Any other step is first probed against the circuits the index
// holds, which answers the engine's overlap question for the boundary
// (Disjoint), and then replaces them. The retained state is two
// circuit buffers (previous and current step), each grown once per
// step to the step's transfer count, and the index, so validating a
// streamed schedule costs O(max step) + O(index) memory, independent
// of the step count (pinned by TestValidateAllocsStepCountIndependent).
//
// Error behaviour is bit-identical to the materialized validator: when
// the transition finds a conflict (or a wavelength is out of range),
// the step is re-validated through rwa.Index.Validate — Reset+replay
// with the quadratic-oracle fallback — so the reported error, including
// which rwa.Conflict pair is named, matches the legacy path exactly.
// The request/arc/assignment view that fallback needs is only built on
// that error path, never per clean step.
type StepValidator struct {
	ring        topo.Ring
	ix          *rwa.Index
	wavelengths int
	si          int
	// held lists the circuits the index holds over its base cells (the
	// last validated step's); next is the buffer the following step's
	// circuits are built in.
	held, next []rwa.Circuit
	disjoint   bool
}

// NewStepValidator returns a validator over the caller-supplied index
// (which may carry pre-occupied fault-mask cells; it is reset once on
// entry, preserving them) checking every wavelength against the budget
// (0 disables the range check).
func NewStepValidator(ring topo.Ring, ix *rwa.Index, wavelengths int) *StepValidator {
	ix.Reset()
	return &StepValidator{ring: ring, ix: ix, wavelengths: wavelengths}
}

// Step validates the next schedule step. Steps must be presented in
// schedule order; the reported step index counts calls.
func (v *StepValidator) Step(st *Step) error {
	si := v.si
	v.si++
	if cap(v.next) < len(st.Transfers) {
		v.next = make([]rwa.Circuit, 0, len(st.Transfers))
	}
	next := v.next[:0]
	rangeBad := false
	for ti := range st.Transfers {
		t := &st.Transfers[ti]
		if err := checkTransfer(t, si, ti, v.ring.N); err != nil {
			return err
		}
		next = append(next, rwa.Circuit{Dir: t.Dir, Arc: v.ring.ArcOf(t.Src, t.Dst, t.Dir), W: t.Wavelength})
		if t.Wavelength < 0 || (v.wavelengths > 0 && t.Wavelength >= v.wavelengths) {
			rangeBad = true
		}
	}
	ok := false
	v.disjoint = false
	if !rangeBad {
		v.disjoint, ok = v.ix.Transition(v.held, next)
	}
	if !ok {
		// Authoritative re-check through the legacy Reset+replay path so
		// the error value is bit-identical to the materialized validator.
		// This is the error path (or about to be), so building the
		// request view here — the only place it is needed — keeps the
		// clean path allocation-free. On the (defensive) chance the
		// re-check passes after all, the index is left holding exactly
		// this step's circuits over the fault mask, which is the state
		// the next transition needs.
		reqs := make([]rwa.Request, 0, len(st.Transfers))
		arcs := make([]topo.Arc, 0, len(st.Transfers))
		asn := make(rwa.Assignment, 0, len(st.Transfers))
		for ti := range st.Transfers {
			t := &st.Transfers[ti]
			reqs = append(reqs, rwa.Request{Src: t.Src, Dst: t.Dst, Dir: t.Dir})
			arcs = append(arcs, v.ring.ArcOf(t.Src, t.Dst, t.Dir))
			asn = append(asn, t.Wavelength)
		}
		if err := v.ix.Validate(reqs, arcs, asn, v.wavelengths); err != nil {
			// Leave the index holding the base alone, as held says, so
			// the validator stays consistent if it is fed on.
			v.ix.Reset()
			v.held = v.held[:0]
			return fmt.Errorf("core: step %d: %w", si, err)
		}
	}
	v.held, v.next = next, v.held
	return nil
}

// Disjoint reports the overlap answer for the boundary into the last
// validated step: whether none of its circuits meets a circuit of the
// step before it on the same direction, wavelength and fiber segment.
// On two valid steps that is fabric.StepsDisjoint's verdict, computed
// while the index still held the earlier step, so a validated engine
// run needs no probe of its own. It is meaningful from the second step
// on.
func (v *StepValidator) Disjoint() bool { return v.disjoint }

// ValidateSource drains a StepSource through a StepValidator: the
// streamed equivalent of Schedule.Validate, in O(max step) memory. A
// nil index allocates a fresh one for the source's ring.
func ValidateSource(src StepSource, ix *rwa.Index, wavelengths int) error {
	if ix == nil {
		ix = rwa.NewIndex(src.Ring())
	}
	v := NewStepValidator(src.Ring(), ix, wavelengths)
	for {
		st, ok := src.Next()
		if !ok {
			return nil
		}
		if err := v.Step(st); err != nil {
			return err
		}
	}
}
