// Package core implements the paper's primary contribution: the WRHT
// (Wavelength Reused Hierarchical Tree) all-reduce scheme for optical
// ring interconnects (§4), together with its closed-form analysis
// (Table 1, Lemma 1, Theorem 1) and the torus/mesh extension sketched in
// §6.1.
//
// A collective is represented as an explicit Schedule: an ordered list of
// bulk-synchronous steps, each holding the point-to-point transfers that
// proceed in parallel on separate (direction, wavelength) circuits. The
// same schedule drives three consumers: the optical timing simulator
// (internal/optical), the wavelength-conflict validator (internal/rwa),
// and the real data-plane executor (internal/cluster).
package core

import (
	"fmt"

	"wrht/internal/rwa"
	"wrht/internal/tensor"
	"wrht/internal/topo"
)

// Phase labels the role of a step within the collective.
type Phase int

const (
	// PhaseReduce steps move partial sums toward representatives (§4.1).
	PhaseReduce Phase = iota
	// PhaseAllToAll is the final exchange among top-level representatives
	// when the wavelength budget permits it (§4.1.2).
	PhaseAllToAll
	// PhaseBroadcast steps fan the reduced vector back out, reversing the
	// reduce stage (§4.1).
	PhaseBroadcast
)

func (p Phase) String() string {
	switch p {
	case PhaseReduce:
		return "reduce"
	case PhaseAllToAll:
		return "all-to-all"
	case PhaseBroadcast:
		return "broadcast"
	default:
		return fmt.Sprintf("Phase(%d)", int(p))
	}
}

// Transfer is one point-to-point movement within a step. Src sends the
// designated chunk of its local vector state; Dst applies Op. On the
// optical ring the transfer owns wavelength Wavelength on the Dir fiber
// along the arc from Src to Dst for the duration of the step.
type Transfer struct {
	Src, Dst   int
	Chunk      tensor.Chunk
	Op         tensor.ReduceOp
	Dir        topo.Direction
	Wavelength int
}

func (t Transfer) String() string {
	return fmt.Sprintf("%d->%d %s %s λ%d %s", t.Src, t.Dst, t.Chunk, t.Op, t.Wavelength, t.Dir)
}

// Step is one bulk-synchronous communication round. All transfer
// payloads are read from pre-step state and all reductions are applied
// before the next step begins (circuit-switched semantics: the MRRs are
// reconfigured between steps, §4.2).
type Step struct {
	Phase     Phase
	Transfers []Transfer
}

// MaxWavelength returns the highest wavelength index used in the step
// plus one (i.e. the wavelength count), or 0 for an empty step.
func (s Step) MaxWavelength() int {
	m := 0
	for _, t := range s.Transfers {
		if t.Wavelength+1 > m {
			m = t.Wavelength + 1
		}
	}
	return m
}

// Schedule is a complete collective schedule over an N-node ring.
type Schedule struct {
	Algorithm string
	Ring      topo.Ring
	Steps     []Step
}

// NumSteps returns the communication step count θ of the schedule.
func (s *Schedule) NumSteps() int { return len(s.Steps) }

// WavelengthsNeeded returns the largest per-step wavelength count.
func (s *Schedule) WavelengthsNeeded() int {
	m := 0
	for _, st := range s.Steps {
		if w := st.MaxWavelength(); w > m {
			m = w
		}
	}
	return m
}

// Validate checks structural sanity and wavelength conflict-freedom of
// every step: node ids in range, chunks well formed, no self transfers,
// no two same-direction same-wavelength transfers with overlapping arcs,
// and (if wavelengths > 0) every wavelength within budget.
func (s *Schedule) Validate(wavelengths int) error {
	// One occupancy index serves every step, moved between steps by
	// rwa.Index.Transition; every scratch buffer is reused across steps
	// (see StepValidator).
	return s.ValidateWithIndex(rwa.NewIndex(s.Ring), wavelengths)
}

// ValidateWithIndex is Validate over a caller-supplied occupancy index,
// so fault-aware callers can seed pre-occupied (masked) cells — dead
// wavelengths, cut fiber segments — that every step must route around
// (the index is reset once on entry, which preserves the seeds; a step
// touching one fails with rwa.MaskedConflict). Validation runs over the
// schedule's step stream, moving the index from step to step
// (validate.go); the errors are identical to the historical per-step
// Reset+replay behaviour.
func (s *Schedule) ValidateWithIndex(ix *rwa.Index, wavelengths int) error {
	return ValidateSource(s.Source(), ix, wavelengths)
}

// StepsByPhase returns the number of steps per phase.
func (s *Schedule) StepsByPhase() (reduce, a2a, bcast int) {
	for _, st := range s.Steps {
		switch st.Phase {
		case PhaseReduce:
			reduce++
		case PhaseAllToAll:
			a2a++
		case PhaseBroadcast:
			bcast++
		}
	}
	return
}

// Profile is the analytic step profile of a collective: a sequence of
// homogeneous step groups. It carries exactly the information the Eq-6
// timing model needs, so large configurations (N in the thousands, GB
// vectors) can be timed without materialising millions of Transfer
// structs. Constructive schedules and profiles are cross-checked for
// equality on small N by the test suite.
type Profile struct {
	Algorithm string
	Groups    []ProfileGroup
}

// ProfileGroup is a run of Steps identical steps whose busiest circuit
// carries FracOfD × d bytes (d = per-node vector size).
type ProfileGroup struct {
	Steps   int
	FracOfD float64
	// Wavelengths is the per-step wavelength requirement of the group
	// (informational; used by feasibility checks and reports).
	Wavelengths int
}

// NumSteps returns the total step count of the profile.
func (p Profile) NumSteps() int {
	n := 0
	for _, g := range p.Groups {
		n += g.Steps
	}
	return n
}

// ProfileOf derives the analytic profile of an explicit schedule by
// grouping consecutive steps with identical busiest-circuit fractions.
func ProfileOf(s *Schedule) Profile {
	p := Profile{Algorithm: s.Algorithm}
	for _, st := range s.Steps {
		frac := 0.0
		for _, t := range st.Transfers {
			if f := t.Chunk.Fraction(); f > frac {
				frac = f
			}
		}
		w := st.MaxWavelength()
		if k := len(p.Groups); k > 0 && p.Groups[k-1].FracOfD == frac && p.Groups[k-1].Wavelengths == w {
			p.Groups[k-1].Steps++
		} else {
			p.Groups = append(p.Groups, ProfileGroup{Steps: 1, FracOfD: frac, Wavelengths: w})
		}
	}
	return p
}
