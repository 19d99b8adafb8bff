package fabric

import (
	"fmt"
	"math"

	"wrht/internal/core"
	"wrht/internal/rwa"
)

// Options configures one engine run.
type Options struct {
	// ValidateWavelengths checks explicit schedules for structural
	// sanity and wavelength conflict-freedom against the fabric's
	// circuit budget before timing them.
	ValidateWavelengths bool
	// Overlap pipelines each step's circuit setup under the previous
	// step's transmission when the two steps' (direction, wavelength)
	// circuits are disjoint per the internal/rwa conflict model. Only
	// explicit schedules carry circuits, so profile runs reject it.
	Overlap bool
	// Observer, when non-nil, receives a StepEvent per executed schedule
	// step and a GroupEvent per profile group (see observer.go). Nil is
	// the default fast path: one pointer comparison, zero allocations.
	Observer Observer
	// RWAStats, when non-nil, is attached to the occupancy index behind
	// the overlap probes so first-fit/saturation counters accumulate
	// there. A validated RunStream probes nothing: its step validator
	// answers each boundary.
	RWAStats *rwa.Stats
	// BoundaryDisjoint, when non-nil, supplies the overlap mode's
	// per-boundary disjointness decisions up front: entry k-1 answers
	// whether steps k-1 and k may hold their circuits simultaneously,
	// replacing the per-boundary rwa probe. internal/ir computes it
	// (Program.Boundaries) so schedules rewritten by IR passes are
	// consumed without re-probing. The length must be NumSteps()-1 (0
	// for empty schedules); it is ignored unless Overlap is set.
	BoundaryDisjoint []bool
}

// Engine executes collective schedules and analytic profiles on a
// Fabric. The zero Options value reproduces the pre-engine simulators
// bit for bit (asserted by the parity tests in internal/optical and
// internal/electrical).
type Engine struct {
	Fabric Fabric
	Opts   Options
}

// StepReport is the per-step outcome of an explicit schedule run.
type StepReport struct {
	Phase core.Phase
	Cost  StepCost
	// Overlapped is how much of Cost.Setup was hidden under the
	// previous step's transmission (zero unless Options.Overlap).
	Overlapped float64
}

// Duration returns the step's wall-clock contribution after overlap.
func (r StepReport) Duration() float64 { return r.Cost.Total - r.Overlapped }

// Result is the outcome of executing one collective on a fabric.
type Result struct {
	Fabric    string
	Algorithm string
	Steps     int
	// Time is the total communication time in seconds.
	Time float64
	// TransferTime accumulates the serialization + O-E-O components,
	// OverheadTime the circuit-setup components and RouterTime the
	// router pipeline latencies.
	TransferTime float64
	OverheadTime float64
	RouterTime   float64
	// OverlapSaved is the total setup time hidden by overlap mode; it
	// is bounded by (θ−1)·a and already subtracted from Time.
	OverlapSaved float64
	// PerStep is the per-step breakdown (populated by RunSchedule only;
	// profile runs stay O(groups)).
	PerStep []StepReport
}

// RunSchedule executes an explicit schedule carrying a dBytes-sized
// per-node vector and returns the simulated timing.
func (e Engine) RunSchedule(s *core.Schedule, dBytes float64) (Result, error) {
	f := e.Fabric
	if err := f.CheckSchedule(s); err != nil {
		return Result{}, err
	}
	if e.Opts.ValidateWavelengths {
		if err := s.Validate(f.CircuitBudget()); err != nil {
			return Result{}, err
		}
	}
	elems, err := core.ElemsOf(dBytes)
	if err != nil {
		return Result{}, fmt.Errorf("fabric: %w", err)
	}
	bd := e.Opts.BoundaryDisjoint
	if e.Opts.Overlap && bd != nil && len(bd) != max(s.NumSteps()-1, 0) {
		return Result{}, fmt.Errorf("fabric: BoundaryDisjoint carries %d boundaries for a %d-step schedule", len(bd), s.NumSteps())
	}
	res := Result{Fabric: f.Name(), Algorithm: s.Algorithm, Steps: s.NumSteps()}
	if err := e.timeSteps(s.Source(), elems, nil, false, &res); err != nil {
		return Result{}, err
	}
	return res, nil
}

// RunStream is RunSchedule over a step stream: the schedule is never
// materialized, so peak memory is O(max step) + O(occupancy index)
// regardless of the step count, and N in the millions becomes
// reachable. The timing accumulation is the exact statement sequence of
// RunSchedule, so streamed and materialized results are bit-identical
// on the same schedule (pinned by the parity tests).
//
// Every step gets core.CheckStep's structural checks before it is
// timed, since Fabric.CheckSchedule only sees the header here: a
// malformed step is an error, never a panic in a fabric's cost model.
//
// Differences forced by single-pass consumption: validation
// (Options.ValidateWavelengths) runs inline per step through a
// core.StepValidator instead of up front, so on an invalid schedule any
// Observer has already seen the steps before the offending one. The
// validator also answers the overlap probe of each boundary, so a
// validated run keeps no copy of the previous step. The
// StepEvent.Step pointer is only valid during the callback (it aliases
// the producer's buffer); and a too-short Options.BoundaryDisjoint is
// only detected when the stream outruns it. PerStep is still populated
// per step — WRHT-family streams have O(log N) steps; callers running
// O(N)-step baseline streams who need O(1) memory should consume an
// Observer instead and discard PerStep.
func (e Engine) RunStream(src core.StepSource, dBytes float64) (Result, error) {
	f := e.Fabric
	// Fabric admission checks only read the header (algorithm + ring).
	if err := f.CheckSchedule(&core.Schedule{Algorithm: src.Algorithm(), Ring: src.Ring()}); err != nil {
		return Result{}, err
	}
	elems, err := core.ElemsOf(dBytes)
	if err != nil {
		return Result{}, fmt.Errorf("fabric: %w", err)
	}
	var v *core.StepValidator
	if e.Opts.ValidateWavelengths {
		v = core.NewStepValidator(src.Ring(), rwa.NewIndex(src.Ring()), f.CircuitBudget())
	}
	res := Result{Fabric: f.Name(), Algorithm: src.Algorithm()}
	if err := e.timeSteps(src, elems, v, true, &res); err != nil {
		return Result{}, err
	}
	if bd := e.Opts.BoundaryDisjoint; e.Opts.Overlap && bd != nil && len(bd) != max(res.Steps-1, 0) {
		return Result{}, fmt.Errorf("fabric: BoundaryDisjoint carries %d boundaries for a %d-step schedule", len(bd), res.Steps)
	}
	return res, nil
}

// timeSteps drains src through the per-step cost/overlap/observer
// accounting shared by RunSchedule and RunStream, accumulating into
// res (Steps included). v, when non-nil, validates each step before it
// is timed and answers the overlap probe of each boundary; otherwise
// checkSteps runs core.CheckStep on each step. The previous step is
// retained in a reused copy buffer only when the overlap probe needs
// it (Overlap set without BoundaryDisjoint or a validator), keeping
// the streamed path's live set to at most two steps.
func (e Engine) timeSteps(src core.StepSource, elems int, v *core.StepValidator, checkSteps bool, res *Result) error {
	f := e.Fabric
	bd := e.Opts.BoundaryDisjoint
	ring := src.Ring()
	var memo map[string]StepCost
	var probe *rwa.Probe
	var prevTransmit float64
	var prev core.Step
	keepPrev := e.Opts.Overlap && bd == nil && v == nil
	for k := 0; ; k++ {
		stp, ok := src.Next()
		if !ok {
			return nil
		}
		st := *stp
		if v != nil {
			if err := v.Step(stp); err != nil {
				return err
			}
		} else if checkSteps {
			if err := core.CheckStep(stp, k, ring.N); err != nil {
				return err
			}
		}
		var c StepCost
		if key, ok := f.StepKey(st, elems); ok {
			if memo == nil {
				memo = make(map[string]StepCost)
			}
			c, ok = memo[key]
			if !ok {
				c = f.StepCost(st, elems)
				memo[key] = c
			}
		} else {
			c = f.StepCost(st, elems)
		}
		var hidden float64
		if e.Opts.Overlap && k > 0 && c.Setup > 0 && prevTransmit > 0 {
			disjoint := false
			if bd != nil {
				if k-1 >= len(bd) {
					return fmt.Errorf("fabric: BoundaryDisjoint carries %d boundaries but the stream has more steps", len(bd))
				}
				disjoint = bd[k-1]
			} else if v != nil {
				disjoint = v.Disjoint()
			} else {
				if probe == nil {
					probe = rwa.NewProbe(ring)
				}
				disjoint = StepsDisjoint(probe, ring, prev, st, e.Opts.RWAStats)
			}
			if disjoint {
				hidden = math.Min(c.Setup, prevTransmit)
			}
		}
		if e.Opts.Observer != nil {
			e.Opts.Observer.StepExecuted(StepEvent{
				Index: k, Start: res.Time, Step: stp,
				Cost: c, Hidden: hidden, Elems: elems,
			})
		}
		res.Time += c.Total - hidden
		res.TransferTime += c.Serialization + c.OEO
		res.OverheadTime += c.Setup
		res.RouterTime += c.RouterDelay
		res.OverlapSaved += hidden
		res.PerStep = append(res.PerStep, StepReport{Phase: st.Phase, Cost: c, Overlapped: hidden})
		prevTransmit = c.Transmission()
		if keepPrev {
			prev.Phase = st.Phase
			prev.Transfers = append(prev.Transfers[:0], st.Transfers...)
		}
		if k >= res.Steps {
			res.Steps = k + 1
		}
	}
}

// RunProfile times an analytic step profile in O(groups) work,
// equivalent to RunSchedule on the schedule the profile describes.
// Payload fractions apply to dBytes directly (the rounding of uneven
// chunk splits is below packet granularity for all paper workloads).
// Profiles carry no circuits, so overlap mode is rejected.
func (e Engine) RunProfile(pr core.Profile, dBytes float64) (Result, error) {
	if e.Opts.Overlap {
		return Result{}, fmt.Errorf("fabric: overlap mode needs an explicit schedule, not a profile (%s)", pr.Algorithm)
	}
	res := Result{Fabric: e.Fabric.Name(), Algorithm: pr.Algorithm, Steps: pr.NumSteps()}
	for gi, g := range pr.Groups {
		c := e.Fabric.GroupCost(g.FracOfD * dBytes)
		steps := float64(g.Steps)
		if e.Opts.Observer != nil {
			e.Opts.Observer.GroupExecuted(GroupEvent{
				Index: gi, Start: res.Time, Steps: g.Steps,
				Bytes: g.FracOfD * dBytes, Cost: c,
			})
		}
		res.Time += steps * c.Total
		res.TransferTime += steps * (c.Serialization + c.OEO)
		res.OverheadTime += steps * c.Setup
		res.RouterTime += steps * c.RouterDelay
	}
	return res, nil
}

// RunBuckets times a collective invoked once per gradient bucket
// (per-layer or fused-bucket granularity): the profile is evaluated for
// every bucket size and the times add up, because synchronous
// data-parallel training serializes the bucket all-reduces on the same
// fabric. Every additive Result field is carried through the sum,
// OverlapSaved included; PerStep is intentionally left nil — a bucket
// run covers NumSteps()×len(bucketBytes) steps and the per-step
// breakdown would not identify which bucket a step belongs to, so
// callers needing it run the buckets individually.
func (e Engine) RunBuckets(pr core.Profile, bucketBytes []float64) (Result, error) {
	total := Result{Fabric: e.Fabric.Name(), Algorithm: pr.Algorithm}
	for _, b := range bucketBytes {
		r, err := e.RunProfile(pr, b)
		if err != nil {
			return Result{}, err
		}
		total.Steps += r.Steps
		total.Time += r.Time
		total.TransferTime += r.TransferTime
		total.OverheadTime += r.OverheadTime
		total.RouterTime += r.RouterTime
		total.OverlapSaved += r.OverlapSaved
	}
	return total, nil
}
