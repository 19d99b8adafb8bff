package main

import (
	"encoding/json"
	"fmt"

	"wrht/internal/core"
	"wrht/internal/exp"
	"wrht/internal/fabric"
	"wrht/internal/fault"
	"wrht/internal/ir"
	"wrht/internal/obs"
	"wrht/internal/rwa"
)

// The rewrite-plan grids.
var (
	overlapNs   = []int{1024, 4096, 16384}
	overlapWs   = []int{16, 64}
	planRs      = []int{8, 16, 32, 64}
	planWs      = []int{8, 16}
	planAs      = []float64{25, 250}
	rescueNs    = []int{256, 1024}
	rescueWs    = []int{8, 16}
	faultNs     = []int{64, 1024, 4096}
	faultDead   = []int{0, 1, 2, 4, 8}
	faultBudget = 64
)

// timeTolerance is the relative slack of "never slower": rewriting
// steps changes the terms and order of the engine's floating-point
// sums, which moves a total by around 1e-11 of itself.
const timeTolerance = 1e-9

// rewriteFacts is what the oracles learn while re-deriving the
// rewritten schedules; the traced run reports it per layer.
type rewriteFacts struct {
	probes int64 // ConflictFree probes of the opportunistic baselines
	hidden int   // hidden reconfigurations after the IR passes
	split  simSplit
}

// checkOverlap re-derives every point of an overlap sweep through the
// public pipeline: the baseline is re-timed with rwa.Stats attached,
// the pass output is re-validated and re-timed, and the passes must
// never be slower than the baseline.
func checkOverlap(o exp.Options, pts []exp.OverlapPoint, w int, d float64, facts *rewriteFacts) error {
	fab, err := o.Optical.Fabric()
	if err != nil {
		return err
	}
	for _, pt := range pts {
		s, err := core.BuildWRHT(core.Config{N: pt.N, Wavelengths: w})
		if err != nil {
			return err
		}
		stats := &rwa.Stats{}
		base, err := fabric.Engine{Fabric: fab, Opts: fabric.Options{Overlap: true, RWAStats: stats}}.RunSchedule(s, d)
		if err != nil {
			return err
		}
		p, err := ir.Lower(s, w)
		if err != nil {
			return err
		}
		if err := (ir.Pipeline{Passes: exp.OverlapPasses(o.Optical, d)}).Run(p); err != nil {
			return err
		}
		rs := p.Raise()
		if err := rs.Validate(w); err != nil {
			return fmt.Errorf("N=%d w=%d: rewritten schedule invalid: %w", pt.N, w, err)
		}
		passed, err := fabric.Engine{Fabric: fab, Opts: fabric.Options{Overlap: true, BoundaryDisjoint: p.Boundaries()}}.RunSchedule(rs, d)
		if err != nil {
			return err
		}
		switch {
		case base.Time != pt.BaselineTime || passed.Time != pt.PassTime:
			return fmt.Errorf("N=%d w=%d: sweep times %.9g/%.9g s, re-derived %.9g/%.9g s",
				pt.N, w, pt.BaselineTime, pt.PassTime, base.Time, passed.Time)
		case pt.PassTime > pt.BaselineTime*(1+timeTolerance):
			return fmt.Errorf("N=%d w=%d: passes slower than baseline (%.12g > %.12g s)", pt.N, w, pt.PassTime, pt.BaselineTime)
		}
		facts.probes += stats.ConflictProbes.Load()
		facts.hidden += pt.PassHidden
		facts.split.add(passed)
	}
	return nil
}

// checkRescue re-validates every planned schedule and requires a win.
func checkRescue(pts []exp.RescuePoint) error {
	if len(pts) != len(rescueNs) {
		return fmt.Errorf("%d rescue points, want %d", len(pts), len(rescueNs))
	}
	for _, pt := range pts {
		if pt.Speedup <= 1 {
			return fmt.Errorf("N=%d w=%d: rescue speedup %.4g not above 1", pt.N, pt.W, pt.Speedup)
		}
		s, err := core.BuildWRHT(core.Config{N: pt.N, Wavelengths: pt.W, PlanAllToAll: true})
		if err != nil {
			return err
		}
		if err := s.Validate(pt.W); err != nil {
			return fmt.Errorf("N=%d w=%d: planned schedule invalid: %w", pt.N, pt.W, err)
		}
		if s.NumSteps() != pt.PlannedSteps {
			return fmt.Errorf("N=%d w=%d: planned schedule has %d steps, sweep timed %d", pt.N, pt.W, s.NumSteps(), pt.PlannedSteps)
		}
	}
	return nil
}

// checkDegradation rebuilds every repaired schedule from the same
// seeded mask and re-validates it. Completion time may not fall as
// wavelengths die, and a mid-run fault that forced no reschedule (the
// schedule never used the dead wavelengths) must cost nothing.
func checkDegradation(pts []exp.DegradationPoint, seed int64) error {
	if len(pts) != len(faultNs)*len(faultDead) {
		return fmt.Errorf("%d degradation points, want %d", len(pts), len(faultNs)*len(faultDead))
	}
	for i, pt := range pts {
		mask := fault.NewMask(pt.N)
		if pt.Dead > 0 {
			mask = fault.Spec{Seed: seed, Wavelengths: pt.Dead, WavelengthBudget: faultBudget}.Sample(pt.N)
		}
		if healthy := pts[i-i%len(faultDead)]; pt.Reschedules == 0 && pt.InjectedTime != healthy.StaticTime {
			return fmt.Errorf("N=%d dead=%d: no reschedule, yet %.9g s instead of the healthy %.9g s", pt.N, pt.Dead, pt.InjectedTime, healthy.StaticTime)
		}
		s, err := core.BuildWRHTMasked(core.Config{N: pt.N, Wavelengths: faultBudget}, mask)
		if err != nil {
			return err
		}
		if err := s.Validate(faultBudget); err != nil {
			return fmt.Errorf("N=%d dead=%d: repaired schedule invalid: %w", pt.N, pt.Dead, err)
		}
		if s.NumSteps() != pt.Steps {
			return fmt.Errorf("N=%d dead=%d: rebuilt %d steps, sweep timed %d", pt.N, pt.Dead, s.NumSteps(), pt.Steps)
		}
		if i > 0 && pts[i-1].N == pt.N && pt.StaticTime < pts[i-1].StaticTime {
			return fmt.Errorf("N=%d: time falls from %.9g to %.9g s as wavelengths die", pt.N, pts[i-1].StaticTime, pt.StaticTime)
		}
	}
	return nil
}

func jsonText(v any) (string, error) {
	b, err := json.Marshal(v)
	return string(b), err
}

func rewriteOps(faultSeed int64, dOverlap, dPlan, dFaults float64, facts *rewriteFacts) []op {
	var ops []op
	for _, w := range overlapWs {
		ops = append(ops, op{fmt.Sprintf("exp.OverlapSweep.w%d", w), func(e *env) (opOut, error) {
			r, err := exp.OverlapSweep(e.opts, overlapNs, w, dOverlap, nil)
			if err != nil {
				return opOut{}, err
			}
			var sims []float64
			for _, pt := range r.Points {
				sims = append(sims, pt.BaselineTime, pt.PassTime)
			}
			text, err := jsonText(r.Points)
			o := e.opts
			return opOut{text: text, sims: sims, check: func() error { return checkOverlap(o, r.Points, w, dOverlap, facts) }}, err
		}})
	}
	return append(ops,
		op{"exp.PlanSweep", func(e *env) (opOut, error) {
			r, err := exp.PlanSweep(e.opts, planRs, planWs, planAs, dPlan)
			if err != nil {
				return opOut{}, err
			}
			var sims []float64
			for _, pt := range r.Points {
				sims = append(sims, pt.Simulated)
			}
			text, err := jsonText(r.Points)
			return opOut{text: text, sims: sims, check: func() error {
				for _, pt := range r.Points {
					if err := pt.Check(); err != nil {
						return fmt.Errorf("%s r=%d w=%d a=%gus: %w", pt.Fabric, pt.R, pt.W, pt.AMicro, err)
					}
				}
				return nil
			}}, err
		}},
		op{"exp.RescueSweep", func(e *env) (opOut, error) {
			pts, err := exp.RescueSweep(e.opts, rescueNs, rescueWs, dPlan)
			if err != nil {
				return opOut{}, err
			}
			var sims []float64
			for _, pt := range pts {
				sims = append(sims, pt.FallbackTime, pt.PlannedTime)
			}
			text, err := jsonText(pts)
			return opOut{text: text, sims: sims, check: func() error { return checkRescue(pts) }}, err
		}},
		op{"exp.Degradation", func(e *env) (opOut, error) {
			r, err := exp.Degradation(e.opts, faultNs, faultBudget, dFaults, faultDead, faultSeed)
			if err != nil {
				return opOut{}, err
			}
			var sims []float64
			for _, pt := range r.Points {
				sims = append(sims, pt.StaticTime, pt.InjectedTime)
			}
			text, err := jsonText(r.Points)
			return opOut{text: text, sims: sims, check: func() error { return checkDegradation(r.Points, faultSeed) }}, err
		}},
	)
}

func rewritePlan(r *runner) error {
	faultSeed := deriveSeed(r.seed, "faults")
	dOverlap := jitter(r.seed, "overlap-payload", 100e6, 0.01)
	dPlan := jitter(r.seed, "plan-payload", 25e6, 0.01)
	dFaults := jitter(r.seed, "faults-payload", 100e6, 0.01)
	facts := &rewriteFacts{}
	b := &batch{
		// Set-up builds the options and seeded inputs and runs the small
		// rescue sweep once, so lazy initialisation is done before timing.
		setup: func() error {
			_, err := exp.RescueSweep(expOptions(nil), rescueNs, rescueWs, dPlan)
			return err
		},
		ops: rewriteOps(faultSeed, dOverlap, dPlan, dFaults, facts),
		layers: func(r *runner, t *traced) error {
			var overlap float64
			for _, w := range overlapWs {
				overlap += t.opSec[fmt.Sprintf("exp.OverlapSweep.w%d", w)]
			}
			r.set("exp.overlap_sweep_s", t.perPass(overlap), "s", "both OverlapSweep calls, mean per traced pass")
			r.set("exp.plan_sweep_s", t.perPass(t.opSec["exp.PlanSweep"]), "s", "mean per traced pass")
			r.set("exp.rescue_s", t.perPass(t.opSec["exp.RescueSweep"]), "s", "mean per traced pass")
			r.set("exp.faults_sweep_s", t.perPass(t.opSec["exp.Degradation"]), "s", "mean per traced pass")
			snap := t.reg.Snapshot()
			for _, pass := range []string{"reorder", "recolor", "split"} {
				h := snap.Histograms[obs.Labeled("ir.pass.seconds", "pass", pass)]
				r.set("ir.pass_s."+pass, t.perPass(h.Sum), "s", fmt.Sprintf("ir.pass.seconds, %d applications per pass", h.Count/uint64(t.passes)))
			}
			dec := snap.Counters["plan.decisions"]
			r.set("plan.decision_s", t.perPass(mergeHist(snap, "plan.decision.seconds").Sum), "s",
				fmt.Sprintf("plan.decision.seconds, %d decisions per pass", dec/int64(t.passes)))
			r.set("plan.candidates_per_decision", float64(snap.Counters["plan.candidates"])/float64(max(dec, 1)), "count", "plan.candidates / plan.decisions")
			r.set("rwa.probes", float64(facts.probes), "count", "ConflictFree probes of the overlap sweeps' baselines, per pass")
			r.set("fabric.hidden_reconfigs", float64(facts.hidden), "count", "hidden reconfigurations after the IR passes, per pass")
			r.set("fault.reschedules", t.perPass(float64(snap.Counters["fabric.faults.reschedules"])), "count", "fabric.faults.reschedules per pass")
			r.setSimSplit(facts.split, "the rewritten overlap schedules, re-timed")
			return nil
		},
	}
	return r.runBatch(b)
}
