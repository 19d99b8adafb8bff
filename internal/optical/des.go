package optical

import (
	"fmt"
	"math"

	"wrht/internal/core"
	"wrht/internal/des"
	"wrht/internal/fabric"
)

// Event-driven execution mode: instead of summing closed-form step
// durations, RunScheduleDES schedules explicit events on the DES kernel —
// one reconfiguration event per step, one completion event per transfer —
// and the step barrier fires when the last circuit drains. It produces
// exactly the same totals as the analytic fabric.Engine run (asserted by
// tests), and exists
// to (a) cross-validate the analytic model and (b) host extensions where
// per-transfer dynamics differ (e.g. straggling circuits), which a
// closed form cannot express.

// TransferDelay lets callers perturb individual circuits in DES mode: it
// receives the step index, transfer index and nominal duration and
// returns the duration to use. Nil means nominal.
type TransferDelay func(step, transfer int, nominal float64) float64

// RunScheduleDES executes the schedule on the discrete-event kernel and
// returns its completion time in seconds. If delay is non-nil it
// perturbs each transfer's duration (fault/straggler injection).
func RunScheduleDES(p Params, s *core.Schedule, dBytes float64, delay TransferDelay) (float64, error) {
	return RunScheduleDESObserved(p, s, dBytes, delay, nil)
}

// RunScheduleDESObserved is RunScheduleDES with a des.Hook attached to
// the kernel. Reconfiguration and transfer completions are scheduled as
// labeled events ("reconfig", "transfer"), so an observing hook sees
// them by name on the simulated timeline.
func RunScheduleDESObserved(p Params, s *core.Schedule, dBytes float64, delay TransferDelay, hook des.Hook) (float64, error) {
	if err := p.validate(); err != nil {
		return 0, err
	}
	elems, err := core.ElemsOf(dBytes)
	if err != nil {
		return 0, fmt.Errorf("optical: %w", err)
	}
	k := des.Kernel{Hook: hook}
	var runErr error
	var runStep func(si int)
	runStep = func(si int) {
		if si >= len(s.Steps) {
			return
		}
		st := s.Steps[si]
		// Every transfer event of the step shares one completion
		// callback; the step finishes when the last circuit drains.
		remaining := len(st.Transfers)
		done := func() {
			if remaining--; remaining == 0 {
				runStep(si + 1)
			}
		}
		// Reconfigure the MRRs, then launch every circuit in parallel.
		k.AfterNamed(p.ReconfigDelay, "reconfig", func() {
			if len(st.Transfers) == 0 {
				runStep(si + 1)
				return
			}
			for ti, t := range st.Transfers {
				dur := p.transferTime(float64(t.Chunk.Bytes(elems)))
				if delay != nil {
					dur = delay(si, ti, dur)
					if math.IsNaN(dur) {
						// Stop here: the step never finishes, so the
						// kernel drains what is queued and halts.
						runErr = fmt.Errorf("optical: step %d transfer %d: delay returned NaN", si, ti)
						return
					}
					if dur < 0 {
						dur = 0
					}
				}
				k.AfterNamed(dur, "transfer", done)
			}
		})
	}
	runStep(0)
	end := k.Run()
	if runErr != nil {
		return 0, runErr
	}
	return end, nil
}

// CheckAgainstAnalytic runs both execution modes and returns an error if
// the totals disagree beyond tolerance — a self-test hook used by the
// test suite and available to downstream users extending either path.
func CheckAgainstAnalytic(p Params, s *core.Schedule, dBytes float64) error {
	f, err := p.Fabric()
	if err != nil {
		return err
	}
	a, err := fabric.Engine{Fabric: f}.RunSchedule(s, dBytes)
	if err != nil {
		return err
	}
	d, err := RunScheduleDES(p, s, dBytes, nil)
	if err != nil {
		return err
	}
	if diff := math.Abs(a.Time - d); diff > 1e-9*float64(1+s.NumSteps()) {
		return fmt.Errorf("optical: analytic %.12f vs DES %.12f differ", a.Time, d)
	}
	return nil
}
