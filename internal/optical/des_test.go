package optical

import (
	"math"
	"math/bits"
	"slices"
	"strings"
	"testing"

	"wrht/internal/collective"
	"wrht/internal/core"
	"wrht/internal/tensor"
	"wrht/internal/topo"
)

func TestDESMatchesAnalytic(t *testing.T) {
	p := DefaultParams()
	var scheds []*core.Schedule
	for _, n := range []int{4, 15, 64, 100} {
		s, err := core.BuildWRHT(core.Config{N: n, Wavelengths: 8})
		if err != nil {
			t.Fatal(err)
		}
		scheds = append(scheds, s, collective.BuildRing(n), collective.BuildBT(n))
	}
	for _, s := range scheds {
		for _, d := range []float64{0, 72, 1e6, 123456789} {
			if err := CheckAgainstAnalytic(p, s, d); err != nil {
				t.Errorf("%s N=%d d=%g: %v", s.Algorithm, s.Ring.N, d, err)
			}
		}
	}
}

func TestDESStragglerInjection(t *testing.T) {
	// Slowing one circuit in one step by 10 ms must extend the total by
	// exactly the amount it exceeds the step's critical path.
	p := DefaultParams()
	s, err := core.BuildWRHT(core.Config{N: 64, Wavelengths: 8})
	if err != nil {
		t.Fatal(err)
	}
	d := 8e6
	base, err := RunScheduleDES(p, s, d, nil)
	if err != nil {
		t.Fatal(err)
	}
	const extra = 10e-3
	slow, err := RunScheduleDES(p, s, d, func(step, transfer int, nominal float64) float64 {
		if step == 0 && transfer == 0 {
			return nominal + extra
		}
		return nominal
	})
	if err != nil {
		t.Fatal(err)
	}
	got := slow - base
	if diff := got - extra; diff > 1e-9 || diff < -1e-9 {
		t.Fatalf("straggler extended total by %.9f, want %.9f", got, extra)
	}
}

// stepStartHook records when each step began: the step's "reconfig"
// event is scheduled at its start.
type stepStartHook struct{ starts []float64 }

func (h *stepStartHook) EventScheduled(_ uint64, _, now float64, label string) {
	if label == "reconfig" {
		h.starts = append(h.starts, now)
	}
}
func (h *stepStartHook) EventFired(uint64, float64, string) {}

// TestDESPerStepReports: each step's span on the DES timeline matches
// the engine's per-step report, and the spans add up to the total.
func TestDESPerStepReports(t *testing.T) {
	p := DefaultParams()
	s, err := core.BuildWRHT(core.Config{N: 15, Wavelengths: 2})
	if err != nil {
		t.Fatal(err)
	}
	h := &stepStartHook{}
	total, err := RunScheduleDESObserved(p, s, 1e6, nil, h)
	if err != nil {
		t.Fatal(err)
	}
	eng, err := runSchedule(p, s, 1e6, false)
	if err != nil {
		t.Fatal(err)
	}
	if len(h.starts) != 3 || len(eng.PerStep) != 3 {
		t.Fatalf("DES steps = %d, engine per-step reports = %d, want 3", len(h.starts), len(eng.PerStep))
	}
	var sum float64
	for i, start := range h.starts {
		end := total
		if i+1 < len(h.starts) {
			end = h.starts[i+1]
		}
		d := end - start
		if d <= 0 {
			t.Fatalf("step %d: non-positive duration %g", i, d)
		}
		if diff := d - eng.PerStep[i].Duration; diff > 1e-12 || diff < -1e-12 {
			t.Errorf("step %d: DES %.12f vs engine %.12f", i, d, eng.PerStep[i].Duration)
		}
		sum += d
	}
	if diff := sum - total; diff > 1e-12 || diff < -1e-12 {
		t.Fatalf("step durations sum %.12f != total %.12f", sum, total)
	}
}

func TestDESNegativeDelayClamped(t *testing.T) {
	p := DefaultParams()
	s := collective.BuildRing(4)
	if _, err := RunScheduleDES(p, s, 1e5, func(_, _ int, _ float64) float64 { return -5 }); err != nil {
		t.Fatal(err)
	}
}

func TestDESNaNDelayIsAnError(t *testing.T) {
	p := DefaultParams()
	s := collective.BuildRing(8)
	_, err := RunScheduleDES(p, s, 1e5, func(step, transfer int, nominal float64) float64 {
		if step == 2 && transfer == 3 {
			return math.NaN()
		}
		return nominal
	})
	if err == nil || !strings.Contains(err.Error(), "step 2 transfer 3") {
		t.Fatalf("NaN delay: err = %v, want one naming step 2 transfer 3", err)
	}
}

// labelHook records the label of every fired event.
type labelHook struct{ fired []string }

func (h *labelHook) EventScheduled(uint64, float64, float64, string) {}
func (h *labelHook) EventFired(_ uint64, _ float64, label string)    { h.fired = append(h.fired, label) }

func TestDESFiresOneReconfigPerStepAndOneEventPerTransfer(t *testing.T) {
	s, err := core.BuildWRHT(core.Config{N: 64, Wavelengths: 8})
	if err != nil {
		t.Fatal(err)
	}
	h := &labelHook{}
	if _, err := RunScheduleDESObserved(DefaultParams(), s, 1e6, nil, h); err != nil {
		t.Fatal(err)
	}
	var want []string
	for _, st := range s.Steps {
		want = append(want, "reconfig")
		for range st.Transfers {
			want = append(want, "transfer")
		}
	}
	if !slices.Equal(h.fired, want) {
		t.Fatalf("fired %d events %v, want %d", len(h.fired), h.fired, len(want))
	}
}

// TestDESAllocsIndependentOfStepWidth pins the per-step callback
// sharing: widening every step from 4 to 512 transfers may cost the
// event queue a few more doublings of its backing array, never an
// allocation per transfer.
func TestDESAllocsIndependentOfStepWidth(t *testing.T) {
	const steps = 8
	allocs := func(width int) float64 {
		s := &core.Schedule{Algorithm: "wide", Ring: topo.NewRing(width + 1)}
		for i := 0; i < steps; i++ {
			var st core.Step
			for j := 0; j < width; j++ {
				st.Transfers = append(st.Transfers, core.Transfer{Src: j, Dst: j + 1, Chunk: tensor.Whole, Dir: topo.CW})
			}
			s.Steps = append(s.Steps, st)
		}
		return testing.AllocsPerRun(5, func() {
			if _, err := RunScheduleDES(DefaultParams(), s, 1e6, nil); err != nil {
				t.Fatal(err)
			}
		})
	}
	narrow, wide := allocs(4), allocs(512)
	t.Logf("allocations per run: %g at 4 transfers per step, %g at 512", narrow, wide)
	if wide > narrow+float64(2*bits.Len(512)) {
		t.Fatalf("RunScheduleDES allocates %g times at 512 transfers per step, %g at 4", wide, narrow)
	}
}
