package electrical

import (
	"testing"

	"wrht/internal/collective"
	"wrht/internal/core"
	"wrht/internal/fabric"
)

// Result is the legacy (pre-engine) outcome shape, kept test-side so
// the parity oracle can compare field by field now that the deprecated
// Network.RunSchedule shim is gone.
type Result struct {
	Algorithm string
	Steps     int
	Time      float64
}

// runSchedule drives fabric.Engine over Network.Fabric the way
// production callers do, converted to the legacy Result shape.
func runSchedule(nw *Network, s *core.Schedule, dBytes float64) (Result, error) {
	r, err := fabric.Engine{Fabric: nw.Fabric()}.RunSchedule(s, dBytes)
	if err != nil {
		return Result{}, err
	}
	return Result{Algorithm: r.Algorithm, Steps: r.Steps, Time: r.Time}, nil
}

// legacyRunSchedule reproduces the pre-engine fat-tree accumulation loop
// verbatim (memoized stepDuration, summed in schedule order) so the
// parity test can assert fabric.Engine changed no result bit.
func legacyRunSchedule(nw *Network, s *core.Schedule, dBytes float64) Result {
	// core.ElemsOf truncates exactly like the historical int(dBytes/4)
	// here, so the oracle's arithmetic is unchanged.
	elems, err := core.ElemsOf(dBytes)
	if err != nil {
		panic(err)
	}
	res := Result{Algorithm: s.Algorithm, Steps: s.NumSteps()}
	memo := map[string]float64{}
	for _, st := range s.Steps {
		key := legacyStepSignature(st, elems)
		dur, ok := memo[key]
		if !ok {
			dur, _ = nw.legacyStepDuration(st, elems)
			memo[key] = dur
		}
		res.Time += dur
	}
	return res
}

func TestScheduleEngineMatchesLegacyBitForBit(t *testing.T) {
	nw, err := NewNetwork(64, DefaultParams())
	if err != nil {
		t.Fatal(err)
	}
	schedules := map[string]*core.Schedule{
		"ring": collective.BuildRing(32),
		"bt":   collective.BuildBT(32),
	}
	if s, err := core.BuildWRHT(core.Config{N: 64, Wavelengths: 8}); err != nil {
		t.Fatal(err)
	} else {
		schedules["wrht"] = s
	}
	if s, err := collective.BuildRD(32); err != nil {
		t.Fatal(err)
	} else {
		schedules["rd"] = s
	}
	for name, s := range schedules {
		for _, dBytes := range []float64{4e3, 1e6} {
			want := legacyRunSchedule(nw, s, dBytes)
			got, err := runSchedule(nw, s, dBytes)
			if err != nil {
				t.Fatalf("%s d=%g: %v", name, dBytes, err)
			}
			if got != want {
				t.Errorf("%s d=%g: engine %+v != legacy %+v", name, dBytes, got, want)
			}
		}
	}
}

func TestScheduleEngineKeepsHostCheck(t *testing.T) {
	nw, err := NewNetwork(16, DefaultParams())
	if err != nil {
		t.Fatal(err)
	}
	if _, err := runSchedule(nw, collective.BuildRing(32), 1e6); err == nil {
		t.Fatal("32-host schedule accepted on a 16-host network")
	}
}

func TestStepCostSplitsDrainAndRouterTail(t *testing.T) {
	nw, err := NewNetwork(32, DefaultParams())
	if err != nil {
		t.Fatal(err)
	}
	s := collective.BuildRing(32)
	f := nw.Fabric()
	c := f.StepCost(s.Steps[0], 1<<20)
	if c.Setup != 0 {
		t.Errorf("packet-switched step has circuit setup %g", c.Setup)
	}
	if c.Serialization <= 0 || c.RouterDelay <= 0 {
		t.Errorf("expected positive drain and router tail, got %+v", c)
	}
	if diff := c.Total - (c.Serialization + c.RouterDelay); diff > 1e-12*c.Total || diff < -1e-12*c.Total {
		t.Errorf("Total %g != drain %g + tail %g", c.Total, c.Serialization, c.RouterDelay)
	}
}
