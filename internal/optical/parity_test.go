package optical

import (
	"fmt"
	"testing"

	"wrht/internal/collective"
	"wrht/internal/core"
	"wrht/internal/fabric"
)

// The legacy* functions below reproduce the pre-engine simulator loops
// verbatim (operation order included) so the parity tests can assert
// that fabric.Engine over Params.Fabric — the only execution path now
// that the deprecated Run* shims are gone — changed no result bit. They
// intentionally duplicate arithmetic rather than call into the engine.

// StepReport records the simulated timing of one step in the
// pre-engine simulator's result shape.
type StepReport struct {
	Phase    core.Phase
	Duration float64 // seconds, including the reconfiguration delay
	MaxBytes float64 // payload of the critical circuit
}

// Result is the pre-engine simulator's outcome of one collective: the
// shape the legacy oracles below produce, and fromFabric converts
// engine results into.
type Result struct {
	Algorithm string
	Steps     int
	// Time is the total communication time in seconds (Eq 6 for
	// constant-payload schedules).
	Time float64
	// TransferTime and OverheadTime split Time into the serialization
	// component (d·θ/B) and the per-step component (a·θ).
	TransferTime float64
	OverheadTime float64
	// PerStep is the per-step breakdown (only populated by schedule runs,
	// not profile runs).
	PerStep []StepReport
}

// fromFabric converts an engine result to the legacy optical result.
func fromFabric(r fabric.Result) Result {
	res := Result{
		Algorithm:    r.Algorithm,
		Steps:        r.Steps,
		Time:         r.Time,
		TransferTime: r.TransferTime,
		OverheadTime: r.OverheadTime,
	}
	for _, sr := range r.PerStep {
		res.PerStep = append(res.PerStep, StepReport{
			Phase:    sr.Phase,
			Duration: sr.Duration(),
			MaxBytes: sr.Cost.MaxBytes,
		})
	}
	return res
}

// runSchedule, runProfile and runBuckets drive fabric.Engine the way
// production callers do, converting back to the package Result so the
// legacy oracles compare field by field.
func runSchedule(p Params, s *core.Schedule, dBytes float64, validateW bool) (Result, error) {
	f, err := p.Fabric()
	if err != nil {
		return Result{}, err
	}
	eng := fabric.Engine{Fabric: f, Opts: fabric.Options{ValidateWavelengths: validateW}}
	r, err := eng.RunSchedule(s, dBytes)
	if err != nil {
		return Result{}, err
	}
	return fromFabric(r), nil
}

func runProfile(p Params, pr core.Profile, dBytes float64) (Result, error) {
	f, err := p.Fabric()
	if err != nil {
		return Result{}, err
	}
	r, err := fabric.Engine{Fabric: f}.RunProfile(pr, dBytes)
	if err != nil {
		return Result{}, err
	}
	return fromFabric(r), nil
}

func runBuckets(p Params, pr core.Profile, bucketBytes []float64) (Result, error) {
	f, err := p.Fabric()
	if err != nil {
		return Result{}, err
	}
	r, err := fabric.Engine{Fabric: f}.RunBuckets(pr, bucketBytes)
	if err != nil {
		return Result{}, err
	}
	return fromFabric(r), nil
}

func legacyRunSchedule(p Params, s *core.Schedule, dBytes float64) Result {
	// core.ElemsOf truncates exactly like the historical int(dBytes/4)
	// here, so the oracle's arithmetic is unchanged.
	elems, err := core.ElemsOf(dBytes)
	if err != nil {
		panic(err)
	}
	res := Result{Algorithm: s.Algorithm, Steps: s.NumSteps()}
	for _, st := range s.Steps {
		var maxBytes float64
		for _, t := range st.Transfers {
			b := float64(t.Chunk.Bytes(elems))
			if b > maxBytes {
				maxBytes = b
			}
		}
		dur := p.ReconfigDelay + p.transferTime(maxBytes)
		res.PerStep = append(res.PerStep, StepReport{Phase: st.Phase, Duration: dur, MaxBytes: maxBytes})
		res.Time += dur
		res.TransferTime += p.transferTime(maxBytes)
		res.OverheadTime += p.ReconfigDelay
	}
	return res
}

func legacyRunProfile(p Params, pr core.Profile, dBytes float64) Result {
	res := Result{Algorithm: pr.Algorithm, Steps: pr.NumSteps()}
	for _, g := range pr.Groups {
		bytes := g.FracOfD * dBytes
		tt := p.transferTime(bytes)
		res.Time += float64(g.Steps) * (p.ReconfigDelay + tt)
		res.TransferTime += float64(g.Steps) * tt
		res.OverheadTime += float64(g.Steps) * p.ReconfigDelay
	}
	return res
}

func legacyRunBuckets(p Params, pr core.Profile, bucketBytes []float64) Result {
	total := Result{Algorithm: pr.Algorithm}
	for _, b := range bucketBytes {
		r := legacyRunProfile(p, pr, b)
		total.Steps += r.Steps
		total.Time += r.Time
		total.TransferTime += r.TransferTime
		total.OverheadTime += r.OverheadTime
	}
	return total
}

func paritySchedules(t *testing.T) map[string]*core.Schedule {
	t.Helper()
	out := map[string]*core.Schedule{}
	for _, cfg := range []core.Config{
		{N: 64, Wavelengths: 8},
		{N: 256, Wavelengths: 16},
		{N: 1024, Wavelengths: 64},
		{N: 256, Wavelengths: 16, DisableAllToAll: true},
	} {
		s, err := core.BuildWRHT(cfg)
		if err != nil {
			t.Fatalf("BuildWRHT(%+v): %v", cfg, err)
		}
		name := "wrht"
		if cfg.DisableAllToAll {
			name = "wrht-noa2a"
		}
		out[nameKey(name, cfg.N)] = s
	}
	out[nameKey("ring", 64)] = collective.BuildRing(64)
	out[nameKey("bt", 64)] = collective.BuildBT(64)
	return out
}

func nameKey(name string, n int) string { return fmt.Sprintf("%s/n=%d", name, n) }

func TestScheduleEngineMatchesLegacyBitForBit(t *testing.T) {
	p := DefaultParams()
	for name, s := range paritySchedules(t) {
		for _, dBytes := range []float64{4e3, 1e6, 100e6} {
			want := legacyRunSchedule(p, s, dBytes)
			got, err := runSchedule(p, s, dBytes, false)
			if err != nil {
				t.Fatalf("%s d=%g: %v", name, dBytes, err)
			}
			if got.Time != want.Time || got.TransferTime != want.TransferTime ||
				got.OverheadTime != want.OverheadTime || got.Steps != want.Steps {
				t.Errorf("%s d=%g: engine %+v != legacy %+v", name, dBytes, got, want)
			}
			if len(got.PerStep) != len(want.PerStep) {
				t.Fatalf("%s d=%g: %d per-step reports, want %d", name, dBytes, len(got.PerStep), len(want.PerStep))
			}
			for i := range got.PerStep {
				if got.PerStep[i] != want.PerStep[i] {
					t.Errorf("%s d=%g step %d: %+v != %+v", name, dBytes, i, got.PerStep[i], want.PerStep[i])
				}
			}
		}
	}
}

func TestProfileEngineMatchesLegacyBitForBit(t *testing.T) {
	p := DefaultParams()
	for name, s := range paritySchedules(t) {
		pr := core.ProfileOf(s)
		for _, dBytes := range []float64{4e3, 1e6, 100e6} {
			want := legacyRunProfile(p, pr, dBytes)
			got, err := runProfile(p, pr, dBytes)
			if err != nil {
				t.Fatalf("%s d=%g: %v", name, dBytes, err)
			}
			if got.Time != want.Time || got.TransferTime != want.TransferTime ||
				got.OverheadTime != want.OverheadTime || got.Steps != want.Steps {
				t.Errorf("%s d=%g: engine %+v != legacy %+v", name, dBytes, got, want)
			}
		}
	}
}

func TestBucketsEngineMatchesLegacyBitForBit(t *testing.T) {
	p := DefaultParams()
	buckets := [][]float64{
		{25e6},
		{1e6, 4e6, 25e6},
		{97.5e6 / 4, 97.5e6 / 4, 97.5e6 / 4, 97.5e6 / 4},
	}
	for name, s := range paritySchedules(t) {
		pr := core.ProfileOf(s)
		for _, bs := range buckets {
			want := legacyRunBuckets(p, pr, bs)
			got, err := runBuckets(p, pr, bs)
			if err != nil {
				t.Fatalf("%s %v: %v", name, bs, err)
			}
			if got.Time != want.Time || got.TransferTime != want.TransferTime ||
				got.OverheadTime != want.OverheadTime || got.Steps != want.Steps {
				t.Errorf("%s %v: engine %+v != legacy %+v", name, bs, got, want)
			}
		}
	}
}

func TestScheduleEngineStillValidates(t *testing.T) {
	p := DefaultParams()
	p.Wavelengths = 1
	s, err := core.BuildWRHT(core.Config{N: 64, Wavelengths: 8})
	if err != nil {
		t.Fatal(err)
	}
	if _, err := runSchedule(p, s, 1e6, true); err == nil {
		t.Fatal("schedule exceeding a 1-wavelength budget accepted")
	}
	if _, err := runSchedule(p, s, 1e6, false); err != nil {
		t.Fatalf("validation off should not reject: %v", err)
	}
}
