package wrht_test

import (
	"reflect"
	"strings"
	"testing"

	"wrht"
	"wrht/internal/collective"
	"wrht/internal/core"
	"wrht/internal/electrical"
	"wrht/internal/fabric"
	"wrht/internal/tensor"
	"wrht/internal/topo"
)

// TestBuildMatchesLegacyConstructors pins the facade redesign: every
// Build(kind, ...) call must be bit-identical (reflect.DeepEqual on the
// full schedule) to the positional constructor it replaced.
func TestBuildMatchesLegacyConstructors(t *testing.T) {
	type tc struct {
		name  string
		build func() (*core.Schedule, error)
		want  func() (*core.Schedule, error)
	}
	ok := func(s *core.Schedule) func() (*core.Schedule, error) {
		return func() (*core.Schedule, error) { return s, nil }
	}
	cases := []tc{
		{
			"wrht",
			func() (*core.Schedule, error) { return wrht.Build(wrht.KindWRHT, 64, wrht.WithWavelengths(8)) },
			func() (*core.Schedule, error) { return core.BuildWRHT(core.Config{N: 64, Wavelengths: 8}) },
		},
		{
			"wrht-no-a2a",
			func() (*core.Schedule, error) {
				return wrht.Build(wrht.KindWRHT, 64, wrht.WithWavelengths(8), wrht.WithoutAllToAll())
			},
			func() (*core.Schedule, error) {
				return core.BuildWRHT(core.Config{N: 64, Wavelengths: 8, DisableAllToAll: true})
			},
		},
		{
			"wrht-max-group",
			func() (*core.Schedule, error) {
				return wrht.Build(wrht.KindWRHT, 100, wrht.WithWavelengths(8), wrht.WithMaxGroupSize(5))
			},
			func() (*core.Schedule, error) {
				return core.BuildWRHT(core.Config{N: 100, Wavelengths: 8, MaxGroupSize: 5})
			},
		},
		{
			"ring",
			func() (*core.Schedule, error) { return wrht.Build(wrht.KindRing, 32) },
			ok(collective.BuildRing(32)),
		},
		{
			"bt",
			func() (*core.Schedule, error) { return wrht.Build(wrht.KindBT, 32) },
			ok(collective.BuildBT(32)),
		},
		{
			"rd",
			func() (*core.Schedule, error) { return wrht.Build(wrht.KindRD, 32) },
			func() (*core.Schedule, error) { return collective.BuildRD(32) },
		},
		{
			"dbtree",
			func() (*core.Schedule, error) { return wrht.Build(wrht.KindDBTree, 32) },
			ok(collective.BuildDBTree(32)),
		},
		{
			"hring",
			func() (*core.Schedule, error) {
				return wrht.Build(wrht.KindHRing, 100, wrht.WithGroupSize(10), wrht.WithWavelengths(4))
			},
			func() (*core.Schedule, error) { return collective.BuildHRing(100, 10, 4) },
		},
		{
			"wdmhring",
			func() (*core.Schedule, error) {
				return wrht.Build(wrht.KindWDMHRing, 100, wrht.WithGroupSize(10), wrht.WithWavelengths(4))
			},
			func() (*core.Schedule, error) { return collective.BuildWDMHRing(100, 10, 4) },
		},
		{
			"torus",
			func() (*core.Schedule, error) {
				return wrht.Build(wrht.KindTorus, 64, wrht.WithDims(8, 8), wrht.WithWavelengths(4))
			},
			func() (*core.Schedule, error) { return core.BuildWRHTTorus(topo.NewTorus(8, 8), 4, 0) },
		},
		{
			"mesh",
			func() (*core.Schedule, error) {
				return wrht.Build(wrht.KindMesh, 64, wrht.WithDims(8, 8), wrht.WithWavelengths(4))
			},
			func() (*core.Schedule, error) { return core.BuildWRHTMesh(topo.NewMesh(8, 8), 4, 0) },
		},
		{
			"segment",
			func() (*core.Schedule, error) {
				return wrht.Build(wrht.KindSegment, 64,
					wrht.WithParticipants(1, 5, 9, 20, 33, 40), wrht.WithWavelengths(4))
			},
			func() (*core.Schedule, error) {
				return core.BuildWRHTSegment(64, []int{1, 5, 9, 20, 33, 40}, 4, 0)
			},
		},
		{
			"broadcast",
			func() (*core.Schedule, error) {
				return wrht.Build(wrht.KindBroadcast, 32, wrht.WithWavelengths(4), wrht.WithRoot(7))
			},
			func() (*core.Schedule, error) { return collective.BuildBroadcast(32, 4, 7) },
		},
		{
			"reduce",
			func() (*core.Schedule, error) {
				return wrht.Build(wrht.KindReduce, 32, wrht.WithWavelengths(4), wrht.WithRoot(7))
			},
			func() (*core.Schedule, error) { return collective.BuildReduce(32, 4, 7) },
		},
		{
			"reduce-scatter",
			func() (*core.Schedule, error) { return wrht.Build(wrht.KindReduceScatter, 32) },
			ok(collective.BuildReduceScatter(32)),
		},
		{
			"all-gather",
			func() (*core.Schedule, error) { return wrht.Build(wrht.KindAllGather, 32) },
			ok(collective.BuildAllGather(32)),
		},
	}
	for _, c := range cases {
		got, err := c.build()
		if err != nil {
			t.Errorf("%s: Build: %v", c.name, err)
			continue
		}
		want, err := c.want()
		if err != nil {
			t.Errorf("%s: legacy: %v", c.name, err)
			continue
		}
		if !reflect.DeepEqual(got, want) {
			t.Errorf("%s: Build result differs from legacy constructor", c.name)
		}
	}
}

// TestBuildRejectsMisdirectedOptions: an option the kind does not
// consume must be an error, never a silent no-op.
func TestBuildRejectsMisdirectedOptions(t *testing.T) {
	cases := []struct {
		name string
		err  string
		call func() (*core.Schedule, error)
	}{
		{"dims-on-ring", "WithDims", func() (*core.Schedule, error) {
			return wrht.Build(wrht.KindRing, 32, wrht.WithDims(4, 8))
		}},
		{"faults-on-hring", "WithFaults", func() (*core.Schedule, error) {
			return wrht.Build(wrht.KindHRing, 100, wrht.WithGroupSize(10), wrht.WithWavelengths(4),
				wrht.WithFaults(wrht.NewFaultMask(100)))
		}},
		{"root-on-wrht", "WithRoot", func() (*core.Schedule, error) {
			return wrht.Build(wrht.KindWRHT, 64, wrht.WithWavelengths(8), wrht.WithRoot(3))
		}},
		{"unknown-kind", "unknown collective kind", func() (*core.Schedule, error) {
			return wrht.Build(wrht.Kind("bogus"), 32)
		}},
		{"torus-without-dims", "WithDims", func() (*core.Schedule, error) {
			return wrht.Build(wrht.KindTorus, 64, wrht.WithWavelengths(4))
		}},
		{"torus-dims-mismatch", "n=64", func() (*core.Schedule, error) {
			return wrht.Build(wrht.KindTorus, 64, wrht.WithDims(4, 8), wrht.WithWavelengths(4))
		}},
		{"segment-without-participants", "WithParticipants", func() (*core.Schedule, error) {
			return wrht.Build(wrht.KindSegment, 64, wrht.WithWavelengths(4))
		}},
	}
	for _, c := range cases {
		_, err := c.call()
		if err == nil {
			t.Errorf("%s: expected error, got nil", c.name)
			continue
		}
		if !strings.Contains(err.Error(), c.err) {
			t.Errorf("%s: error %q does not mention %q", c.name, err, c.err)
		}
	}
}

// TestBuildWithFaults: a degraded build must stay a valid schedule
// within the healthy wavelength budget, and an empty mask must be
// bit-identical to the healthy construction.
func TestBuildWithFaults(t *testing.T) {
	const n, w = 64, 8
	healthy, err := wrht.Build(wrht.KindWRHT, n, wrht.WithWavelengths(w))
	if err != nil {
		t.Fatal(err)
	}
	zero, err := wrht.Build(wrht.KindWRHT, n, wrht.WithWavelengths(w),
		wrht.WithFaults(wrht.NewFaultMask(n)))
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(zero, healthy) {
		t.Error("empty fault mask changed the construction")
	}

	mask := wrht.NewFaultMask(n).
		KillWavelength(0).
		KillWavelength(3).
		FailNode(17).
		FailTransceiver(4, wrht.CW).
		CutSegment(wrht.CCW, 40)
	degraded, err := wrht.Build(wrht.KindWRHT, n, wrht.WithWavelengths(w), wrht.WithFaults(mask))
	if err != nil {
		t.Fatal(err)
	}
	if err := degraded.Validate(w); err != nil {
		t.Errorf("degraded schedule fails validation: %v", err)
	}
	if degraded.NumSteps() < healthy.NumSteps() {
		t.Errorf("degraded schedule has fewer steps (%d) than healthy (%d)",
			degraded.NumSteps(), healthy.NumSteps())
	}
	// Degraded-loss MRRs tighten the §4.4 budget clamp even without an
	// explicit WithBudget.
	mrr := wrht.NewFaultMask(n)
	for i := 0; i < n; i++ {
		mrr.DegradeMRR(i, 3.0)
	}
	tightened, err := wrht.Build(wrht.KindWRHT, n, wrht.WithWavelengths(w), wrht.WithFaults(mrr))
	if err != nil {
		t.Fatal(err)
	}
	if tightened.NumSteps() < healthy.NumSteps() {
		t.Errorf("MRR-degraded schedule has fewer steps (%d) than healthy (%d)",
			tightened.NumSteps(), healthy.NumSteps())
	}
}

// TestSimulateMatchesEngine pins the unified Simulate entrypoint to the
// fabric engine it wraps, on both backends.
func TestSimulateMatchesEngine(t *testing.T) {
	const d = 25e6
	s, err := wrht.Build(wrht.KindWRHT, 64, wrht.WithWavelengths(8))
	if err != nil {
		t.Fatal(err)
	}
	p := wrht.DefaultOpticalParams()
	p.Wavelengths = 8

	got, err := wrht.Simulate(wrht.Optical, s, d, wrht.WithOpticalParams(p))
	if err != nil {
		t.Fatal(err)
	}
	f, err := p.Fabric()
	if err != nil {
		t.Fatal(err)
	}
	want, err := fabric.Engine{Fabric: f, Opts: fabric.Options{ValidateWavelengths: true}}.RunSchedule(s, d)
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(got, want) {
		t.Errorf("optical Simulate %+v != engine %+v", got, want)
	}

	prof, err := wrht.WRHTProfile(wrht.Config{N: 1024, Wavelengths: 64})
	if err != nil {
		t.Fatal(err)
	}
	gp, err := wrht.Simulate(wrht.Optical, prof, d)
	if err != nil {
		t.Fatal(err)
	}
	df, err := wrht.DefaultOpticalParams().Fabric()
	if err != nil {
		t.Fatal(err)
	}
	wp, err := fabric.Engine{Fabric: df, Opts: fabric.Options{ValidateWavelengths: true}}.RunProfile(prof, d)
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(gp, wp) {
		t.Errorf("optical profile Simulate %+v != engine %+v", gp, wp)
	}

	// Electrical: same engine, the network's fabric, no wavelength
	// validation (packet switching has no wavelength constraint).
	ge, err := wrht.Simulate(wrht.ElectricalFatTree, s, d)
	if err != nil {
		t.Fatal(err)
	}
	nw, err := electrical.NewNetwork(64, electrical.DefaultParams())
	if err != nil {
		t.Fatal(err)
	}
	we, err := fabric.Engine{Fabric: nw.Fabric()}.RunSchedule(s, d)
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(ge, we) {
		t.Errorf("electrical Simulate %+v != engine %+v", ge, we)
	}
}

// TestSimulateArgumentErrors: the facade's misuse cases must all error
// loudly rather than silently mis-simulate.
func TestSimulateArgumentErrors(t *testing.T) {
	prof := wrht.RingProfile(64)
	s, err := wrht.Build(wrht.KindRing, 64)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := wrht.Simulate(wrht.ElectricalFatTree, prof, 1e6); err == nil {
		t.Error("electrical profile without WithHosts should error")
	}
	if _, err := wrht.Simulate(wrht.ElectricalFatTree, prof, 1e6, wrht.WithHosts(64)); err != nil {
		t.Errorf("electrical profile with WithHosts: %v", err)
	}
	if _, err := wrht.Simulate(wrht.ElectricalFatTree, s, 1e6, wrht.WithOverlap()); err == nil {
		t.Error("overlap on the electrical backend should error")
	}
	if _, err := wrht.Simulate(wrht.Backend("bogus"), s, 1e6); err == nil {
		t.Error("unknown backend should error")
	}
	if _, err := wrht.Simulate(wrht.Optical, 42, 1e6); err == nil {
		t.Error("non-collective argument should error")
	}
}

// TestSimulateRejectsMalformedSchedules: a one-transfer schedule on 8
// nodes that no fabric can time must be an error on both backends,
// never a panic.
func TestSimulateRejectsMalformedSchedules(t *testing.T) {
	for _, c := range []struct {
		name string
		tr   core.Transfer
	}{
		{"self transfer", core.Transfer{Src: 3, Dst: 3, Chunk: tensor.Whole}},
		{"endpoint out of range", core.Transfer{Src: 3, Dst: 9, Chunk: tensor.Whole}},
		{"zero chunk divisor", core.Transfer{Src: 3, Dst: 4, Chunk: tensor.Chunk{Of: 0}}},
	} {
		s := &wrht.Schedule{Algorithm: "bad", Ring: topo.NewRing(8), Steps: []core.Step{{Transfers: []core.Transfer{c.tr}}}}
		for _, b := range []wrht.Backend{wrht.Optical, wrht.ElectricalFatTree} {
			if _, err := wrht.Simulate(b, s, 1e6); err == nil {
				t.Errorf("%s on %s: no error", c.name, b)
			}
		}
	}
}
