package core_test

import (
	"testing"

	"wrht/internal/collective"
	"wrht/internal/core"
	"wrht/internal/fabric"
	"wrht/internal/rwa"
	"wrht/internal/tensor"
	"wrht/internal/topo"
)

// transitionCorpus returns one stream constructor per schedule kind
// whose consecutive steps the validator's transition must carry:
// repeated neighbour circuits (Ring, H-Ring), changing circuits (BT,
// RD), gather levels sharing no circuit (WRHT, first- and random-fit),
// WDM-H-Ring's all-to-all sub-steps and a torus row.
func transitionCorpus(t *testing.T) map[string]func() core.StepSource {
	t.Helper()
	must := func(src core.StepSource, err error) core.StepSource {
		t.Helper()
		if err != nil {
			t.Fatal(err)
		}
		return src
	}
	return map[string]func() core.StepSource{
		"ring":  func() core.StepSource { return collective.StreamRing(16) },
		"hring": func() core.StepSource { return must(collective.StreamHRing(24, 4, 2)) },
		"bt":    func() core.StepSource { return collective.StreamBT(13) },
		"rd":    func() core.StepSource { return must(collective.StreamRD(16)) },
		"wrht-firstfit": func() core.StepSource {
			return must(core.StreamWRHT(core.Config{N: 40, Wavelengths: 4}))
		},
		"wrht-randomfit": func() core.StepSource {
			return must(core.StreamWRHT(core.Config{N: 40, Wavelengths: 4, Strategy: rwa.RandomFit, Seed: 3}))
		},
		"wdm-hring": func() core.StepSource { return must(collective.StreamWDMHRing(24, 6, 3)) },
		"torus-row": func() core.StepSource {
			return must(core.StreamWRHTTorus(topo.Torus{Rows: 1, Cols: 27}, 4, 0))
		},
	}
}

// maskIndex returns an index for ring r, with fault-mask cells the
// corpus schedules never use when masked: per direction a cell set in
// the wavelength word the schedules use, which every wipe of that word
// must restore, and one in the third word.
func maskIndex(r topo.Ring, masked bool) *rwa.Index {
	ix := rwa.NewIndex(r)
	if masked {
		ix.Preoccupy(topo.CW, topo.Arc{Lo: 0, Len: r.N, N: r.N}, 63)
		ix.Preoccupy(topo.CCW, r.ArcOf(r.N-1, 1, topo.CCW), 62)
		ix.Preoccupy(topo.CCW, r.ArcOf(r.N/2, 1, topo.CCW), 130)
	}
	return ix
}

// occupyStep replays a step's circuits onto ix.
func occupyStep(ix *rwa.Index, ring topo.Ring, st *core.Step) {
	for _, tr := range st.Transfers {
		ix.Occupy(tr.Dir, ring.ArcOf(tr.Src, tr.Dst, tr.Dir), tr.Wavelength)
	}
}

// TestValidatorMatchesResetReplay drives every corpus stream through a
// StepValidator and pins its index after every step bit-identical
// (cells and block summaries) to a Reset+replay of that step, with and
// without a fault mask.
func TestValidatorMatchesResetReplay(t *testing.T) {
	for name, mk := range transitionCorpus(t) {
		for _, masked := range []bool{false, true} {
			src := mk()
			ring := src.Ring()
			ix, ref := maskIndex(ring, masked), maskIndex(ring, masked)
			v := core.NewStepValidator(ring, ix, 0)
			for k := 0; ; k++ {
				st, ok := src.Next()
				if !ok {
					if k < 2 {
						t.Fatalf("%s: only %d steps", name, k)
					}
					break
				}
				if err := v.Step(st); err != nil {
					t.Fatalf("%s masked=%v step %d: %v", name, masked, k, err)
				}
				ref.Reset()
				occupyStep(ref, ring, st)
				if !ix.EqualOccupancy(ref) {
					t.Fatalf("%s masked=%v step %d: index diverged from reset+replay", name, masked, k)
				}
			}
		}
	}
}

// TestValidatorDisjointMatchesStepsDisjoint pins the validator's
// boundary answer to the engine's own overlap probe on every boundary
// of the corpus, masked or not, and of a handcrafted schedule with a
// repeated circuit, a disjoint pair and an empty step.
func TestValidatorDisjointMatchesStepsDisjoint(t *testing.T) {
	tr := func(src, dst, w int) core.Step {
		return core.Step{Transfers: []core.Transfer{{Src: src, Dst: dst, Chunk: tensor.Whole, Dir: topo.CW, Wavelength: w}}}
	}
	mixed := &core.Schedule{Algorithm: "mixed", Ring: topo.NewRing(8), Steps: []core.Step{
		tr(0, 1, 0), tr(0, 1, 0), // repeated circuit: conflicting boundary
		tr(2, 3, 0), // disjoint boundary
		tr(4, 5, 1), // disjoint boundary
		{},          // empty step
		tr(6, 7, 0),
	}}
	streams := transitionCorpus(t)
	streams["mixed"] = mixed.Source
	for name, mk := range streams {
		for _, masked := range []bool{false, true} {
			src := mk()
			ring := src.Ring()
			v := core.NewStepValidator(ring, maskIndex(ring, masked), 0)
			probe := rwa.NewProbe(ring)
			var prev core.Step
			seen := map[bool]int{}
			for k := 0; ; k++ {
				st, ok := src.Next()
				if !ok {
					break
				}
				if err := v.Step(st); err != nil {
					t.Fatalf("%s masked=%v step %d: %v", name, masked, k, err)
				}
				if k > 0 {
					want := fabric.StepsDisjoint(probe, ring, prev, *st, nil)
					if got := v.Disjoint(); got != want {
						t.Fatalf("%s masked=%v boundary %d: validator says disjoint=%v, StepsDisjoint %v", name, masked, k, got, want)
					}
					seen[want]++
				}
				prev = core.Step{Phase: st.Phase, Transfers: append(prev.Transfers[:0], st.Transfers...)}
			}
			if name == "mixed" && (seen[true] != 4 || seen[false] != 1) {
				t.Fatalf("mixed masked=%v: %d disjoint and %d conflicting boundaries, want 4 and 1", masked, seen[true], seen[false])
			}
		}
	}
}

// TestWarmValidatorAllocatesNothing: once a validator has seen one
// schedule, validating a second schedule of the same shape allocates
// nothing, on the repeated-circuit path (Ring) and on the clear-and-
// occupy path (WRHT, RD).
func TestWarmValidatorAllocatesNothing(t *testing.T) {
	builds := map[string]func() (*core.Schedule, error){
		"ring": func() (*core.Schedule, error) { return collective.BuildRing(64), nil },
		"wrht": func() (*core.Schedule, error) { return core.BuildWRHT(core.Config{N: 256, Wavelengths: 8}) },
		"rd":   func() (*core.Schedule, error) { return collective.BuildRD(64) },
	}
	for name, build := range builds {
		warm, err := build()
		if err != nil {
			t.Fatal(err)
		}
		second, err := build()
		if err != nil {
			t.Fatal(err)
		}
		v := core.NewStepValidator(warm.Ring, rwa.NewIndex(warm.Ring), 0)
		feed := func(s *core.Schedule) {
			for i := range s.Steps {
				if err := v.Step(&s.Steps[i]); err != nil {
					t.Fatal(err)
				}
			}
		}
		feed(warm)
		if allocs := testing.AllocsPerRun(5, func() { feed(second) }); allocs != 0 {
			t.Errorf("%s: warmed validator allocated %v times per schedule", name, allocs)
		}
	}
}

// TestValidatorConsistentAfterError: after a step fails validation, the
// validator's index holds only its mask again, so steps fed on are
// still checked against exactly their own circuits.
func TestValidatorConsistentAfterError(t *testing.T) {
	ring := topo.NewRing(8)
	ix, ref := maskIndex(ring, true), maskIndex(ring, true)
	v := core.NewStepValidator(ring, ix, 4)
	tr := func(src, dst, w int) core.Transfer {
		return core.Transfer{Src: src, Dst: dst, Chunk: tensor.Whole, Dir: topo.CW, Wavelength: w}
	}
	steps := []struct {
		st      core.Step
		wantErr bool
	}{
		{core.Step{Transfers: []core.Transfer{tr(0, 3, 0), tr(4, 6, 0)}}, false},
		{core.Step{Transfers: []core.Transfer{tr(0, 3, 1), tr(1, 4, 1)}}, true}, // overlapping arcs on λ1
		{core.Step{Transfers: []core.Transfer{tr(0, 3, 0)}}, false},
		{core.Step{Transfers: []core.Transfer{tr(2, 5, 7)}}, true}, // beyond the budget
		{core.Step{Transfers: []core.Transfer{tr(1, 4, 1), tr(5, 7, 1)}}, false},
	}
	for k, c := range steps {
		err := v.Step(&c.st)
		if (err != nil) != c.wantErr {
			t.Fatalf("step %d: err=%v, want error %v", k, err, c.wantErr)
		}
		ref.Reset()
		if err == nil {
			occupyStep(ref, ring, &c.st)
		}
		if !ix.EqualOccupancy(ref) {
			t.Fatalf("step %d: index does not hold exactly the validated circuits", k)
		}
	}
}
