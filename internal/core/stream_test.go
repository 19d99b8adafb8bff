package core_test

import (
	"fmt"
	"reflect"
	"testing"

	"wrht/internal/collective"
	"wrht/internal/core"
	"wrht/internal/rwa"
	"wrht/internal/tensor"
	"wrht/internal/topo"
)

// buildCorpus returns one schedule per construction kind (WRHT in its
// strategy/ablation variants, the torus scheme, and every baseline),
// each paired with a rebuild closure so determinism can be checked
// against a second independent stream.
func buildCorpus(t *testing.T) map[string]func() *core.Schedule {
	t.Helper()
	wrht := func(cfg core.Config) func() *core.Schedule {
		return func() *core.Schedule {
			s, err := core.BuildWRHT(cfg)
			if err != nil {
				t.Fatalf("BuildWRHT(%+v): %v", cfg, err)
			}
			return s
		}
	}
	must := func(s *core.Schedule, err error) *core.Schedule {
		if err != nil {
			t.Fatal(err)
		}
		return s
	}
	return map[string]func() *core.Schedule{
		"wrht-trivial":   wrht(core.Config{N: 1, Wavelengths: 2}),
		"wrht-firstfit":  wrht(core.Config{N: 15, Wavelengths: 2}),
		"wrht-randomfit": wrht(core.Config{N: 40, Wavelengths: 4, Strategy: rwa.RandomFit, Seed: 11}),
		"wrht-no-a2a":    wrht(core.Config{N: 64, Wavelengths: 8, DisableAllToAll: true}),
		"wrht-m3":        wrht(core.Config{N: 27, Wavelengths: 4, GroupSize: 3}),
		"wrht-maxgroup":  wrht(core.Config{N: 50, Wavelengths: 16, MaxGroupSize: 5}),
		"wrht-torus": func() *core.Schedule {
			return must(core.BuildWRHTTorus(topo.Torus{Rows: 4, Cols: 8}, 4, 0))
		},
		"ring": func() *core.Schedule { return collective.BuildRing(12) },
		"bt":   func() *core.Schedule { return collective.BuildBT(13) },
		"rd":   func() *core.Schedule { return must(collective.BuildRD(16)) },
		"hring": func() *core.Schedule {
			return must(collective.BuildHRing(24, 4, 2))
		},
		"wdm-hring": func() *core.Schedule {
			return must(collective.BuildWDMHRing(24, 6, 3))
		},
	}
}

// TestStreamDeterminism pins every streamed constructor deterministic:
// two independent builds (each a fresh stream drained by Collect) must
// be deeply equal, including the RandomFit variants, whose rng is
// seeded per stream.
func TestStreamDeterminism(t *testing.T) {
	for name, build := range buildCorpus(t) {
		a, b := build(), build()
		if !reflect.DeepEqual(a, b) {
			t.Errorf("%s: two streamed builds differ", name)
		}
	}
}

// TestSourceRoundTrip pins Collect(s.Source()) deeply equal to s for
// every corpus schedule — the stream view loses nothing.
func TestSourceRoundTrip(t *testing.T) {
	for name, build := range buildCorpus(t) {
		s := build()
		got := core.Collect(s.Source())
		if !reflect.DeepEqual(got, s) {
			t.Errorf("%s: Collect(Source()) != original schedule", name)
		}
	}
}

// TestCompactRoundTrip pins the interned step representation lossless:
// CompactOf then ExpandInto with the identity mapping reproduces every
// transfer of every corpus step exactly.
func TestCompactRoundTrip(t *testing.T) {
	id := func(v int) int { return v }
	for name, build := range buildCorpus(t) {
		s := build()
		var buf core.Step
		for si, st := range s.Steps {
			c := core.CompactOf(st)
			c.ExpandInto(&buf, id)
			if buf.Phase != st.Phase || len(buf.Transfers) != len(st.Transfers) {
				t.Fatalf("%s step %d: round-trip shape mismatch", name, si)
			}
			for ti := range st.Transfers {
				if buf.Transfers[ti] != st.Transfers[ti] {
					t.Fatalf("%s step %d transfer %d: %v != %v", name, si, ti, buf.Transfers[ti], st.Transfers[ti])
				}
			}
		}
	}
}

// legacyValidate is the pre-streaming ValidateWithIndex, copied
// verbatim: per-step Reset+replay through rwa.Index.Validate with
// freshly allocated request buffers. It is the oracle the streamed
// validator's errors are pinned against.
func legacyValidate(s *core.Schedule, ix *rwa.Index, wavelengths int) error {
	n := s.Ring.N
	for si, st := range s.Steps {
		reqs := make([]rwa.Request, 0, len(st.Transfers))
		asn := make(rwa.Assignment, 0, len(st.Transfers))
		for ti, t := range st.Transfers {
			if t.Src < 0 || t.Src >= n || t.Dst < 0 || t.Dst >= n {
				return fmt.Errorf("core: step %d transfer %d: node out of range: %v", si, ti, t)
			}
			if t.Src == t.Dst {
				return fmt.Errorf("core: step %d transfer %d: self transfer: %v", si, ti, t)
			}
			if err := t.Chunk.Validate(); err != nil {
				return fmt.Errorf("core: step %d transfer %d: %w", si, ti, err)
			}
			reqs = append(reqs, rwa.Request{Src: t.Src, Dst: t.Dst, Dir: t.Dir})
			asn = append(asn, t.Wavelength)
		}
		if err := ix.Validate(reqs, rwa.ArcsOf(s.Ring, reqs), asn, wavelengths); err != nil {
			return fmt.Errorf("core: step %d: %w", si, err)
		}
	}
	return nil
}

// copySchedule clones the step/transfer structure so a mutation never
// leaks into the shared corpus build.
func copySchedule(s *core.Schedule) *core.Schedule {
	out := &core.Schedule{Algorithm: s.Algorithm, Ring: s.Ring, Steps: make([]core.Step, len(s.Steps))}
	for i, st := range s.Steps {
		out.Steps[i] = core.Step{Phase: st.Phase, Transfers: append([]core.Transfer(nil), st.Transfers...)}
	}
	return out
}

// TestValidateMatchesLegacy differentially pins the streamed step
// validator against the legacy Reset+replay oracle: on every corpus
// schedule — clean and under a systematic set of corruptions (negative
// wavelength, budget overflow, duplicated wavelength, self transfer,
// out-of-range node, malformed chunk) — both validators must agree on
// acceptance and, when rejecting, return the identical error string
// (including which conflict pair rwa names).
func TestValidateMatchesLegacy(t *testing.T) {
	type mutation struct {
		name  string
		apply func(tr *core.Transfer, s *core.Schedule)
	}
	muts := []mutation{
		{"negative-wavelength", func(tr *core.Transfer, _ *core.Schedule) { tr.Wavelength = -1 }},
		{"budget-overflow", func(tr *core.Transfer, s *core.Schedule) { tr.Wavelength = s.WavelengthsNeeded() + 3 }},
		{"wavelength-zero", func(tr *core.Transfer, _ *core.Schedule) { tr.Wavelength = 0 }},
		{"self-transfer", func(tr *core.Transfer, _ *core.Schedule) { tr.Dst = tr.Src }},
		{"node-range", func(tr *core.Transfer, s *core.Schedule) { tr.Dst = s.Ring.N + 7 }},
		{"bad-chunk", func(tr *core.Transfer, _ *core.Schedule) { tr.Chunk = tensor.Chunk{Index: 5, Of: 2} }},
	}
	errStr := func(err error) string {
		if err == nil {
			return "<nil>"
		}
		return err.Error()
	}
	for name, build := range buildCorpus(t) {
		orig := build()
		wv := orig.WavelengthsNeeded()
		if wv == 0 {
			wv = 1
		}
		check := func(label string, s *core.Schedule) {
			got := errStr(s.ValidateWithIndex(rwa.NewIndex(s.Ring), wv))
			want := errStr(legacyValidate(s, rwa.NewIndex(s.Ring), wv))
			if got != want {
				t.Errorf("%s/%s: streamed validator %q, legacy %q", name, label, got, want)
			}
		}
		check("clean", copySchedule(orig))
		// Mutate a spread of positions: first/middle/last step, first and
		// last transfer of each.
		for _, si := range []int{0, len(orig.Steps) / 2, len(orig.Steps) - 1} {
			if si < 0 || si >= len(orig.Steps) {
				continue
			}
			for _, m := range muts {
				for _, last := range []bool{false, true} {
					s := copySchedule(orig)
					trs := s.Steps[si].Transfers
					if len(trs) == 0 {
						continue
					}
					ti := 0
					if last {
						ti = len(trs) - 1
					}
					m.apply(&trs[ti], s)
					check(fmt.Sprintf("%s@%d.%d", m.name, si, ti), s)
				}
			}
		}
	}
}

// TestValidateMaskedMatchesLegacy pins the fault-mask path: with
// identical pre-occupied cells seeded into both indexes, the streamed
// validator must agree with the legacy oracle on schedules that do and
// do not touch the mask.
func TestValidateMaskedMatchesLegacy(t *testing.T) {
	s, err := core.BuildWRHT(core.Config{N: 15, Wavelengths: 2})
	if err != nil {
		t.Fatal(err)
	}
	seed := func() *rwa.Index {
		ix := rwa.NewIndex(s.Ring)
		// One cell set the schedule certainly uses (wavelength 0 near node
		// 0) and one far above the budget.
		ix.Preoccupy(topo.CW, s.Ring.ArcOf(0, 1, topo.CW), 0)
		ix.Preoccupy(topo.CCW, s.Ring.ArcOf(5, 3, topo.CCW), 90)
		return ix
	}
	got := s.ValidateWithIndex(seed(), 2)
	want := legacyValidate(s, seed(), 2)
	if (got == nil) != (want == nil) || (got != nil && got.Error() != want.Error()) {
		t.Fatalf("masked: streamed %v, legacy %v", got, want)
	}
	if got == nil {
		t.Fatal("mask on wavelength 0 should have produced a conflict")
	}
}

// TestValidateAllocsStepCountIndependent pins satellite criterion:
// validation over a reused index allocates a constant amount regardless
// of the schedule's step count (the request/arc/circuit scratch lives
// in the index and the validator, not per step).
func TestValidateAllocsStepCountIndependent(t *testing.T) {
	long := collective.BuildRing(128) // 254 steps of 128 transfers
	short := copySchedule(long)
	short.Steps = short.Steps[:4] // same per-step width, 4 steps
	ix := rwa.NewIndex(long.Ring)
	allocs := func(s *core.Schedule) float64 {
		return testing.AllocsPerRun(10, func() {
			if err := s.ValidateWithIndex(ix, 1); err != nil {
				t.Fatal(err)
			}
		})
	}
	aShort, aLong := allocs(short), allocs(long)
	// Per-run cost is the validator + its scratch warm-up, which depends
	// on the step width (N), never on the step count: 63x the steps must
	// not change the allocation count.
	if aLong != aShort {
		t.Errorf("validation allocs scale with steps: %v for 4 steps, %v for 254", aShort, aLong)
	}
}
