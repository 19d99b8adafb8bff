package rwa

import (
	"math/rand"
	"slices"
	"testing"

	"wrht/internal/topo"
)

// randomStep draws a conflict-free circuit set on ring r: random
// requests colored by AssignInto, so wavelengths never clash within the
// step (the precondition Transition's clearing relies on).
func randomStep(t *testing.T, r topo.Ring, rng *rand.Rand, maxReqs int) []Circuit {
	t.Helper()
	nr := rng.Intn(maxReqs + 1)
	reqs := make([]Request, nr)
	for i := range reqs {
		src := rng.Intn(r.N)
		dst := (src + 1 + rng.Intn(r.N-1)) % r.N
		dir := topo.CW
		if rng.Intn(2) == 1 {
			dir = topo.CCW
		}
		reqs[i] = Request{Src: src, Dst: dst, Dir: dir}
	}
	arcs := ArcsOf(r, reqs)
	ix := NewIndex(r)
	asn := make(Assignment, nr)
	ix.AssignInto(asn, reqs, arcs, FirstFit, nil)
	out := make([]Circuit, nr)
	for i := range reqs {
		out[i] = Circuit{Dir: reqs[i].Dir, Arc: arcs[i], W: asn[i]}
	}
	return out
}

// occupyAll occupies every circuit on a reset index.
func occupyAll(ix *Index, step []Circuit) {
	for _, c := range step {
		ix.Occupy(c.Dir, c.Arc, c.W)
	}
}

// pooled returns the request/arc/assignment view of the circuits of
// both steps, for ConflictFree.
func pooled(r topo.Ring, steps ...[]Circuit) ([]Request, []topo.Arc, Assignment) {
	var reqs []Request
	var arcs []topo.Arc
	var asn Assignment
	for _, st := range steps {
		for _, c := range st {
			reqs = append(reqs, Request{Src: c.Arc.Lo, Dst: (c.Arc.Lo + c.Arc.Len) % r.N, Dir: c.Dir})
			arcs = append(arcs, c.Arc)
			asn = append(asn, c.W)
		}
	}
	return reqs, arcs, asn
}

// TestTransitionMatchesResetReplay chains random conflict-free steps
// through one index and pins its occupancy (cells AND block summaries)
// bit-identical to a fresh Reset+replay of each step, with and without
// a pre-occupied fault mask. Every fourth step repeats its predecessor,
// which takes the keep-as-is path.
func TestTransitionMatchesResetReplay(t *testing.T) {
	for _, masked := range []bool{false, true} {
		for _, n := range []int{2, 5, 16, 64, 100} {
			r := topo.NewRing(n)
			rng := rand.New(rand.NewSource(int64(n) * 31))
			ix := NewIndex(r)
			ref := NewIndex(r)
			if masked {
				// Park the mask on high wavelength words so it never
				// collides with the assigned circuits.
				for _, x := range []*Index{ix, ref} {
					x.Preoccupy(topo.CW, r.ArcOf(0, n/2+1, topo.CW), 130)
					x.Preoccupy(topo.CCW, r.ArcOf(1, 0, topo.CCW), 64)
				}
			}
			ix.Reset()
			var prev []Circuit
			for step := 0; step < 40; step++ {
				next := randomStep(t, r, rng, 24)
				if step%4 == 3 {
					next = slices.Clone(prev)
				}
				if _, ok := ix.Transition(prev, next); !ok {
					t.Fatalf("n=%d masked=%v step %d: conflict reported on a conflict-free step", n, masked, step)
				}
				ref.Reset()
				occupyAll(ref, next)
				if !ix.EqualOccupancy(ref) {
					t.Fatalf("n=%d masked=%v step %d: transition occupancy diverged from reset+replay", n, masked, step)
				}
				if !ref.EqualOccupancy(ix) {
					t.Fatalf("n=%d masked=%v step %d: EqualOccupancy not symmetric", n, masked, step)
				}
				prev = next
			}
		}
	}
}

// TestTransitionMatchesConflictFree pins both of Transition's answers
// to the authoritative ConflictFree check, on steps that are randomly
// either clean or corrupted (a duplicated circuit forces a clash): ok
// is ConflictFree of the new step over the mask, and on a clean step
// disjoint is ConflictFree of both steps pooled. After a rejection the
// index state is unspecified, so the chain restarts from Reset exactly
// as StepValidator's fallback path does.
func TestTransitionMatchesConflictFree(t *testing.T) {
	r := topo.NewRing(24)
	rng := rand.New(rand.NewSource(7))
	ix := NewIndex(r)
	ix.Preoccupy(topo.CW, r.ArcOf(3, 9, topo.CW), 200)
	ix.Reset()
	oracle := NewIndex(r)
	oracle.Preoccupy(topo.CW, r.ArcOf(3, 9, topo.CW), 200)
	var prev []Circuit
	sawBad, sawDisjoint, sawClash := false, false, false
	for step := 0; step < 400; step++ {
		next := randomStep(t, r, rng, 1+rng.Intn(12))
		if len(next) > 0 && rng.Intn(3) == 0 {
			// Corrupt: clone a circuit so it overlaps itself.
			next = append(next, next[rng.Intn(len(next))])
		}
		want := oracle.ConflictFree(pooled(r, next))
		disjoint, got := ix.Transition(prev, next)
		if got != want {
			t.Fatalf("step %d: Transition ok=%v, ConflictFree=%v (%d circuits)", step, got, want, len(next))
		}
		if !got {
			sawBad = true
			// A rejected step aborts validation in the real pipeline, so
			// the chain restarts clean: Transition's precondition only
			// covers conflict-free previous steps.
			ix.Reset()
			prev = nil
			continue
		}
		if step > 0 {
			if wantDisjoint := oracle.ConflictFree(pooled(r, prev, next)); disjoint != wantDisjoint {
				t.Fatalf("step %d: Transition disjoint=%v, pooled ConflictFree=%v", step, disjoint, wantDisjoint)
			}
			sawDisjoint = sawDisjoint || disjoint
			sawClash = sawClash || !disjoint
		}
		prev = next
	}
	if !sawBad || !sawDisjoint || !sawClash {
		t.Fatalf("test is vacuous: saw conflict=%v disjoint boundary=%v clashing boundary=%v", sawBad, sawDisjoint, sawClash)
	}
}

// TestTransitionRepeatedStep pins the keep-as-is path: a step that
// repeats its predecessor leaves the occupancy untouched and clashes
// with it, and two empty steps are disjoint.
func TestTransitionRepeatedStep(t *testing.T) {
	r := topo.NewRing(16)
	step := []Circuit{{topo.CW, r.ArcOf(0, 1, topo.CW), 0}, {topo.CW, r.ArcOf(1, 2, topo.CW), 0}}
	ix := NewIndex(r)
	occupyAll(ix, step)
	ref := NewIndex(r)
	occupyAll(ref, step)
	if disjoint, ok := ix.Transition(step, slices.Clone(step)); disjoint || !ok {
		t.Fatalf("repeated step: disjoint=%v ok=%v, want false true", disjoint, ok)
	}
	if !ix.EqualOccupancy(ref) {
		t.Fatal("repeated step changed the occupancy")
	}
	if disjoint, ok := NewIndex(r).Transition(nil, nil); !disjoint || !ok {
		t.Fatalf("empty steps: disjoint=%v ok=%v, want true true", disjoint, ok)
	}
}

// TestTransitionRepairsBlockSummaries occupies same-wavelength circuits
// sharing a 64-segment summary block, transitions to a step keeping
// only one of them, and checks both the per-segment cells and the block
// summaries match an index that never saw the dropped circuit. The
// masked variant keeps the survivor as a base cell instead, so only
// re-applying the base restores its summary bit.
func TestTransitionRepairsBlockSummaries(t *testing.T) {
	r := topo.NewRing(200) // several summary blocks, wrap-around arcs
	cases := [][2]Circuit{
		// Same block, disjoint segments.
		{{topo.CW, r.ArcOf(2, 10, topo.CW), 5}, {topo.CW, r.ArcOf(20, 30, topo.CW), 5}},
		// Different blocks, same word.
		{{topo.CW, r.ArcOf(0, 40, topo.CW), 7}, {topo.CW, r.ArcOf(100, 180, topo.CW), 7}},
		// Wrap-around clear crossing the ring seam.
		{{topo.CCW, r.ArcOf(10, 190, topo.CCW), 66}, {topo.CCW, r.ArcOf(100, 60, topo.CCW), 66}},
		// Different wavelengths in the same word on overlapping segments.
		{{topo.CW, r.ArcOf(50, 90, topo.CW), 3}, {topo.CW, r.ArcOf(60, 95, topo.CW), 4}},
	}
	for i, pair := range cases {
		keep, drop := pair[0], pair[1]
		ix := NewIndex(r)
		occupyAll(ix, pair[:])
		if _, ok := ix.Transition(pair[:], []Circuit{keep}); !ok {
			t.Fatalf("case %d: conflict reported keeping %v", i, keep)
		}
		ref := NewIndex(r)
		ref.Occupy(keep.Dir, keep.Arc, keep.W)
		if !ix.EqualOccupancy(ref) {
			t.Errorf("case %d: transition left occupancy != never-occupied reference", i)
		}

		masked := NewIndex(r)
		masked.Preoccupy(keep.Dir, keep.Arc, keep.W)
		masked.Occupy(drop.Dir, drop.Arc, drop.W)
		if _, ok := masked.Transition([]Circuit{drop}, nil); !ok {
			t.Fatalf("case %d: conflict reported on an empty step", i)
		}
		if !masked.EqualOccupancy(ref) {
			t.Errorf("case %d: clearing %v lost the base cell %v", i, drop, keep)
		}
	}
}

// TestTransitionClearsBeforeOccupy pins the ordering: a new circuit
// claiming exactly the cells a previous circuit frees must not be
// misreported as a conflict, though the boundary is not disjoint.
func TestTransitionClearsBeforeOccupy(t *testing.T) {
	r := topo.NewRing(16)
	ix := NewIndex(r)
	prev := []Circuit{{topo.CW, r.ArcOf(2, 9, topo.CW), 3}}
	occupyAll(ix, prev)
	// Overlapping cells, but a different Circuit value (distinct arc bounds).
	next := []Circuit{{topo.CW, r.ArcOf(1, 10, topo.CW), 3}}
	disjoint, ok := ix.Transition(prev, next)
	if !ok {
		t.Fatal("Transition misreported a conflict for cells freed within the same step")
	}
	if disjoint {
		t.Fatal("Transition called overlapping circuits disjoint")
	}
	ref := NewIndex(r)
	occupyAll(ref, next)
	if !ix.EqualOccupancy(ref) {
		t.Fatal("occupancy after handover diverged from replay")
	}
}
