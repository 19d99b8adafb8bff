package rwa

import (
	"math/rand"
	"testing"

	"wrht/internal/topo"
)

// FuzzAssign is a differential fuzz of the bitset assignment path
// against the legacy quadratic oracle on arbitrary request sets: both
// strategies must produce bit-identical assignments and wavelength
// counts (RandomFit from identical RNG draws), every assignment must
// validate conflict-free under both validators, and every wavelength id
// must stay inside the count Assign reports.
func FuzzAssign(f *testing.F) {
	f.Add(8, int64(1), []byte{0x01, 0x52, 0x13, 0x34})
	f.Add(16, int64(7), []byte{0xff, 0x00, 0x80, 0x7f, 0x21})
	f.Add(3, int64(42), []byte{})
	f.Fuzz(func(t *testing.T, n int, seed int64, data []byte) {
		if n < 2 {
			n = 2
		}
		if n > 64 {
			n = 64
		}
		ring := topo.NewRing(n)
		// Three fuzz bytes make one request: source, hop distance (1..n-1
		// so src != dst) and direction.
		var reqs []Request
		for i := 0; i+2 < len(data) && len(reqs) < 128; i += 3 {
			src := int(data[i]) % n
			dst := (src + 1 + int(data[i+1])%(n-1)) % n
			dir := topo.CW
			if data[i+2]%2 == 1 {
				dir = topo.CCW
			}
			reqs = append(reqs, Request{Src: src, Dst: dst, Dir: dir})
		}
		for _, strat := range []Strategy{FirstFit, RandomFit} {
			asn, used := Assign(ring, reqs, strat, rand.New(rand.NewSource(seed)))
			if len(asn) != len(reqs) {
				t.Fatalf("%v: %d assignments for %d requests", strat, len(asn), len(reqs))
			}
			ref, refUsed := assignQuadratic(ring, reqs, strat, rand.New(rand.NewSource(seed)))
			if used != refUsed {
				t.Fatalf("%v: bitset used %d wavelengths, oracle %d", strat, used, refUsed)
			}
			for i := range reqs {
				if asn[i] != ref[i] {
					t.Fatalf("%v: request %d: bitset λ%d, oracle λ%d", strat, i, asn[i], ref[i])
				}
			}
			for i, w := range asn {
				if w < 0 || w >= used {
					t.Fatalf("%v: request %d got wavelength %d outside [0,%d)", strat, i, w, used)
				}
			}
			if err := Validate(ring, reqs, asn, used); err != nil {
				t.Fatalf("%v: assignment rejected by validator: %v", strat, err)
			}
			if err := validateQuadratic(ring, reqs, asn, used); err != nil {
				t.Fatalf("%v: assignment rejected by oracle validator: %v", strat, err)
			}

			// Transition coverage: occupy the whole assignment, move to a
			// step keeping a data-derived subset, and pin the surviving
			// occupancy (cells and block summaries) bit-identical to an
			// index that only ever occupied the kept circuits.
			arcs := ArcsOf(ring, reqs)
			ix := NewIndex(ring)
			kept := NewIndex(ring)
			var all, keep []Circuit
			for i, q := range reqs {
				c := Circuit{Dir: q.Dir, Arc: arcs[i], W: asn[i]}
				ix.Occupy(c.Dir, c.Arc, c.W)
				all = append(all, c)
				if data[(i*3)%max(len(data), 1)]&0x40 == 0 {
					kept.Occupy(c.Dir, c.Arc, c.W)
					keep = append(keep, c)
				}
			}
			if _, ok := ix.Transition(all, keep); !ok {
				t.Fatalf("%v: transition to a subset of a valid assignment reported a conflict", strat)
			}
			if !ix.EqualOccupancy(kept) {
				t.Fatalf("%v: transition occupancy differs from never-occupied reference", strat)
			}
		}
	})
}
