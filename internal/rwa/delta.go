package rwa

import (
	"slices"

	"wrht/internal/topo"
)

// Step transitions. A streaming validator keeps one index holding the
// current step's circuits and moves it to the next step's with
// Transition, never resetting and replaying it whole. The ring
// algorithms repeat a step's neighbour circuits verbatim, which costs
// one comparison per circuit; any other step clears the previous
// step's cells and occupies the new ones, which costs what occupying
// them did. Nothing is sorted to find circuits two steps share: WRHT's
// consecutive steps share none (a group's distance-k member always
// holds wavelength k−1). Transition ≡ Reset+replay is pinned
// bit-identically by the differential tests in delta_test.go and
// internal/core, and by FuzzAssign.

// Circuit is one occupied (direction, arc, wavelength) resource — the
// unit a step transition occupies and clears.
type Circuit struct {
	Dir topo.Direction
	Arc topo.Arc
	W   int
}

// Transition moves the index from holding prev's circuits to holding
// next's, both on top of the pre-occupied (Preoccupy) base cells. The
// index must hold exactly the base plus prev, and prev must have been
// conflict-free over the base when it was occupied; every wavelength
// must be non-negative.
//
//   - When next lists exactly prev's circuits in the same order, the
//     occupancy stays as it is.
//   - Otherwise next's circuits are first probed against the held
//     occupancy. Then prev's cells are cleared, the base cells are
//     re-applied and next's circuits are occupied one by one, each
//     checked against the base and the circuits before it.
//
// disjoint reports whether no circuit of next touches a cell that was
// held before the transition, prev's or the base's. For two
// conflict-free steps that is exactly whether their circuits can be up
// at the same time, the engine's overlap probe. ok reports whether next
// is conflict-free over the base. On false the index holds a partial
// state: callers re-derive it with Validate, which resets on entry.
// Neither slice is modified, and Transition allocates nothing once the
// index has grown to next's wavelengths.
func (ix *Index) Transition(prev, next []Circuit) (disjoint, ok bool) {
	disjoint = true
	if slices.Equal(prev, next) {
		// Each circuit of a non-empty arc meets its own copy in prev.
		for _, c := range next {
			if c.Arc.Len > 0 {
				return false, true
			}
		}
		return true, true
	}
	for _, c := range next {
		if ix.Occupied(c.Dir, c.Arc, c.W) {
			disjoint = false
			break
		}
	}
	ix.clear(prev)
	for _, c := range next {
		if !ix.claim(c) {
			return disjoint, false
		}
	}
	return disjoint, true
}

// clear empties the cells and block summary bits of every circuit in
// cs, then re-applies the base cells. A block bit is cleared without
// looking at the block's other segments: when cs is everything the
// index holds beyond the base, the only other live cells are base
// cells, and re-applying the base sets their bits again. Circuits that
// cover at least as many cells as one direction's rows in use (a WRHT
// gather level covers about m/4 per node) are cleared by wiping the
// rows instead, which is Reset.
func (ix *Index) clear(cs []Circuit) {
	cells := 0
	for _, c := range cs {
		cells += c.Arc.Len
	}
	if cells >= ix.words*ix.n {
		ix.Reset()
		return
	}
	for _, c := range cs {
		word := c.W >> 6
		lo1, hi1, lo2, hi2 := ix.arcRanges(c.Arc)
		mask := uint64(1) << (c.W & 63)
		occRow := ix.occ[c.Dir][word*ix.n : (word+1)*ix.n]
		blkRow := ix.blk[c.Dir][word*ix.nb : (word+1)*ix.nb]
		unset(occRow, blkRow, lo1, hi1, mask)
		unset(occRow, blkRow, lo2, hi2, mask)
	}
	for _, b := range ix.base {
		ix.Occupy(b.dir, b.arc, b.w)
	}
}

// unset clears mask on segments [lo, hi) of one word's occupancy row
// and on the summary bits of the blocks those segments fall in.
func unset(occRow, blkRow []uint64, lo, hi int, mask uint64) {
	seg := occRow[lo:hi]
	for i := range seg {
		seg[i] &^= mask
	}
	for j := lo >> 6; j<<6 < hi; j++ {
		blkRow[j] &^= mask
	}
}

// claim occupies circuit c, reporting whether none of its cells was
// held before: Occupied and Occupy in one pass over the arc. On false
// the index is in the partial state Transition reports.
func (ix *Index) claim(c Circuit) bool {
	word := c.W >> 6
	if word >= ix.words {
		ix.grow(word)
		ix.words = word + 1
	}
	lo1, hi1, lo2, hi2 := ix.arcRanges(c.Arc)
	mask := uint64(1) << (c.W & 63)
	occRow := ix.occ[c.Dir][word*ix.n : (word+1)*ix.n]
	blkRow := ix.blk[c.Dir][word*ix.nb : (word+1)*ix.nb]
	return setFree(occRow, blkRow, lo1, hi1, mask) && setFree(occRow, blkRow, lo2, hi2, mask)
}

// setFree sets mask on segments [lo, hi) of one word's occupancy row
// and on their blocks' summary bits, reporting whether none of the
// segments held it before. It sets every segment even after a clash.
func setFree(occRow, blkRow []uint64, lo, hi int, mask uint64) bool {
	seg := occRow[lo:hi]
	var held uint64
	for i, v := range seg {
		held |= v
		seg[i] = v | mask
	}
	for j := lo >> 6; j<<6 < hi; j++ {
		blkRow[j] |= mask
	}
	return held&mask == 0
}

// EqualOccupancy reports whether two indexes over the same ring size
// hold exactly the same occupied cells and block summaries — the
// differential-testing probe pinning Transition bit-identical to
// Reset+replay. Wavelength words beyond either index's in-use range
// compare as zero, so an index that grew and then cleared everything
// high compares equal to one that never grew.
func (ix *Index) EqualOccupancy(other *Index) bool {
	if ix.n != other.n {
		return false
	}
	words := max(ix.words, other.words)
	rowOf := func(x *Index, s []uint64, k, rowLen int) []uint64 {
		if k >= x.words {
			return nil
		}
		return s[k*rowLen : (k+1)*rowLen]
	}
	eq := func(a, b []uint64, rowLen int) bool {
		for s := 0; s < rowLen; s++ {
			var av, bv uint64
			if a != nil {
				av = a[s]
			}
			if b != nil {
				bv = b[s]
			}
			if av != bv {
				return false
			}
		}
		return true
	}
	for d := range ix.occ {
		for k := 0; k < words; k++ {
			if !eq(rowOf(ix, ix.occ[d], k, ix.n), rowOf(other, other.occ[d], k, other.n), ix.n) {
				return false
			}
			if !eq(rowOf(ix, ix.blk[d], k, ix.nb), rowOf(other, other.blk[d], k, other.nb), ix.nb) {
				return false
			}
		}
	}
	return true
}
