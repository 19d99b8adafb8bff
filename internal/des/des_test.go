package des

import (
	"cmp"
	"math"
	"math/rand"
	"slices"
	"testing"
	"testing/quick"
)

func TestEventOrdering(t *testing.T) {
	var k Kernel
	var order []int
	k.At(3, func() { order = append(order, 3) })
	k.At(1, func() { order = append(order, 1) })
	k.At(2, func() { order = append(order, 2) })
	if end := k.Run(); end != 3 {
		t.Fatalf("final time %g, want 3", end)
	}
	if len(order) != 3 || order[0] != 1 || order[1] != 2 || order[2] != 3 {
		t.Fatalf("order = %v", order)
	}
}

func TestFIFOTieBreaking(t *testing.T) {
	var k Kernel
	var order []int
	for i := 0; i < 10; i++ {
		i := i
		k.At(5, func() { order = append(order, i) })
	}
	k.Run()
	for i, v := range order {
		if v != i {
			t.Fatalf("same-time events reordered: %v", order)
		}
	}
}

func TestAfterAndNestedScheduling(t *testing.T) {
	var k Kernel
	var hits []float64
	k.After(1, func() {
		hits = append(hits, k.Now())
		k.After(2, func() { hits = append(hits, k.Now()) })
	})
	if end := k.Run(); end != 3 {
		t.Fatalf("end = %g", end)
	}
	if len(hits) != 2 || hits[0] != 1 || hits[1] != 3 {
		t.Fatalf("hits = %v", hits)
	}
}

func TestPastSchedulingPanics(t *testing.T) {
	var k Kernel
	k.At(5, func() {})
	k.Run()
	defer func() {
		if recover() == nil {
			t.Fatal("scheduling in the past did not panic")
		}
	}()
	k.At(1, func() {})
}

func TestNegativeDelayPanics(t *testing.T) {
	var k Kernel
	defer func() {
		if recover() == nil {
			t.Fatal("negative delay did not panic")
		}
	}()
	k.After(-1, func() {})
}

func TestStepAndPending(t *testing.T) {
	var k Kernel
	if k.Step() {
		t.Fatal("empty kernel stepped")
	}
	k.At(1, func() {})
	k.At(2, func() {})
	if k.Pending() != 2 {
		t.Fatalf("pending = %d", k.Pending())
	}
	if !k.Step() || k.Now() != 1 || k.Pending() != 1 {
		t.Fatalf("step state wrong: now=%g pending=%d", k.Now(), k.Pending())
	}
}

// recordingHook captures the kernel's event lifecycle for the hook
// tests below.
type recordingHook struct {
	scheduled []uint64
	fired     []uint64
	labels    []string
}

func (h *recordingHook) EventScheduled(seq uint64, at, now float64, label string) {
	h.scheduled = append(h.scheduled, seq)
}

func (h *recordingHook) EventFired(seq uint64, now float64, label string) {
	h.fired = append(h.fired, seq)
	h.labels = append(h.labels, label)
}

func TestHookObservesNamedEvents(t *testing.T) {
	var k Kernel
	h := &recordingHook{}
	k.Hook = h
	k.AtNamed(2, "late", func() {})
	k.AfterNamed(1, "early", func() {})
	k.Run()
	if len(h.scheduled) != 2 || h.scheduled[0] != 1 || h.scheduled[1] != 2 {
		t.Fatalf("scheduled seqs = %v", h.scheduled)
	}
	if len(h.fired) != 2 || h.fired[0] != 2 || h.fired[1] != 1 {
		t.Fatalf("fired seqs = %v, want [2 1] (time order)", h.fired)
	}
	if h.labels[0] != "early" || h.labels[1] != "late" {
		t.Fatalf("labels = %v", h.labels)
	}
}

// TestQuickHookPreservesFIFO is the deterministic-tie-breaking property
// run with a recording hook attached: a hooked kernel must fire the
// same events in the same order as a hook-less one, and same-time
// events must fire in scheduling (seq) order — the FIFO guarantee is
// observable through the hook and unchanged by it.
func TestQuickHookPreservesFIFO(t *testing.T) {
	f := func(delays []uint8) bool {
		run := func(k *Kernel) []int {
			var order []int
			for i, d := range delays {
				i := i
				k.At(float64(d), func() { order = append(order, i) })
			}
			k.Run()
			return order
		}
		h := &recordingHook{}
		hooked := run(&Kernel{Hook: h})
		plain := run(&Kernel{})
		if len(hooked) != len(plain) {
			return false
		}
		for i := range hooked {
			if hooked[i] != plain[i] {
				return false
			}
		}
		// The hook saw every firing, and ties broke FIFO: a seq fires
		// before a larger seq scheduled for the same time.
		if len(h.fired) != len(delays) {
			return false
		}
		for i := 1; i < len(h.fired); i++ {
			a, b := h.fired[i-1], h.fired[i]
			if delays[a-1] == delays[b-1] && a > b {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, nil); err != nil {
		t.Fatal(err)
	}
}

func TestQuickMonotonicClock(t *testing.T) {
	f := func(delays []uint16) bool {
		var k Kernel
		for _, d := range delays {
			k.At(float64(d), func() {})
		}
		prev := -1.0
		for k.Step() {
			if k.Now() < prev {
				return false
			}
			prev = k.Now()
		}
		return true
	}
	if err := quick.Check(f, nil); err != nil {
		t.Fatal(err)
	}
}

func TestNaNSchedulingPanics(t *testing.T) {
	// The NaN is rejected before it reaches the queue: the other events
	// still fire in time order and the clock ends finite.
	var k Kernel
	var order []float64
	for _, at := range []float64{5, math.NaN(), 3, 1, 4, 2, 0.5} {
		at := at
		func() {
			defer func() {
				if r := recover(); r == nil && math.IsNaN(at) {
					t.Error("At(NaN) did not panic")
				}
			}()
			k.At(at, func() { order = append(order, at) })
		}()
	}
	if end := k.Run(); end != 5 {
		t.Fatalf("final time %g, want 5", end)
	}
	want := []float64{0.5, 1, 2, 3, 4, 5}
	if !slices.Equal(order, want) {
		t.Fatalf("fired %v, want %v", order, want)
	}
	defer func() {
		if recover() == nil {
			t.Fatal("After(NaN) did not panic")
		}
	}()
	k.After(math.NaN(), func() {})
}

// TestFireOrderIsSortedTimeSeq checks the heap against a sort on
// (time, seq) over seeded event sets drawn from a handful of times, so
// most events tie with many others.
func TestFireOrderIsSortedTimeSeq(t *testing.T) {
	type key struct {
		time float64
		seq  uint64
	}
	rng := rand.New(rand.NewSource(1))
	for trial := 0; trial < 50; trial++ {
		var k Kernel
		h := &recordingHook{}
		k.Hook = h
		var want, got []key
		for i, n := 0, 1+rng.Intn(300); i < n; i++ {
			at := float64(rng.Intn(1 + trial%8))
			k.At(at, func() {})
			want = append(want, key{at, k.seq})
		}
		for k.Step() {
			got = append(got, key{k.Now(), h.fired[len(h.fired)-1]})
		}
		slices.SortFunc(want, func(a, b key) int {
			if c := cmp.Compare(a.time, b.time); c != 0 {
				return c
			}
			return cmp.Compare(a.seq, b.seq)
		})
		if !slices.Equal(got, want) {
			t.Fatalf("trial %d: fired %v, want %v", trial, got, want)
		}
	}
}

func TestWarmAtStepAllocatesNothing(t *testing.T) {
	var k Kernel
	fn := func() {}
	for i := 0; i < 64; i++ {
		k.At(float64(i%4), fn)
	}
	k.Run()
	allocs := testing.AllocsPerRun(100, func() {
		k.AtNamed(k.Now()+1, "tick", fn)
		k.Step()
	})
	if allocs != 0 {
		t.Fatalf("warmed At+Step allocates %g times", allocs)
	}
}
