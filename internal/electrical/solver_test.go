package electrical

import (
	"fmt"
	"math/rand"
	"reflect"
	"sync"
	"testing"

	"wrht/internal/collective"
	"wrht/internal/core"
	"wrht/internal/dnn"
	"wrht/internal/fabric"
	"wrht/internal/tensor"
	"wrht/internal/topo"
)

// legacyFabric is the fat-tree backend as it was before the dense
// solver: legacyStepDuration memoized under legacyStepSignature. It
// embeds treeFabric only for the methods the rewrite left alone.
type legacyFabric struct{ treeFabric }

func (f legacyFabric) StepCost(st core.Step, elems int) fabric.StepCost {
	end, drain := f.nw.legacyStepDuration(st, elems)
	var maxBytes float64
	for _, t := range st.Transfers {
		if b := float64(t.Chunk.Bytes(elems)); b > maxBytes {
			maxBytes = b
		}
	}
	return fabric.StepCost{Serialization: drain, RouterDelay: end - drain, Total: end, MaxBytes: maxBytes}
}

func (f legacyFabric) StepKey(st core.Step, elems int) (string, bool) {
	return legacyStepSignature(st, elems), true
}

// randomStep draws count transfers between distinct nodes of an n-node
// ring, with chunk divisors up to n so that small vectors yield some
// zero-byte chunks.
func randomStep(rng *rand.Rand, n, count int) core.Step {
	var st core.Step
	for i := 0; i < count; i++ {
		src := rng.Intn(n)
		dst := (src + 1 + rng.Intn(n-1)) % n
		of := 1 + rng.Intn(n)
		st.Transfers = append(st.Transfers, core.Transfer{
			Src: src, Dst: dst, Chunk: tensor.Chunk{Index: rng.Intn(of), Of: of}, Dir: topo.CW,
		})
	}
	return st
}

// TestStepDurationMatchesLegacy solves seeded random steps on both
// solvers. Each network solves several steps in a row, so the pooled
// scratch a step leaves behind is what the next step starts from.
func TestStepDurationMatchesLegacy(t *testing.T) {
	rng := rand.New(rand.NewSource(1))
	for trial := 0; trial < 100; trial++ {
		p := DefaultParams()
		if trial%2 == 1 {
			p.RouterAggBps = []float64{10e9, 40e9, 160e9}[rng.Intn(3)]
		}
		if trial%3 == 0 {
			p.PacketBytes = 0
		}
		n := 2 + rng.Intn(127)
		nw := mustNet(t, n, p)
		for k := 0; k < 4; k++ {
			count := rng.Intn(2*n + 1)
			if trial == 0 && k == 1 {
				count = 0 // the empty step
			}
			st := randomStep(rng, n, count)
			elems := []int{rng.Intn(n), rng.Intn(1 << 12), rng.Intn(1 << 24)}[rng.Intn(3)]
			wantEnd, wantDrain := nw.legacyStepDuration(st, elems)
			gotEnd, gotDrain := nw.stepDuration(st, elems)
			if gotEnd != wantEnd || gotDrain != wantDrain {
				t.Fatalf("trial %d step %d (N=%d, %d transfers, elems %d, %+v): (end, drain) = (%v, %v), legacy (%v, %v)",
					trial, k, n, count, elems, p, gotEnd, gotDrain, wantEnd, wantDrain)
			}
		}
	}
}

// TestEngineMatchesLegacyAtFig7Scale runs Fig 7's electrical cells
// (Ring and RD at every node count, every model's fused payload) on
// the dense solver and on the legacy oracle: the whole engine Result,
// per-step costs included, must be identical.
func TestEngineMatchesLegacyAtFig7Scale(t *testing.T) {
	for _, n := range []int{128, 256, 512, 1024} {
		n := n
		t.Run(fmt.Sprint("N", n), func(t *testing.T) {
			t.Parallel()
			nw := mustNet(t, n, DefaultParams())
			rd, err := collective.BuildRD(n)
			if err != nil {
				t.Fatal(err)
			}
			for _, s := range []*core.Schedule{collective.BuildRing(n), rd} {
				for _, m := range dnn.Workloads() {
					d := float64(m.GradBytes())
					want, err := fabric.Engine{Fabric: legacyFabric{treeFabric{nw}}}.RunSchedule(s, d)
					if err != nil {
						t.Fatal(err)
					}
					got, err := fabric.Engine{Fabric: nw.Fabric()}.RunSchedule(s, d)
					if err != nil {
						t.Fatal(err)
					}
					if !reflect.DeepEqual(got, want) {
						t.Errorf("%s on %s: dense Result differs from legacy (time %v vs %v)", s.Algorithm, m.Name, got.Time, want.Time)
					}
				}
			}
		})
	}
}

// countingFabric counts the StepCost calls the engine's memo lets
// through to the solver.
type countingFabric struct {
	fabric.Fabric
	solves int
}

func (c *countingFabric) StepCost(st core.Step, elems int) fabric.StepCost {
	c.solves++
	return c.Fabric.StepCost(st, elems)
}

func TestERingSolvesOneStep(t *testing.T) {
	// Ring's chunks differ by at most one element, which never changes
	// their packet count at ResNet50's payload: all 2046 steps share
	// one key.
	const n = 1024
	nw := mustNet(t, n, DefaultParams())
	c := &countingFabric{Fabric: nw.Fabric()}
	if _, err := (fabric.Engine{Fabric: c}).RunSchedule(collective.BuildRing(n), float64(dnn.ResNet50().GradBytes())); err != nil {
		t.Fatal(err)
	}
	if c.solves != 1 {
		t.Fatalf("E-Ring at N=%d solved %d steps, want 1", n, c.solves)
	}
}

func TestMemoKeepsEachStepsMaxBytes(t *testing.T) {
	// A 35-element vector in halves: chunk 0 carries 72 B, chunk 1 68 B,
	// one packet each, so the two steps have equal wire bytes but
	// different raw maxima.
	s := &core.Schedule{Algorithm: "halves", Ring: topo.NewRing(2), Steps: []core.Step{
		{Transfers: []core.Transfer{{Src: 0, Dst: 1, Chunk: tensor.Chunk{Index: 0, Of: 2}, Dir: topo.CW}}},
		{Transfers: []core.Transfer{{Src: 0, Dst: 1, Chunk: tensor.Chunk{Index: 1, Of: 2}, Dir: topo.CW}}},
	}}
	nw := mustNet(t, 2, DefaultParams())
	res, err := fabric.Engine{Fabric: nw.Fabric()}.RunSchedule(s, 35*4)
	if err != nil {
		t.Fatal(err)
	}
	a, b := res.PerStep[0].Cost, res.PerStep[1].Cost
	if a.MaxBytes != 72 || b.MaxBytes != 68 {
		t.Fatalf("MaxBytes = %g, %g; want 72, 68", a.MaxBytes, b.MaxBytes)
	}
	if a.Total != b.Total {
		t.Fatalf("equal wire bytes timed differently: %g vs %g", a.Total, b.Total)
	}
}

func TestWarmStepDurationAllocatesNothing(t *testing.T) {
	nw := mustNet(t, 256, DefaultParams())
	st := collective.BuildRing(256).Steps[0]
	nw.stepDuration(st, 1<<20)
	if allocs := testing.AllocsPerRun(20, func() { nw.stepDuration(st, 1<<20) }); allocs != 0 {
		t.Fatalf("warmed stepDuration allocates %g times", allocs)
	}
}

// TestConcurrentSolvesShareOneNetwork: sweep workers time schedules on
// one shared network, so solves and keys running on several goroutines
// at once must give what the oracle and a lone call give.
func TestConcurrentSolvesShareOneNetwork(t *testing.T) {
	const n, elems = 64, 1 << 16
	p := DefaultParams()
	p.RouterAggBps = 40e9
	nw := mustNet(t, n, p)
	rng := rand.New(rand.NewSource(2))
	type answer struct {
		end, drain float64
		key        string
	}
	steps := make([]core.Step, 32)
	want := make([]answer, len(steps))
	for i := range steps {
		steps[i] = randomStep(rng, n, 1+rng.Intn(2*n))
		end, drain := nw.legacyStepDuration(steps[i], elems)
		want[i] = answer{end, drain, nw.stepKey(steps[i], elems)}
	}
	var wg sync.WaitGroup
	for g := 0; g < 4; g++ {
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			for k := 0; k < 64; k++ {
				i := (g*7 + k) % len(steps)
				end, drain := nw.stepDuration(steps[i], elems)
				if got := (answer{end, drain, nw.stepKey(steps[i], elems)}); got != want[i] {
					t.Errorf("goroutine %d step %d: (end, drain) = (%v, %v), want (%v, %v); key equal: %v",
						g, i, end, drain, want[i].end, want[i].drain, got.key == want[i].key)
					return
				}
			}
		}(g)
	}
	wg.Wait()
}
