package main

import (
	"encoding/json"
	"math"
	"os"
	"strings"
	"testing"
)

// TestTailIsHighestPercentileWithTenBeyond pins the tail rule: the
// reported percentile is the highest (capped at p99) that leaves at
// least tailSamples samples above it, and its note carries the sample
// count.
func TestTailIsHighestPercentileWithTenBeyond(t *testing.T) {
	for _, n := range []int{11, 36, 100, 1000, 5000} {
		xs := make([]float64, n)
		for i := range xs {
			xs[i] = float64(n - i) // descending, so tail must sort
		}
		v, level := tail(xs)
		beyond := 0
		for _, x := range xs {
			if x > v {
				beyond++
			}
		}
		if beyond < tailSamples {
			t.Errorf("n=%d: %d samples beyond p%g, want at least %d", n, beyond, level*100, tailSamples)
		}
		if level < 0.99 && beyond != tailSamples {
			t.Errorf("n=%d: p%g leaves %d beyond; a higher percentile would still leave %d", n, level*100, beyond, tailSamples)
		}
		if n >= 1000 && level != 0.99 {
			t.Errorf("n=%d: level %g, want 0.99", n, level)
		}
		if note := tailNote(level, n, "x"); !strings.Contains(note, "n=") {
			t.Errorf("tail note %q does not state the sample count", note)
		}
	}
	if v, level := tail([]float64{3, 1, 2}); v != 3 || level != 1 {
		t.Errorf("tail of 3 samples = %g at level %g, want the max at level 1", v, level)
	}
	if v, _ := tail(append(make([]float64, 100), math.Inf(1))); v != 0 {
		t.Errorf("one failed request of 101 moved the tail to %g", v)
	}
}

func TestMedianAndGeomean(t *testing.T) {
	if m := median([]float64{4, 1, 3, 2}); m != 2.5 {
		t.Errorf("median = %g, want 2.5", m)
	}
	if g := geomean([]float64{1, 4, 16}); math.Abs(g-4) > 1e-12 {
		t.Errorf("geomean = %g, want 4", g)
	}
}

// TestBenchmarkJSONMatchesCatalogue keeps BENCHMARK.json and the
// metric catalogue the runs report in step.
func TestBenchmarkJSONMatchesCatalogue(t *testing.T) {
	raw, err := os.ReadFile("../BENCHMARK.json")
	if err != nil {
		t.Fatal(err)
	}
	var spec struct {
		Workloads []struct{ Name, Why string }
		EndToEnd  []struct {
			Name, Unit, Better string
			Bound              float64
		} `json:"end_to_end"`
		PerLayer []struct{ Name, Unit, Better string } `json:"per_layer"`
	}
	if err := json.Unmarshal(raw, &spec); err != nil {
		t.Fatal(err)
	}
	if len(spec.Workloads) != len(workloads) {
		t.Errorf("BENCHMARK.json has %d workloads, the benchmark %d", len(spec.Workloads), len(workloads))
	}
	for _, w := range spec.Workloads {
		if _, ok := workloads[w.Name]; !ok {
			t.Errorf("workload %q is not implemented", w.Name)
		}
	}
	if len(spec.EndToEnd) != len(endToEnd) {
		t.Fatalf("BENCHMARK.json has %d end-to-end metrics, the benchmark %d", len(spec.EndToEnd), len(endToEnd))
	}
	for i, m := range spec.EndToEnd {
		d := endToEnd[i]
		if m.Name != d.name || m.Unit != d.unit || m.Better != d.better || m.Bound != d.bound {
			t.Errorf("end_to_end[%d] = %+v, benchmark has %+v", i, m, d)
		}
	}
	if len(spec.PerLayer) != len(perLayer) {
		t.Fatalf("BENCHMARK.json has %d per-layer metrics, the benchmark %d", len(spec.PerLayer), len(perLayer))
	}
	for i, m := range spec.PerLayer {
		d := perLayer[i]
		if m.Name != d.name || m.Unit != d.unit || m.Better != d.better {
			t.Errorf("per_layer[%d] = %+v, benchmark has %+v", i, m, d)
		}
	}
}
