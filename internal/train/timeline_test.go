package train

import (
	"bytes"
	"fmt"
	"math"
	"math/rand"
	"testing"

	"wrht/internal/collective"
	"wrht/internal/core"
	"wrht/internal/des"
	"wrht/internal/dnn"
	"wrht/internal/fabric"
	"wrht/internal/obs"
	"wrht/internal/optical"
	"wrht/internal/workload"
)

func TestTimelineBasicAccounting(t *testing.T) {
	tl := Timeline{Workers: 4, Iterations: 10, ComputeSec: 0.08, CommSec: 0.02}
	res := tl.Run()
	if math.Abs(res.TotalSec-10*(0.08+0.02)) > 1e-9 {
		t.Fatalf("total = %g, want 1.0", res.TotalSec)
	}
	if math.Abs(res.CommFraction-0.2) > 1e-9 {
		t.Fatalf("comm fraction = %g, want 0.2", res.CommFraction)
	}
	if math.Abs(res.ComputeSec-0.8) > 1e-9 || math.Abs(res.CommSec-0.2) > 1e-9 {
		t.Fatalf("split wrong: %+v", res)
	}
}

func TestTimelineStragglerSkew(t *testing.T) {
	// With 10% skew the barrier waits for the slowest worker: per
	// iteration compute becomes ComputeSec × 1.1.
	tl := Timeline{Workers: 8, Iterations: 5, ComputeSec: 0.1, CommSec: 0.01, Skew: 0.1}
	res := tl.Run()
	want := 5 * (0.1*1.1 + 0.01)
	if math.Abs(res.TotalSec-want) > 1e-9 {
		t.Fatalf("total = %g, want %g", res.TotalSec, want)
	}
}

func TestTimelineZeroIterations(t *testing.T) {
	res := Timeline{Workers: 2, Iterations: 0, ComputeSec: 1, CommSec: 1}.Run()
	if res.TotalSec != 0 || res.CommFraction != 0 {
		t.Fatalf("empty timeline: %+v", res)
	}
}

func TestTimelinePanicsOnBadConfig(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("no panic for 0 workers")
		}
	}()
	Timeline{Workers: 0, Iterations: 1}.Run()
}

func TestEpochTimelineCommShareGrowsWithStepHeavyAlgorithms(t *testing.T) {
	// The paper's [35] motivation: at 1024 nodes, Ring's 2046 steps make
	// communication dominate; WRHT reduces the share.
	const n = 1024
	w := workload.New(dnn.ResNet50(), workload.TitanXP(), 16)
	p := optical.DefaultParams()
	commFor := func(pr core.Profile) float64 {
		f, err := p.Fabric()
		if err != nil {
			t.Fatal(err)
		}
		res, err := fabric.Engine{Fabric: f}.RunProfile(pr, w.GradBytes)
		if err != nil {
			t.Fatal(err)
		}
		return res.Time
	}
	wrhtProf, err := collective.WRHTProfile(core.Config{N: n, Wavelengths: 64})
	if err != nil {
		t.Fatal(err)
	}
	wrhtRes := EpochTimeline(w, n, 1281167, commFor(wrhtProf)).Run()
	ringRes := EpochTimeline(w, n, 1281167, commFor(collective.RingProfile(n))).Run()
	btRes := EpochTimeline(w, n, 1281167, commFor(collective.BTProfile(n))).Run()
	if !(wrhtRes.CommFraction < ringRes.CommFraction && ringRes.CommFraction < btRes.CommFraction) {
		t.Fatalf("comm shares out of order: wrht %.2f ring %.2f bt %.2f",
			wrhtRes.CommFraction, ringRes.CommFraction, btRes.CommFraction)
	}
	if ringRes.CommFraction < 0.3 || ringRes.CommFraction > 0.95 {
		t.Fatalf("Ring comm share %.2f outside the paper's 50-90%% ballpark", ringRes.CommFraction)
	}
}

func TestCommTimeForProfile(t *testing.T) {
	pr, err := collective.WRHTProfile(core.Config{N: 64, Wavelengths: 8})
	if err != nil {
		t.Fatal(err)
	}
	tm, err := CommTimeForProfile(optical.DefaultParams(), pr, dnn.ResNet50())
	if err != nil || tm <= 0 {
		t.Fatalf("comm time: %v %g", err, tm)
	}
}

func TestTimelineTraceSpans(t *testing.T) {
	render := func() (*obs.Tracer, TimelineResult) {
		tr := obs.NewTracer()
		tl := Timeline{
			Workers: 16, Iterations: 3, ComputeSec: 0.08, CommSec: 0.02,
			Trace: tr, TraceProcess: "test N=16", TraceWorkers: 4,
		}
		return tr, tl.Run()
	}
	tr, res := render()
	plain := Timeline{Workers: 16, Iterations: 3, ComputeSec: 0.08, CommSec: 0.02}.Run()
	if res != plain {
		t.Fatalf("tracing changed the result: %+v vs %+v", res, plain)
	}
	// 4 traced workers × 3 iterations compute spans + 3 all-reduce spans.
	if got, want := tr.Events(), 4*3+3; got != want {
		t.Fatalf("trace has %d events, want %d", got, want)
	}
	var a, b bytes.Buffer
	if _, err := tr.WriteTo(&a); err != nil {
		t.Fatal(err)
	}
	tr2, _ := render()
	if _, err := tr2.WriteTo(&b); err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(a.Bytes(), b.Bytes()) {
		t.Fatal("timeline trace is not byte-stable across runs")
	}
}

// desRun is the event-driven simulation Timeline.Run replaced, kept
// verbatim on the DES kernel as the == oracle of the barrier loop:
// every worker's compute finish is an event, the last one fires the
// all-reduce, and the all-reduce's completion starts the next
// iteration.
func desRun(tl Timeline) TimelineResult {
	if tl.Workers < 1 || tl.Iterations < 0 {
		panic(fmt.Sprintf("train: timeline workers=%d iterations=%d invalid", tl.Workers, tl.Iterations))
	}
	var k des.Kernel
	var res TimelineResult
	tracedWorkers := tl.TraceWorkers
	if tracedWorkers <= 0 {
		tracedWorkers = 8
	}
	slowest := tl.ComputeSec
	if tl.Workers > 1 {
		slowest = tl.ComputeSec * max(1, 1+tl.Skew)
	}
	var iterate func(it int)
	iterate = func(it int) {
		if it >= tl.Iterations {
			return
		}
		// All workers compute concurrently; the barrier fires when the
		// slowest finishes.
		done := 0
		for wkr := 0; wkr < tl.Workers; wkr++ {
			c := tl.ComputeSec
			if tl.Workers > 1 {
				c *= 1 + tl.Skew*float64(wkr)/float64(tl.Workers-1)
			}
			if tl.Trace != nil && wkr < tracedWorkers {
				tl.Trace.Span(obs.Track{Process: tl.TraceProcess, Name: fmt.Sprintf("worker %d", wkr)},
					"compute", k.Now(), c, obs.Args{"iteration": it})
			}
			k.AfterNamed(c, "compute", func() {
				done++
				if done == tl.Workers {
					res.ComputeSec += slowest
					// Synchronous all-reduce.
					if tl.Trace != nil {
						tl.Trace.Span(obs.Track{Process: tl.TraceProcess, Name: "all-reduce"},
							"all-reduce", k.Now(), tl.CommSec, obs.Args{"iteration": it})
					}
					k.AfterNamed(tl.CommSec, "all-reduce", func() {
						res.CommSec += tl.CommSec
						iterate(it + 1)
					})
				}
			})
		}
	}
	iterate(0)
	res.TotalSec = k.Run()
	if res.TotalSec > 0 {
		res.CommFraction = res.CommSec / res.TotalSec
	}
	return res
}

// TestTimelineMatchesDESOracle: over seeded random configurations the
// barrier loop reproduces the event-driven simulation exactly — every
// total compared with ==, and the Perfetto bytes of traced runs equal.
func TestTimelineMatchesDESOracle(t *testing.T) {
	rng := rand.New(rand.NewSource(1))
	duration := func(scale float64) float64 {
		if rng.Intn(10) == 0 {
			return 0
		}
		return rng.Float64() * scale
	}
	for i := 0; i < 2000; i++ {
		tl := Timeline{
			Workers:      1 + rng.Intn(64),
			Iterations:   rng.Intn(41),
			ComputeSec:   duration(0.2),
			CommSec:      duration(0.1),
			Skew:         rng.Float64()*2 - 0.5,
			TraceWorkers: rng.Intn(10),
		}
		var got, want TimelineResult
		var a, b bytes.Buffer
		if i%4 == 0 {
			tl.TraceProcess = fmt.Sprintf("config %d", i)
			tl.Trace = obs.NewTracer()
			got = tl.Run()
			if _, err := tl.Trace.WriteTo(&a); err != nil {
				t.Fatal(err)
			}
			tl.Trace = obs.NewTracer()
			want = desRun(tl)
			if _, err := tl.Trace.WriteTo(&b); err != nil {
				t.Fatal(err)
			}
		} else {
			got, want = tl.Run(), desRun(tl)
		}
		if got != want {
			t.Fatalf("config %d %+v: loop %+v != DES %+v", i, tl, got, want)
		}
		if !bytes.Equal(a.Bytes(), b.Bytes()) {
			t.Fatalf("config %d %+v: trace differs from the DES oracle's", i, tl)
		}
	}
}

// TestTimelineSharesAddUp: the critical-path compute and all-reduce
// shares add up to the total for every skew in [−0.5, 1.5) — under a
// negative skew the slowest worker is worker 0, which computes for
// ComputeSec, not ComputeSec·(1+Skew).
func TestTimelineSharesAddUp(t *testing.T) {
	neg := Timeline{Workers: 4, Iterations: 1, ComputeSec: 1, Skew: -0.5}.Run()
	if neg.TotalSec != 1 || neg.ComputeSec != 1 || neg.CommSec != 0 {
		t.Fatalf("skew -0.5: %+v, want total 1, compute 1, comm 0", neg)
	}
	rng := rand.New(rand.NewSource(2))
	for i := 0; i < 2000; i++ {
		tl := Timeline{
			Workers:    1 + rng.Intn(64),
			Iterations: rng.Intn(41),
			ComputeSec: rng.Float64() * 0.2,
			CommSec:    rng.Float64() * 0.1,
			Skew:       rng.Float64()*2 - 0.5,
		}
		res := tl.Run()
		if sum := res.ComputeSec + res.CommSec; math.Abs(sum-res.TotalSec) > 1e-12*res.TotalSec {
			t.Fatalf("config %d %+v: compute %g + comm %g = %g, total %g",
				i, tl, res.ComputeSec, res.CommSec, sum, res.TotalSec)
		}
	}
}

// TestTimelinePanicsOnBadDurations: a negative or NaN compute or
// all-reduce time panics, as the event kernel did on such a delay.
func TestTimelinePanicsOnBadDurations(t *testing.T) {
	for _, tl := range []Timeline{
		{Workers: 4, Iterations: 2, ComputeSec: -1, CommSec: 1},
		{Workers: 4, Iterations: 2, ComputeSec: math.NaN(), CommSec: 1},
		{Workers: 4, Iterations: 2, ComputeSec: 1, CommSec: -1},
		{Workers: 4, Iterations: 2, ComputeSec: 1, CommSec: math.NaN()},
		{Workers: 4, Iterations: 2, ComputeSec: 1, CommSec: 1, Skew: -2},
	} {
		for name, run := range map[string]func(Timeline) TimelineResult{"loop": Timeline.Run, "DES": desRun} {
			func() {
				defer func() {
					if recover() == nil {
						t.Errorf("%s: no panic for %+v", name, tl)
					}
				}()
				run(tl)
			}()
		}
	}
}
