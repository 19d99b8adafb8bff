// Command trainsim simulates the end-to-end distributed DNN training the
// paper targets: it combines the FLOPs-based compute model (substituting
// the TensorFlow-profiler traces of §5.1), the optical all-reduce timing
// of Eq 6, and the barrier timeline of synchronous data-parallel SGD to
// report per-epoch time and the fraction spent in all-reduce — the
// paper's motivating statistic that communication takes 50–90% of an
// iteration at scale [35].
//
// Usage:
//
//	trainsim [-n 1024] [-wavelengths 64] [-dataset 1281167] [-algo wrht|ring|bt|hring]
//
// -trace writes a Perfetto timeline of the simulated epoch (one trace
// process per workload, a few sample workers plus the all-reduce
// track); -prom writes per-workload epoch gauges on exit in the
// Prometheus text exposition format ("-" for stdout). The
// observability flags are shared with wrhtsim via cmd/internal/cliflags,
// so names and semantics match across the CLIs.
package main

import (
	"flag"
	"fmt"
	"log"

	"wrht/cmd/internal/cliflags"
	"wrht/internal/collective"
	"wrht/internal/core"
	"wrht/internal/fabric"
	"wrht/internal/metrics"
	"wrht/internal/optical"
	"wrht/internal/train"
	"wrht/internal/workload"
)

func main() {
	log.SetFlags(0)
	log.SetPrefix("trainsim: ")
	var (
		n       = flag.Int("n", 1024, "data-parallel workers")
		waves   = flag.Int("wavelengths", 64, "optical wavelengths")
		dataset = flag.Int("dataset", 1281167, "dataset size (ImageNet-1k train split)")
		algo    = flag.String("algo", "wrht", "all-reduce algorithm: wrht, ring, bt, hring, dbtree, wdmhring")
	)
	shared := cliflags.Register(flag.CommandLine, cliflags.Trace|cliflags.Prom)
	flag.Parse()

	tr := shared.NewTracer()
	reg := shared.NewRegistry()

	p := optical.DefaultParams()
	p.Wavelengths = *waves
	optFab, err := p.Fabric()
	if err != nil {
		log.Fatal(err)
	}

	t := &metrics.Table{
		Title: fmt.Sprintf("Per-epoch training timeline: %d workers, %s all-reduce, %d wavelengths",
			*n, *algo, *waves),
		Headers: []string{"Workload", "batch/GPU", "iters", "compute/iter (ms)", "comm/iter (ms)", "epoch (s)", "comm share"},
	}
	for _, w := range workload.PaperWorkloads() {
		var prof core.Profile
		switch *algo {
		case "wrht":
			var err error
			prof, err = collective.WRHTProfile(core.Config{N: *n, Wavelengths: *waves})
			if err != nil {
				log.Fatal(err)
			}
		case "ring":
			prof = collective.RingProfile(*n)
		case "bt":
			prof = collective.BTProfile(*n)
		case "hring":
			prof = collective.HRingProfile(*n, 5, *waves)
		case "dbtree":
			prof = collective.DBTreeProfile(*n)
		case "wdmhring":
			prof = collective.WDMHRingProfile(*n, 32, *waves)
		default:
			log.Fatalf("unknown algorithm %q", *algo)
		}
		res, err := fabric.Engine{Fabric: optFab}.RunProfile(prof, w.GradBytes)
		if err != nil {
			log.Fatal(err)
		}
		tl := train.EpochTimeline(w, *n, *dataset, res.Time)
		tl.Trace = tr
		tl.TraceProcess = w.Model.Name
		out := tl.Run()
		reg.Gauge("train." + w.Model.Name + ".epoch_seconds").Set(out.TotalSec)
		reg.Gauge("train." + w.Model.Name + ".comm_fraction").Set(out.CommFraction)
		reg.Counter("train.workloads").Inc()
		t.AddRow(
			w.Model.Name,
			fmt.Sprint(w.BatchSize),
			fmt.Sprint(tl.Iterations),
			fmt.Sprintf("%.2f", w.ComputeSecPerIter*1e3),
			fmt.Sprintf("%.2f", res.Time*1e3),
			fmt.Sprintf("%.2f", out.TotalSec),
			fmt.Sprintf("%.1f%%", out.CommFraction*100),
		)
	}
	fmt.Println(t)
	if err := shared.WriteTrace(tr); err != nil {
		log.Fatal(err)
	}
	if err := shared.WriteMetrics(reg); err != nil {
		log.Fatal(err)
	}
}
