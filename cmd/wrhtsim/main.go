// Command wrhtsim regenerates the paper's evaluation: each subcommand
// reproduces one table or figure of
// "WRHT: Efficient All-reduce for Distributed DNN Training in Optical
// Interconnect Systems" (ICPP 2023) on the in-repo optical and
// electrical simulators.
//
// Usage:
//
//	wrhtsim [-granularity fused|bucketed] <table1|fig4|fig5|fig6|fig7|constraints|crossover|crossfabric|faults|hybrid|extras|stragglers|overlap|plan|schedule|build|all>
//
// Flags may also follow the subcommand (`wrhtsim faults -n 64`).
//
// The faults subcommand sweeps WRHT completion time against dead
// wavelengths (internal/exp.Degradation): schedules rebuilt around the
// fault mask upfront versus the same faults injected mid-run through
// the engine's retry-with-reschedule path. Without -n it covers the
// paper trio N ∈ {64, 1024, 4096}.
//
// For the crossfabric, overlap, faults, plan and build subcommands,
// -json writes the structured result in the versioned internal/api
// schema — byte-identical to the body the wrhtd daemon serves for the
// equivalent /v1/sweep, /v1/plan or /v1/build request (the parity test
// in this package pins that); for fig4–fig7 and all it writes the raw
// figure series as an api.FiguresResponse, byte-identical across runs.
//
// The overlap subcommand compares the engine's opportunistic overlap
// mode against schedules rewritten by the internal/ir pass pipeline
// (DESIGN.md §2.5), reporting hidden-reconfig counts, hidden setup
// time and total time per ring size. Without -n it covers N ∈ {1024,
// 4096}. -passes selects the pipeline ("all", "none", or a
// comma-separated subset of reorder, recolor, split); -check makes the
// run exit nonzero unless the passes strictly beat the baseline
// hidden-reconfig count at every point (the CI smoke gate).
//
// The plan subcommand sweeps the internal/plan cost-model planner for
// the final all-to-all over an (r, a) grid at the -w budget (DESIGN.md
// §2.7): every candidate plan is priced analytically and re-simulated
// on the engine, and the table reports the chosen family, predicted
// and simulated times, and the unstriped one-shot / gather-fallback
// comparators. A second table measures the planner rescue on the named
// fallback configurations (N=256 w=8, N=1024 w=16). -r and -a take
// comma-separated replica counts and reconfiguration delays (us), -d
// the payload in MB; -check exits nonzero unless predicted == simulated
// argmin at every point and every rescue speedup exceeds 1 (the CI
// gate); -json dumps the swept points and rescue rows.
//
// The build subcommand constructs and validates the -n/-w/-m WRHT
// schedule without simulating it — the at-scale smoke test for the
// streaming pipeline. -stream consumes the schedule as a step stream
// (peak memory O(max step) + O(index), so million-node rings fit
// comfortably); -memstats reports the measured peak live heap and
// bytes/node for either mode. Example:
//
//	wrhtsim build -n 1048576 -w 64 -stream -memstats
//
// -cpuprofile and -memprofile write pprof profiles covering the run
// (any subcommand), for `go tool pprof`.
//
// -trace writes a Chrome Trace Event / Perfetto timeline of the run
// (open it at https://ui.perfetto.dev): for crossfabric the simulated
// per-step timeline of every (algorithm, mode) cell, byte-identical
// across runs; for the figure sweeps a wall-clock diagnostic of the
// worker pool.
//
// -prom writes the metric registry in the Prometheus text exposition
// format on exit ("-" for stdout), and -promaddr serves /metrics
// (append ?reset=1 for snapshot-and-reset delta scrapes) plus
// net/http/pprof for the run's duration:
//
//	wrhtsim -promaddr :9090 fig5 &
//	curl localhost:9090/metrics
//	go tool pprof "http://localhost:9090/debug/pprof/profile?seconds=5"
//
// Any metrics-enabled run also prints a wall-clock latency summary
// (p50/p99/max per histogram series) on exit.
package main

import (
	"errors"
	"flag"
	"fmt"
	"os"
	"runtime"
	"runtime/pprof"
	"strconv"
	"strings"
	"time"

	"wrht"
	"wrht/cmd/internal/cliflags"
	"wrht/internal/api"
	"wrht/internal/core"
	"wrht/internal/daemon"
	"wrht/internal/dnn"
	"wrht/internal/exp"
	"wrht/internal/metrics"
	"wrht/internal/obs"
	"wrht/internal/optical"
	"wrht/internal/parallel"
	"wrht/internal/workload"
)

// fatal prints the error and returns the failure exit code; run's
// callers (not os.Exit) unwind so the pprof writers always flush.
func fatal(err error) int {
	fmt.Fprintf(os.Stderr, "wrhtsim: %v\n", err)
	return 1
}

// apiFatal reports a typed API error the way run has always reported
// plain ones: message only — the code is an HTTP-surface concern.
func apiFatal(aerr *api.Error) int {
	return fatal(errors.New(aerr.Message))
}

// writeJSON encodes v (an internal/api response — the same bytes wrhtd
// serves for the equivalent request) to path.
func writeJSON(path string, v any) error {
	f, err := os.Create(path)
	if err != nil {
		return err
	}
	if err := api.Encode(f, v); err != nil {
		f.Close()
		return err
	}
	return f.Close()
}

// intList and floatList parse the comma-separated -r/-a grid flags.
func intList(s string) ([]int, error) {
	var out []int
	for _, f := range strings.Split(s, ",") {
		v, err := strconv.Atoi(strings.TrimSpace(f))
		if err != nil {
			return nil, err
		}
		out = append(out, v)
	}
	return out, nil
}

func floatList(s string) ([]float64, error) {
	var out []float64
	for _, f := range strings.Split(s, ",") {
		v, err := strconv.ParseFloat(strings.TrimSpace(f), 64)
		if err != nil {
			return nil, err
		}
		out = append(out, v)
	}
	return out, nil
}

func main() {
	gran := flag.String("granularity", "fused", "all-reduce invocation granularity: fused or bucketed")
	shared := cliflags.Register(flag.CommandLine,
		cliflags.Workers|cliflags.JSON|cliflags.Trace|cliflags.Prom|cliflags.PromServe)
	schedN := flag.Int("n", 64, "schedule/crossfabric/faults subcommands: ring size")
	schedW := flag.Int("w", 8, "schedule/crossfabric/faults subcommands: wavelengths")
	schedM := flag.Int("m", 0, "schedule subcommand: grouped nodes (0 = optimal)")
	payloadMB := flag.Float64("d", 100, "crossfabric/faults/overlap subcommands: payload per node in MB")
	stream := flag.Bool("stream", false, "build subcommand: stream-and-consume instead of materializing the schedule")
	memstats := flag.Bool("memstats", false, "build subcommand: report peak live heap and bytes/node for the construction")
	passSpec := flag.String("passes", "all", "overlap subcommand: IR passes to run (all, none, or comma-separated reorder,recolor,split)")
	check := flag.Bool("check", false, "overlap/plan subcommands: exit nonzero unless the gate holds at every point")
	planR := flag.String("r", "8,16,32", "plan subcommand: comma-separated representative counts")
	planA := flag.String("a", "25", "plan subcommand: comma-separated reconfiguration delays in µs")
	cpuprofile := flag.String("cpuprofile", "", "write a CPU profile to this file")
	memprofile := flag.String("memprofile", "", "write a heap profile to this file on exit")
	flag.Usage = func() {
		fmt.Fprintf(os.Stderr, "usage: wrhtsim [-granularity fused|bucketed] <table1|fig4|fig5|fig6|fig7|constraints|crossover|crossfabric|faults|hybrid|extras|stragglers|overlap|plan|schedule|build|all>\n")
		flag.PrintDefaults()
	}
	flag.Parse()
	if flag.NArg() < 1 {
		flag.Usage()
		os.Exit(2)
	}
	cmdArg := flag.Arg(0)
	if flag.NArg() > 1 {
		// Flags may follow the subcommand: `wrhtsim faults -n 64`.
		flag.CommandLine.Parse(flag.Args()[1:])
		if flag.NArg() != 0 {
			flag.Usage()
			os.Exit(2)
		}
	}
	nSet := false
	flag.Visit(func(f *flag.Flag) {
		if f.Name == "n" {
			nSet = true
		}
	})
	if *cpuprofile != "" {
		f, err := os.Create(*cpuprofile)
		if err != nil {
			fmt.Fprintf(os.Stderr, "wrhtsim: %v\n", err)
			os.Exit(1)
		}
		if err := pprof.StartCPUProfile(f); err != nil {
			fmt.Fprintf(os.Stderr, "wrhtsim: %v\n", err)
			os.Exit(1)
		}
		defer f.Close()
	}
	code := run(runConfig{
		cmd:         cmdArg,
		nSet:        nSet,
		granularity: *gran,
		workers:     shared.Workers,
		jsonOut:     shared.JSONOut,
		n:           *schedN,
		w:           *schedW,
		m:           *schedM,
		payloadMB:   *payloadMB,
		stream:      *stream,
		memstats:    *memstats,
		passes:      *passSpec,
		check:       *check,
		planR:       *planR,
		planA:       *planA,
		tracePath:   shared.TracePath,
		promPath:    shared.PromPath,
		promAddr:    shared.PromAddr,
	})
	if *cpuprofile != "" {
		pprof.StopCPUProfile()
	}
	if *memprofile != "" {
		f, err := os.Create(*memprofile)
		if err != nil {
			fmt.Fprintf(os.Stderr, "wrhtsim: %v\n", err)
			os.Exit(1)
		}
		runtime.GC()
		if err := pprof.WriteHeapProfile(f); err != nil {
			fmt.Fprintf(os.Stderr, "wrhtsim: %v\n", err)
			os.Exit(1)
		}
		f.Close()
	}
	os.Exit(code)
}

// runConfig carries one invocation's resolved flags, so tests can
// drive run without the flag package.
type runConfig struct {
	cmd         string
	granularity string
	workers     int
	jsonOut     string
	n, w, m     int
	// nSet records whether -n was given explicitly; the faults sweep
	// covers the paper trio {64, 1024, 4096} otherwise.
	nSet      bool
	payloadMB float64
	// stream/memstats drive the build subcommand: streamed vs
	// materialized construction and the memory report.
	stream   bool
	memstats bool
	// passes/check drive the overlap subcommand: the IR pass selection
	// and the strict-improvement gate (check also gates plan).
	passes string
	check  bool
	// planR/planA drive the plan subcommand: comma-separated
	// representative counts and reconfiguration delays (µs).
	planR, planA string
	tracePath    string
	// promPath writes the Prometheus exposition to a file on exit;
	// promAddr serves /metrics and /debug/pprof over HTTP for the run's
	// duration.
	promPath string
	promAddr string
}

func run(cfg runConfig) int {
	o := exp.Defaults()
	o.Workers = cfg.workers
	switch cfg.granularity {
	case "fused":
		o.Granularity = exp.Fused
	case "bucketed":
		o.Granularity = exp.Bucketed
	default:
		fmt.Fprintf(os.Stderr, "wrhtsim: unknown granularity %q\n", cfg.granularity)
		return 2
	}
	if cfg.tracePath != "" {
		o.Trace = obs.NewTracer()
		if cfg.cmd != "crossfabric" {
			// Figure sweeps trace the worker pool in wall-clock time (a
			// diagnostic); crossfabric leaves Clock nil, so its trace is the
			// byte-stable simulated timeline the golden tests pin.
			start := time.Now()
			o.Trace.Clock = func() float64 { return time.Since(start).Seconds() }
		}
	}
	sink := cliflags.Flags{TracePath: cfg.tracePath, PromPath: cfg.promPath, PromAddr: cfg.promAddr}
	o.Metrics = sink.NewRegistry()
	if cfg.promAddr != "" {
		// Serve /metrics (Prometheus text; ?reset=1 for snapshot-and-reset
		// delta scrapes) plus net/http/pprof for the run's duration, with
		// the same signal-driven drain wrhtd uses: SIGINT/SIGTERM (or the
		// deferred Stop) finishes in-flight scrapes before the listener
		// dies, instead of the old unconditional Close.
		g, err := daemon.StartGraceful(cfg.promAddr, daemon.DebugMux(o.Metrics), 5*time.Second)
		if err != nil {
			return fatal(fmt.Errorf("-promaddr: %w", err))
		}
		defer g.Stop()
		fmt.Fprintf(os.Stderr, "wrhtsim: serving /metrics and /debug/pprof on http://%s\n", g.Addr())
	}

	cmd := cfg.cmd
	ran := false
	figs := api.FiguresResponse{Version: api.Version}
	if cmd == "schedule" {
		// Dump the WRHT schedule for -n/-w/-m as JSON (loadable by a
		// control plane or core.ReadSchedule).
		s, err := core.BuildWRHT(core.Config{N: cfg.n, Wavelengths: cfg.w, GroupSize: cfg.m})
		if err != nil {
			return fatal(err)
		}
		if _, err := s.WriteTo(os.Stdout); err != nil {
			return fatal(err)
		}
		return 0
	}
	if cmd == "build" {
		// Construct (and validate) the WRHT schedule for -n/-w/-m without
		// simulating it — the at-scale smoke test for the streamed
		// pipeline. -stream selects stream-and-consume (peak memory
		// O(max step) + O(index)); -memstats reports the measured peak
		// live heap, normalized per node.
		wcfg := core.Config{N: cfg.n, Wavelengths: cfg.w, GroupSize: cfg.m}
		if cfg.memstats {
			var rep exp.MemReport
			var err error
			if cfg.stream {
				rep, err = exp.StreamedBuildMem(func() (core.StepSource, error) {
					return core.StreamWRHT(wcfg)
				}, cfg.w, true)
			} else {
				rep, err = exp.MaterializedBuildMem(func() (*core.Schedule, error) {
					return core.BuildWRHT(wcfg)
				}, cfg.w, true)
			}
			if err != nil {
				return fatal(err)
			}
			fmt.Println(rep)
			return 0
		}
		resp, aerr := wrht.ServeBuild(api.BuildRequest{
			Kind: "wrht", N: cfg.n, Wavelengths: cfg.w, GroupSize: cfg.m, Stream: cfg.stream,
		})
		if aerr != nil {
			return apiFatal(aerr)
		}
		mode := "materialized"
		if resp.Streamed {
			mode = "streamed"
		}
		fmt.Printf("%s %s N=%d w=%d: %d steps, %d transfers, validated\n",
			mode, resp.Algorithm, resp.N, cfg.w, resp.Steps, resp.Transfers)
		if cfg.jsonOut != "" {
			if err := writeJSON(cfg.jsonOut, resp); err != nil {
				return fatal(err)
			}
			fmt.Printf("build result written to %s\n", cfg.jsonOut)
		}
		return 0
	}
	if cmd == "table1" || cmd == "all" {
		t, err := exp.Table1()
		if err != nil {
			return fatal(err)
		}
		fmt.Println(t)
		ran = true
	}
	if cmd == "fig4" || cmd == "all" {
		fig, err := exp.Fig4(o)
		if err != nil {
			return fatal(err)
		}
		fmt.Println(fig)
		figs.Figures = append(figs.Figures, api.FigureFrom("fig4", fig))
		ran = true
	}
	if cmd == "fig5" || cmd == "all" {
		r, err := exp.Fig5(o)
		if err != nil {
			return fatal(err)
		}
		for i, f := range r.Figures {
			fmt.Println(f)
			figs.Figures = append(figs.Figures, api.FigureFrom(fmt.Sprintf("fig5-%d", i), f))
		}
		fmt.Printf("Fig 5 mean reductions (%s): WRHT vs Ring %s (paper 13.74%%), vs H-Ring %s (paper 9.29%%), vs BT %s (paper 75%%)\n\n",
			o.Granularity, metrics.Pct(r.VsRing), metrics.Pct(r.VsHRing), metrics.Pct(r.VsBT))
		ran = true
	}
	if cmd == "fig6" || cmd == "all" {
		r, err := exp.Fig6(o)
		if err != nil {
			return fatal(err)
		}
		for i, f := range r.Figures {
			fmt.Println(f)
			figs.Figures = append(figs.Figures, api.FigureFrom(fmt.Sprintf("fig6-%d", i), f))
		}
		fmt.Printf("Fig 6 mean reductions (%s): WRHT vs Ring %s (paper 65.23%%), vs H-Ring %s (paper 43.81%%), vs BT %s (paper 82.22%%)\n\n",
			o.Granularity, metrics.Pct(r.VsRing), metrics.Pct(r.VsHRing), metrics.Pct(r.VsBT))
		ran = true
	}
	if cmd == "fig7" || cmd == "all" {
		r, err := exp.Fig7(o)
		if err != nil {
			return fatal(err)
		}
		for i, f := range r.Figures {
			fmt.Println(f)
			figs.Figures = append(figs.Figures, api.FigureFrom(fmt.Sprintf("fig7-%d", i), f))
		}
		fmt.Printf("Fig 7 mean reductions (%s): O-Ring vs E-Ring %s (paper 48.74%%), WRHT vs E-Ring %s (paper 61.23%%), WRHT vs E-RD %s (paper 55.51%%)\n\n",
			o.Granularity, metrics.Pct(r.ORingVsERing), metrics.Pct(r.WRHTVsERing), metrics.Pct(r.WRHTVsERD))
		ran = true
	}
	if cmd == "constraints" || cmd == "all" {
		fmt.Println(exp.Constraints())
		ran = true
	}
	if cmd == "stragglers" || cmd == "all" {
		t, err := exp.Stragglers(o, dnn.ResNet50(), 256, 64, 0.2, 20, 1)
		if err != nil {
			return fatal(err)
		}
		fmt.Println(t)
		ran = true
	}
	if cmd == "extras" || cmd == "all" {
		for _, m := range []dnn.Model{dnn.ResNet50(), dnn.BEiTLarge()} {
			t, err := exp.Extras(o, m, 1024, 64)
			if err != nil {
				return fatal(err)
			}
			fmt.Println(t)
		}
		ran = true
	}
	if cmd == "hybrid" || cmd == "all" {
		const nodes = 64
		model := dnn.BEiTLarge()
		t := &metrics.Table{
			Title:   fmt.Sprintf("§6.2 hybrid parallelism: %s on %d nodes (GPipe, 8×2 microbatches)", model.Name, nodes),
			Headers: []string{"P x D", "pipeline (ms)", "bubble (ms)", "all-reduce (ms)", "iteration (ms)"},
		}
		for _, p := range []int{1, 2, 4, 8, 16} {
			sim := parallel.Sim{
				Model:          model,
				Strat:          parallel.Strategy{Stages: p, Replicas: nodes / p},
				Microbatches:   8,
				MicrobatchSize: 2,
				GPU:            workload.TitanXP(),
				Optical:        optical.DefaultParams(),
			}
			res, err := sim.Run()
			if err != nil {
				fmt.Fprintf(os.Stderr, "wrhtsim: hybrid: %v\n", err)
				return 1
			}
			t.AddRow(fmt.Sprintf("%d x %d", p, nodes/p),
				fmt.Sprintf("%.1f", res.PipelineSec*1e3),
				fmt.Sprintf("%.1f", res.BubbleSec*1e3),
				fmt.Sprintf("%.1f", res.AllReduceSec*1e3),
				fmt.Sprintf("%.1f", res.TotalSec*1e3))
		}
		fmt.Println(t)
		ran = true
	}
	if cmd == "crossfabric" || cmd == "all" {
		// One engine, two backends: the -n/-w ring and the same-size
		// fat-tree time identical explicit schedules; -d sets the payload.
		resp, tables, aerr := api.RunSweep(o, api.SweepRequest{
			Sweep: "crossfabric", N: cfg.n, Wavelengths: cfg.w, PayloadMB: cfg.payloadMB,
		})
		if aerr != nil {
			return apiFatal(aerr)
		}
		for _, t := range tables {
			fmt.Println(t)
		}
		if cmd == "crossfabric" && cfg.jsonOut != "" {
			if err := writeJSON(cfg.jsonOut, resp); err != nil {
				return fatal(err)
			}
			fmt.Printf("crossfabric result written to %s\n", cfg.jsonOut)
			cfg.jsonOut = "" // consumed; skip the figures document below
		}
		ran = true
	}
	if cmd == "faults" || cmd == "all" {
		// Degraded-mode sweep: completion time versus dead wavelengths,
		// rebuilt-upfront and injected-mid-run (see internal/exp.Degradation).
		var ns []int // nil selects the paper trio {64, 1024, 4096}
		if cfg.nSet {
			ns = []int{cfg.n}
		}
		resp, tables, aerr := api.RunSweep(o, api.SweepRequest{
			Sweep: "faults", Ns: ns, Wavelengths: cfg.w, PayloadMB: cfg.payloadMB,
		})
		if aerr != nil {
			return apiFatal(aerr)
		}
		for _, t := range tables {
			fmt.Println(t)
		}
		if cmd == "faults" && cfg.jsonOut != "" {
			if err := writeJSON(cfg.jsonOut, resp); err != nil {
				return fatal(err)
			}
			fmt.Printf("faults result written to %s\n", cfg.jsonOut)
			cfg.jsonOut = ""
		}
		ran = true
	}
	if cmd == "overlap" || cmd == "all" {
		// IR pass pipeline vs the opportunistic overlap baseline: how
		// many reconfigurations each hides (see DESIGN.md §2.5). The
		// golden pair N ∈ {1024, 4096} unless -n narrows it.
		var ns []int // nil selects the golden pair {1024, 4096}
		if cfg.nSet {
			ns = []int{cfg.n}
		}
		resp, tables, aerr := api.RunSweep(o, api.SweepRequest{
			Sweep: "overlap", Ns: ns, Wavelengths: cfg.w, PayloadMB: cfg.payloadMB,
			Passes: cfg.passes, Check: cfg.check,
		})
		for _, t := range tables {
			fmt.Println(t)
		}
		if aerr != nil {
			return apiFatal(aerr)
		}
		if cfg.check {
			fmt.Printf("overlap check passed: hidden reconfigs strictly above baseline at all %d points\n\n", len(resp.Overlap))
		}
		if cmd == "overlap" && cfg.jsonOut != "" {
			if err := writeJSON(cfg.jsonOut, resp); err != nil {
				return fatal(err)
			}
			fmt.Printf("overlap result written to %s\n", cfg.jsonOut)
			cfg.jsonOut = ""
		}
		ran = true
	}
	if cmd == "plan" || cmd == "all" {
		// All-to-all planner gate: sweep the (r, w, a) grid (-r, -w, -a;
		// both fabrics), cross-checking the planner's predicted argmin
		// against the simulated one, then the end-to-end rescue of the
		// named fallback configurations. -check makes any gate violation
		// exit nonzero; -json dumps the raw points.
		rs, err := intList(cfg.planR)
		if err != nil {
			return fatal(fmt.Errorf("plan: -r: %w", err))
		}
		as, err := floatList(cfg.planA)
		if err != nil {
			return fatal(fmt.Errorf("plan: -a: %w", err))
		}
		resp, tables, aerr := api.RunPlan(o, api.PlanRequest{
			Rs: rs, Wavelengths: cfg.w, AMicros: as, PayloadMB: cfg.payloadMB, Check: cfg.check,
		})
		for _, t := range tables {
			fmt.Println(t)
		}
		if aerr != nil {
			return apiFatal(aerr)
		}
		if cfg.check {
			fmt.Printf("plan check passed: predicted argmin == simulated argmin at all %d points, rescue speedups above 1\n\n", len(resp.Points))
		}
		if cmd == "plan" && cfg.jsonOut != "" {
			if err := writeJSON(cfg.jsonOut, resp); err != nil {
				return fatal(err)
			}
			fmt.Printf("raw plan points written to %s\n", cfg.jsonOut)
			cfg.jsonOut = ""
		}
		ran = true
	}
	if cmd == "crossover" || cmd == "all" {
		tp := o.Optical.TimeParams()
		t := &metrics.Table{
			Title:   "Analytic crossover: smallest N where fused WRHT beats optical Ring (w=64)",
			Headers: []string{"Workload", "grad (MB)", "crossover N"},
		}
		for _, m := range dnn.Workloads() {
			n := tp.RingCrossoverN(64, float64(m.GradBytes()), 1<<22)
			t.AddRow(m.Name, fmt.Sprintf("%.1f", float64(m.GradBytes())/1e6), fmt.Sprint(n))
		}
		fmt.Println(t)
		ran = true
	}
	if !ran {
		fmt.Fprintf(os.Stderr, "wrhtsim: unknown command %q\n", cmd)
		flag.Usage()
		return 2
	}
	if cfg.jsonOut != "" && len(figs.Figures) > 0 {
		if err := writeJSON(cfg.jsonOut, figs); err != nil {
			return fatal(fmt.Errorf("writing %s: %w", cfg.jsonOut, err))
		}
		fmt.Printf("raw series written to %s\n", cfg.jsonOut)
	}
	if err := sink.WriteTrace(o.Trace); err != nil {
		return fatal(err)
	}
	if o.Metrics != nil {
		if t := latencySummary(o.Metrics); t != nil {
			fmt.Println(t)
		}
	}
	if err := sink.WriteMetrics(o.Metrics); err != nil {
		return fatal(err)
	}
	return 0
}

// latencySummary renders the wall-clock histograms as a p50/p99/max
// table — the at-a-glance profile every metrics-enabled run prints —
// or nil when no latency was recorded.
func latencySummary(reg *obs.Registry) *metrics.Table {
	t := &metrics.Table{
		Title:   "Wall-clock latency summary (from -prom/-promaddr histograms)",
		Headers: []string{"Series", "count", "p50 (µs)", "p99 (µs)", "max (µs)"},
	}
	rows := 0
	for _, f := range reg.Snapshot().Families() {
		if f.Type != "histogram" {
			continue
		}
		for _, se := range f.Series {
			h := se.Hist
			if h == nil || h.Count == 0 {
				continue
			}
			name := f.Raw
			if se.Labels != "" {
				name += "{" + se.Labels + "}"
			}
			t.AddRow(name, fmt.Sprint(h.Count),
				fmt.Sprintf("%.1f", h.Quantile(0.5)*1e6),
				fmt.Sprintf("%.1f", h.Quantile(0.99)*1e6),
				fmt.Sprintf("%.1f", h.Max*1e6))
			rows++
		}
	}
	if rows == 0 {
		return nil
	}
	return t
}
