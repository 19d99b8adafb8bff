package exp

import (
	"fmt"

	"wrht/internal/collective"
	"wrht/internal/core"
	"wrht/internal/electrical"
	"wrht/internal/fabric"
	"wrht/internal/metrics"
	"wrht/internal/obs"
	"wrht/internal/rwa"
)

// CrossFabricResult bundles the comparison table with the raw engine
// results so callers (cmd/wrhtsim -json, through api.RunSweep) can
// export per-step breakdowns.
type CrossFabricResult struct {
	Table *metrics.Table
	// Runs holds one engine result per (algorithm, mode) cell, keyed
	// "<algorithm>/<optical|optical+overlap|electrical>".
	Runs map[string]fabric.Result
}

// CrossFabric runs the §5 collectives' explicit schedules through one
// fabric.Engine on both backends — the TeraRack WDM ring (with and
// without reconfiguration–communication overlap) and the electrical
// fat-tree — for a single dBytes payload at (n, w). It is the
// cross-fabric experiment the four pre-engine Run* entry points could
// not express: same schedule, same engine, different physics.
// When o.Trace is set, every run additionally emits its full
// simulated-time step timeline — one Perfetto process per
// "<mode>/<algorithm>" cell — and the sweep runs sequentially so the
// emitted trace is byte-stable (each run's spans start at simulated
// time zero; the processes sit side by side in the viewer).
func CrossFabric(o Options, n, w int, dBytes float64) (*CrossFabricResult, error) {
	if o.Trace != nil {
		o.Workers = 1
	}
	e := newEngine(o, "crossfabric")
	if e.optFabErr != nil {
		return nil, fmt.Errorf("exp: cross-fabric: %w", e.optFabErr)
	}
	nw, err := electrical.NewNetwork(n, o.Electrical)
	if err != nil {
		return nil, fmt.Errorf("exp: cross-fabric network (N=%d): %w", n, err)
	}
	elFab := nw.Fabric()

	type entry struct {
		name string
		s    *core.Schedule
	}
	wrhtS, err := core.BuildWRHT(core.Config{N: n, Wavelengths: w})
	if err != nil {
		return nil, fmt.Errorf("exp: cross-fabric WRHT (N=%d, w=%d): %w", n, w, err)
	}
	entries := []entry{
		{"WRHT", wrhtS},
		{"Ring", collective.BuildRing(n)},
		{"BT", collective.BuildBT(n)},
	}
	// RD needs a power-of-two node count; skip the row otherwise, like
	// the paper skips infeasible cells.
	if rd, err := collective.BuildRD(n); err == nil {
		entries = append(entries, entry{"RD", rd})
	}

	type mode struct {
		name string
		eng  fabric.Engine
	}
	modes := []mode{
		{"optical", fabric.Engine{Fabric: e.optFab}},
		{"optical+overlap", fabric.Engine{Fabric: e.optFab, Opts: fabric.Options{Overlap: true}}},
		{"electrical", fabric.Engine{Fabric: elFab}},
	}

	var rwaStats *rwa.Stats
	if o.Metrics != nil {
		// The latency sink feeds the rwa probe histogram; Histogram.Observe
		// is lock-free, so one shared Stats still serves all workers.
		rwaStats = &rwa.Stats{Latency: e.prof.Hist("rwa.probe.seconds")}
	}
	// Per-mode wall-time histograms for the engine runs; handles are
	// cached outside the sweep so the per-cell path takes no registry
	// lock.
	runHists := make([]*obs.Histogram, len(modes))
	for i, mo := range modes {
		runHists[i] = e.prof.Hist("fabric.run.seconds", "fabric", mo.name)
	}

	// One sweep point per (algorithm, mode); the electrical fluid solves
	// dominate, so fanning out pays off.
	results, err := sweep(e, len(entries)*len(modes), func(i int) (fabric.Result, error) {
		en, mo := entries[i/len(modes)], modes[i%len(modes)]
		eng := mo.eng
		if o.Trace != nil || o.Metrics != nil {
			eng.Opts.Observer = obs.NewFabricObserver(o.Trace, o.Metrics, mo.name+"/"+en.name)
			eng.Opts.RWAStats = rwaStats
		}
		start := e.prof.Start()
		res, err := eng.RunSchedule(en.s, dBytes)
		e.prof.End(runHists[i%len(modes)], start)
		if err != nil {
			return fabric.Result{}, fmt.Errorf("cross-fabric %s on %s: %w", en.name, mo.name, err)
		}
		return res, nil
	})
	if err != nil {
		return nil, err
	}
	if o.Metrics != nil {
		rwaStats.Publish(func(name string, v int64) { o.Metrics.Counter(name).Add(v) })
	}

	out := &CrossFabricResult{
		Table: &metrics.Table{
			Title: fmt.Sprintf("Cross-fabric: one engine, two backends (N=%d, w=%d, d=%.0f MB)",
				n, w, dBytes/1e6),
			Headers: []string{"Algorithm", "Steps",
				"Optical (ms)", "+overlap (ms)", "saved (µs)", "Electrical (ms)", "E/O ratio"},
		},
		Runs: map[string]fabric.Result{},
	}
	for ei, en := range entries {
		opt := results[ei*len(modes)]
		ovl := results[ei*len(modes)+1]
		ele := results[ei*len(modes)+2]
		out.Runs[en.name+"/optical"] = opt
		out.Runs[en.name+"/optical+overlap"] = ovl
		out.Runs[en.name+"/electrical"] = ele
		out.Table.AddRow(en.name, fmt.Sprint(opt.Steps),
			fmt.Sprintf("%.3f", opt.Time*1e3),
			fmt.Sprintf("%.3f", ovl.Time*1e3),
			fmt.Sprintf("%.1f", ovl.OverlapSaved*1e6),
			fmt.Sprintf("%.3f", ele.Time*1e3),
			fmt.Sprintf("%.2f", ele.Time/opt.Time))
	}
	return out, nil
}
