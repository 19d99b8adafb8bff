package main

import (
	"fmt"
	"io"
	"runtime"
	rtm "runtime/metrics"
	"sync/atomic"
	"time"

	"wrht/internal/exp"
	"wrht/internal/obs"
	"wrht/internal/rwa"
)

// metricDef is one entry of the metric catalogue BENCHMARK.json
// declares; the self-test keeps the two in step.
type metricDef struct {
	name, unit, better string
	bound              float64 // end-to-end metrics only
}

// endToEnd lists the metrics an untraced run reports, on every
// workload. On the batch workloads one pass is one request: p50_ms and
// p99_ms are pass latencies and goodput_rps is correct passes per
// second.
//
// The timing bounds are wide because a 2-CPU host shared with other
// jobs moves single passes by ±10% and whole runs by more; the
// simulated time is deterministic per seed and gets a tight bound.
var endToEnd = []metricDef{
	{"setup_s", "s", "lower", 0.25},
	{"wall_s", "s", "lower", 0.25},
	{"alloc_mb", "MB", "lower", 0.15},
	{"peak_heap_mb", "MB", "lower", 0.25},
	{"sim_ms", "ms", "lower", 0.05},
	{"p50_ms", "ms", "lower", 0.25},
	{"p99_ms", "ms", "lower", 0.25},
	{"goodput_rps", "1/s", "higher", 0.25},
}

// perLayer lists the metrics a traced run reports, on every workload; a
// layer that does no work on a workload reports 0.
var perLayer = []metricDef{
	// paper-figs
	{name: "exp.fig7_s", unit: "s", better: "lower"},
	{name: "exp.stragglers_s", unit: "s", better: "lower"},
	{name: "exp.profile_figs_s", unit: "s", better: "lower"},
	{name: "fabric.electrical_run_s", unit: "s", better: "lower"},
	{name: "fabric.optical_run_s", unit: "s", better: "lower"},
	{name: "collective.profile_builds", unit: "count", better: "lower"},
	{name: "collective.profile_hit_ratio", unit: "ratio", better: "higher"},
	{name: "optical.des_events", unit: "count", better: "lower"},
	{name: "exp.pool_util", unit: "ratio", better: "higher"},
	{name: "exp.point_p99_ms", unit: "ms", better: "lower"},
	// stream-1m
	{name: "core.next_s", unit: "s", better: "lower"},
	{name: "rwa.validate_s", unit: "s", better: "lower"},
	{name: "fabric.time_s", unit: "s", better: "lower"},
	{name: "rwa.probe_s", unit: "s", better: "lower"},
	{name: "bytes_per_node", unit: "B", better: "lower"},
	// stream-1m and rewrite-plan
	{name: "sim.setup_ms", unit: "ms", better: "lower"},
	{name: "sim.serialization_ms", unit: "ms", better: "lower"},
	{name: "sim.oeo_ms", unit: "ms", better: "lower"},
	{name: "sim.router_ms", unit: "ms", better: "lower"},
	{name: "sim.hidden_setup_ms", unit: "ms", better: "higher"},
	// rewrite-plan
	{name: "exp.overlap_sweep_s", unit: "s", better: "lower"},
	{name: "exp.plan_sweep_s", unit: "s", better: "lower"},
	{name: "exp.rescue_s", unit: "s", better: "lower"},
	{name: "exp.faults_sweep_s", unit: "s", better: "lower"},
	{name: "ir.pass_s.reorder", unit: "s", better: "lower"},
	{name: "ir.pass_s.recolor", unit: "s", better: "lower"},
	{name: "ir.pass_s.split", unit: "s", better: "lower"},
	{name: "plan.decision_s", unit: "s", better: "lower"},
	{name: "plan.candidates_per_decision", unit: "count", better: "lower"},
	{name: "rwa.probes", unit: "count", better: "lower"},
	{name: "fabric.hidden_reconfigs", unit: "count", better: "higher"},
	{name: "fault.reschedules", unit: "count", better: "lower"},
	// daemon-mix
	{name: "api.exec_ms.build", unit: "ms", better: "lower"},
	{name: "api.exec_ms.simulate", unit: "ms", better: "lower"},
	{name: "api.exec_ms.sweep", unit: "ms", better: "lower"},
	{name: "api.exec_ms.plan", unit: "ms", better: "lower"},
	{name: "api.codec_us", unit: "us", better: "lower"},
	{name: "daemon.wait_ms", unit: "ms", better: "lower"},
	{name: "daemon.client_ms", unit: "ms", better: "lower"},
	{name: "daemon.coalesce_hit_ratio", unit: "ratio", better: "higher"},
	{name: "gen.lag_p99_ms", unit: "ms", better: "lower"},
	// every workload
	{name: "trace.overhead_s", unit: "s", better: "lower"},
}

// setupReps is how many times a run repeats its set-up; setup_s is the
// median, which a set-up of a few milliseconds needs many samples to
// pin down.
const setupReps = 21

type metric struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

// result is the JSON object a run prints as its last line.
type result struct {
	Correct   bool              `json:"correct"`
	Attempted int               `json:"attempted"`
	Failed    int               `json:"failed"`
	Metrics   map[string]metric `json:"metrics"`
}

// runner carries one run: its inputs, the operation accounting behind
// fail_ratio, the metrics it reports and, on traced runs, the spans.
type runner struct {
	workload string
	seed     int64
	budget   time.Duration
	traced   bool
	out      io.Writer // the human-readable report
	errs     io.Writer // one line per failed operation
	// tracer holds the spans of a traced run (nil otherwise); t0 is its
	// clock's origin.
	tracer *obs.Tracer
	t0     time.Time

	attempted, failed int
	metrics           map[string]metric
}

// nproc bounds every source of parallelism the benchmark creates:
// sweep workers, daemon pool workers and HTTP connections.
func nproc() int { return runtime.NumCPU() }

// record counts one operation and, when err is non-nil, one failure.
func (r *runner) record(op string, err error) {
	r.attempted++
	if err != nil {
		r.failed++
		if r.failed <= 20 {
			fmt.Fprintf(r.errs, "perfbench: %s: FAIL %s: %v\n", r.workload, op, err)
		}
	}
}

// set reports one metric, with its sample count or derivation in note.
func (r *runner) set(name string, v float64, unit, note string) {
	r.metrics[name] = metric{Value: v, Unit: unit}
	fmt.Fprintf(r.out, "  %-30s %14.6g %-6s %s\n", name, v, unit, note)
}

// span records [start, start+d) on the named track of a traced run.
func (r *runner) span(track, name string, start time.Time, d time.Duration) {
	if r.tracer == nil {
		return
	}
	r.tracer.Span(obs.Track{Process: r.workload, Name: track}, name,
		start.Sub(r.t0).Seconds(), d.Seconds(), nil)
}

// timeSetup runs fn setupReps times and returns the median duration.
func (r *runner) timeSetup(fn func() error) (float64, error) {
	var ds []float64
	for i := 0; i < setupReps; i++ {
		start := time.Now()
		if err := fn(); err != nil {
			return 0, fmt.Errorf("set-up: %w", err)
		}
		ds = append(ds, time.Since(start).Seconds())
	}
	return median(ds), nil
}

// fillIdleLayers reports 0 for every per-layer metric the workload
// does not exercise.
func (r *runner) fillIdleLayers() {
	for _, d := range perLayer {
		if _, ok := r.metrics[d.name]; !ok {
			r.set(d.name, 0, d.unit, "layer idle on this workload")
		}
	}
}

// allocated returns the cumulative bytes the process has allocated.
func allocated() uint64 {
	s := []rtm.Sample{{Name: "/gc/heap/allocs:bytes"}}
	rtm.Read(s)
	return s[0].Value.Uint64()
}

// heapWatch samples the live heap (as of the latest GC) every 2 ms and
// keeps the peak.
type heapWatch struct {
	stop, done chan struct{}
	peak       uint64
}

func watchHeap() *heapWatch {
	h := &heapWatch{stop: make(chan struct{}), done: make(chan struct{})}
	go func() {
		defer close(h.done)
		s := []rtm.Sample{{Name: "/gc/heap/live:bytes"}}
		tick := time.NewTicker(2 * time.Millisecond)
		defer tick.Stop()
		for {
			rtm.Read(s)
			h.peak = max(h.peak, s[0].Value.Uint64())
			select {
			case <-h.stop:
				return
			case <-tick.C:
			}
		}
	}()
	return h
}

// Stop ends sampling and returns the peak live heap in bytes.
func (h *heapWatch) Stop() uint64 {
	close(h.stop)
	<-h.done
	return h.peak
}

// latencySum is an rwa.Stats latency sink that totals probe time.
type latencySum struct{ nanos atomic.Int64 }

func (l *latencySum) Observe(sec float64) { l.nanos.Add(int64(sec * 1e9)) }

func (l *latencySum) seconds() float64 { return float64(l.nanos.Load()) / 1e9 }

// opOut is one operation's output as the oracle sees it.
type opOut struct {
	// text is the canonical rendering of the output; later passes must
	// reproduce the first pass's text exactly.
	text string
	// sims holds the simulated completion time, in seconds, of every
	// schedule the operation timed.
	sims []float64
	// check is the full oracle, run once on the first pass, outside the
	// timed region.
	check func() error
}

// op is one call into the program's layers.
type op struct {
	name string
	call func(e *env) (opOut, error)
}

// env is what a pass hands its operations. Traced passes attach the
// counters and histograms the program already exposes.
type env struct {
	opts  exp.Options
	stats *rwa.Stats // fabric.Options.RWAStats; nil on untraced passes
}

func expOptions(reg *obs.Registry) exp.Options {
	o := exp.Defaults()
	o.Workers = nproc()
	o.Metrics = reg
	return o
}

// verdict is the first pass's oracle outcome for one operation.
type verdict struct {
	text string
	err  error
}

// judge applies the oracle: the first output of each operation is
// checked in full, every later one must equal it.
func judge(name string, out opOut, seen map[string]verdict) error {
	v, ok := seen[name]
	if !ok {
		v = verdict{text: out.text}
		if out.check != nil {
			v.err = out.check()
		}
		seen[name] = v
		return v.err
	}
	if out.text != v.text {
		return fmt.Errorf("output differs from the first pass")
	}
	return v.err
}

// passResult is one pass over a batch workload's operations. wall and
// alloc cover the program's calls only, never the oracle.
type passResult struct {
	wall, alloc float64
	sims        []float64
	ok          bool
}

func (r *runner) pass(ops []op, e *env, traced bool, seen map[string]verdict, opSec map[string]float64) passResult {
	// Every pass starts from a collected heap, so the garbage an earlier
	// pass left behind does not decide when this one's collections run.
	runtime.GC()
	p := passResult{ok: true}
	for _, o := range ops {
		a0 := allocated()
		start := time.Now()
		out, err := o.call(e)
		d := time.Since(start)
		p.alloc += float64(allocated() - a0)
		p.wall += d.Seconds()
		if traced {
			r.span("ops", o.name, start, d)
			opSec[o.name] += d.Seconds()
		}
		if err == nil {
			err = judge(o.name, out, seen)
		}
		r.record(o.name, err)
		p.ok = p.ok && err == nil
		p.sims = append(p.sims, out.sims...)
	}
	return p
}

// batch is a workload run as repeated passes over a fixed list of
// operations.
type batch struct {
	setup func() error
	ops   []op
	// layers reports the per-layer metrics from the traced passes.
	layers func(r *runner, t *traced) error
}

// traced is what the traced passes of a batch run accumulate.
type traced struct {
	passes int
	wall   float64 // summed pass wall time
	reg    *obs.Registry
	stats  *rwa.Stats
	probe  *latencySum        // stats.Latency
	opSec  map[string]float64 // summed per operation
}

// perPass divides a total accumulated over the traced passes.
func (t *traced) perPass(v float64) float64 { return v / float64(t.passes) }

// runBatch runs set-up, then passes until the time budget is spent.
// An untraced run reports the end-to-end metrics; a traced run
// alternates untraced and traced passes and reports the per-layer
// metrics plus the tracing overhead.
func (r *runner) runBatch(b *batch) error {
	setup, err := r.timeSetup(b.setup)
	if err != nil {
		return err
	}
	seen := map[string]verdict{}
	plainEnv := &env{opts: expOptions(nil)}
	deadline := time.Now().Add(r.budget)
	if !r.traced {
		hw := watchHeap()
		var walls, allocs, sims []float64
		good := 0
		for len(walls) == 0 || time.Now().Before(deadline) {
			p := r.pass(b.ops, plainEnv, false, seen, nil)
			walls = append(walls, p.wall)
			allocs = append(allocs, p.alloc)
			if sims == nil {
				sims = p.sims
			}
			if p.ok {
				good++
			}
		}
		peak := hw.Stop()
		n := len(walls)
		var total float64
		for _, w := range walls {
			total += w
		}
		r.set("setup_s", setup, "s", fmt.Sprintf("median of %d set-ups", setupReps))
		r.set("wall_s", median(walls), "s", fmt.Sprintf("median of %d passes", n))
		r.set("alloc_mb", median(allocs)/1e6, "MB", fmt.Sprintf("median of %d passes", n))
		r.set("peak_heap_mb", float64(peak)/1e6, "MB", "peak live heap over the measured passes")
		r.set("sim_ms", geomean(sims)*1e3, "ms", fmt.Sprintf("geomean of %d simulated schedules", len(sims)))
		fmt.Fprintf(r.out, "  pass walls (s), n=%d: %.4g\n", len(walls), walls)
		r.set("p50_ms", median(walls)*1e3, "ms", fmt.Sprintf("pass latency, n=%d", n))
		tv, lvl := tail(walls)
		r.set("p99_ms", tv*1e3, "ms", tailNote(lvl, n, "pass latency"))
		r.set("goodput_rps", float64(good)/total, "1/s", fmt.Sprintf("correct passes per second, %d of %d", good, n))
		return nil
	}
	probe := &latencySum{}
	t := &traced{
		reg:   obs.NewRegistry(),
		stats: &rwa.Stats{Latency: probe},
		probe: probe,
		opSec: map[string]float64{},
	}
	tracedEnv := &env{opts: expOptions(t.reg), stats: t.stats}
	var plain, tr []float64
	for len(tr) == 0 || time.Now().Before(deadline) {
		plain = append(plain, r.pass(b.ops, plainEnv, false, seen, nil).wall)
		p := r.pass(b.ops, tracedEnv, true, seen, t.opSec)
		tr = append(tr, p.wall)
		t.passes++
		t.wall += p.wall
	}
	r.set("trace.overhead_s", median(tr)-median(plain), "s",
		fmt.Sprintf("traced %.4g s (n=%d) - untraced %.4g s (n=%d) wall_s", median(tr), len(tr), median(plain), len(plain)))
	return b.layers(r, t)
}

// tailNote describes a tail percentile with its level and sample count.
func tailNote(level float64, n int, what string) string {
	if level >= 1 {
		return fmt.Sprintf("%s, max of n=%d (too few samples for a percentile)", what, n)
	}
	return fmt.Sprintf("%s, p%.4g of n=%d", what, level*100, n)
}

// counterSum totals every series of a counter family in snap.
func counterSum(snap obs.Snapshot, family string) int64 {
	var v int64
	for name, c := range snap.Counters {
		if name == family || hasFamily(name, family) {
			v += c
		}
	}
	return v
}
