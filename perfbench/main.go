// Command perfbench is the WRHT repository's benchmark: one command
// that runs a seeded workload through the program's layers, checks
// every output, and prints the end-to-end metrics (untraced run) or the
// per-layer metrics (traced run). It lives in its own module so the
// program's build and tests do not see it; run.sh builds it from the
// checkout and runs it:
//
//	bash perfbench/run.sh --workload paper-figs --seed 1 --seconds 20 --trace 0
//	bash perfbench/run.sh --workload daemon-mix --seed 1 --seconds 20 --trace 1
//	bash perfbench/run.sh --workload all --seed 1 --seconds 20 --trace 0
//
// The last line of standard output is one JSON object
// {"correct", "attempted", "failed", "metrics"} (--workload all prints
// one such report per workload, in turn); the lines before it name
// every metric with its unit and its sample count or derivation, and a
// failed operation is reported on standard error. A traced run
// keeps its spans (an obs.Tracer, Perfetto format) in memory and writes
// them to .bench_build/perfbench/trace-<workload>-<seed>.json at the
// end. The self-tests run with `cd perfbench && go test ./...`.
//
// Seeds. Every input the program receives is generated from --seed:
// the straggler RNG seed (paper-figs), the fault-mask seed and ±0.5%
// payload offsets (rewrite-plan, stream-1m), and the daemon-mix request
// stream and arrival times. Seed 7919 is held out: use it only to check
// a claim after the change is written.
//
// # Workloads
//
// paper-figs is the paper reproduction: exp.Table1, Fig4–Fig7,
// Stragglers(ResNet50, 256, 64, 0.2, 20, seed), Extras(ResNet50 and
// BEiT-L, 1024, 64) and CrossFabric(64, 64, 100 MB), fused granularity.
// Most of its time is the electrical flow model (Fig 7) and the optical
// DES (stragglers); core and rwa do almost nothing, because profiles
// carry no circuits. It exists so that moving the figures onto the step
// stream cannot make them slower or change them.
//
// stream-1m is the at-scale construction path: wrht.ServeBuild with
// stream:true and fabric.Engine.RunStream (validation and overlap on,
// 100 MB) on a WRHT ring of N=2^20, w=64. Validation through rwa
// dominates; electrical, ir and exp do no work. It exists for
// construction, index and checker work.
//
// rewrite-plan runs the three places that rewrite a schedule:
// exp.OverlapSweep (N ∈ {1024, 4096, 16384}, w ∈ {16, 64}, all IR
// passes), exp.PlanSweep (r ∈ {8, 16, 32, 64}, w ∈ {8, 16},
// a ∈ {25, 250} µs, 25 MB), exp.RescueSweep and exp.Degradation
// (N ∈ {64, 1024, 4096}, {0, 1, 2, 4, 8} dead wavelengths, seeded
// mask). It exists for a reconfigure-or-hold optimizer, which must win
// or hold here in host and simulated time.
//
// daemon-mix is an open loop of independent users against daemon.New
// on a loopback listener: seeded Poisson arrivals at a fixed rate,
// latency timed from each request's due time, over a seeded mix of
// /v1/build, /v1/simulate (optical and electrical), /v1/sweep and
// /v1/plan in which about a third of the requests repeat an earlier key
// (some of them a request still in flight) and no ring schedule exceeds
// N=256. The fixed rate (250 requests/s) and the ladder above it (750
// and 2000 requests/s) were set once from closed-loop capacity with
// nproc connections (--calibrate) and are constants, so a faster daemon
// cannot change its own offered load. It is the only workload that
// exercises api decoding and encoding, singleflight coalescing, and
// sweeps queued on the pool next to builds and simulates off it; it
// exists so daemon hardening cannot cost latency.
//
// The benchmark drives the program only through public functions of
// core, collective, rwa, fabric, electrical, optical, ir, plan, fault,
// exp, api and daemon, with at most nproc sweep workers, daemon pool
// workers and HTTP connections.
//
// # End-to-end metrics
//
// Every untraced run reports all of them. On the batch workloads
// (paper-figs, stream-1m, rewrite-plan) a pass runs every operation
// once and is the unit a user waits for; on daemon-mix a pass is a
// closed-loop replay of mixPassRequests fresh requests, every template
// equally often, over nproc connections.
//
//	setup_s       median of 21 set-ups (options, seeded inputs, long-lived
//	              objects, one warm-up of the cheap calls)
//	wall_s        host seconds per pass, median
//	alloc_mb      MB allocated per pass, median
//	peak_heap_mb  peak live heap (runtime/metrics, sampled every 2 ms)
//	sim_ms        geometric mean of the simulated completion time of
//	              every schedule the workload times (daemon-mix: per
//	              simulate template, then across templates)
//	p50_ms        daemon-mix: request latency at the fixed rate, from the
//	              due time; batch workloads: pass latency
//	p99_ms        the same, at the highest percentile up to p99 with at
//	              least 10 samples beyond it; failed requests count as
//	              infinitely late
//	goodput_rps   daemon-mix: completed requests per second at the
//	              highest ladder rate whose tail stays at or below 100 ms
//	              with no growing backlog; batch: correct passes per second
//
// Every pass and every daemon phase starts from a collected heap.
//
// fail_ratio (failed / attempted operations, from the top-level
// "failed" and "attempted" fields) is printed in the report; it is 0 at
// every seed, so it is not a JSON metric.
//
// # Oracles
//
// Every operation is checked, and a mismatch, an error, a non-200
// response or a transport error counts as a failed operation. paper-figs
// pins the sha256 of every rendered figure, headline reduction and
// table (equal to what `wrhtsim all` prints) and the straggler table's
// jitter-free column. stream-1m requires 6 steps, 2097150 transfers and
// inline RWA validation. rewrite-plan re-derives and re-validates every
// rewritten schedule (IR pass output, planned all-to-all, fault-repaired
// schedule), requires PlanPoint.Check, rescue speedups above 1 and
// passes never slower than the baseline. daemon-mix requires every 200
// body to be byte-equal to api.Encode of the direct executor's result
// for the same request. Deterministic outputs are checked in full on
// their first pass and must repeat exactly after that.
//
// # Per-layer metrics
//
// A traced run alternates untraced and traced passes; the traced ones
// record spans from this package around every call into the layers and
// attach exp.Options.Metrics, daemon.Config.Registry and
// fabric.Options.RWAStats. trace.overhead_s is traced minus untraced
// wall_s. Each layer metric and the end-to-end metric it should move:
//
//	paper-figs    exp.fig7_s, exp.stragglers_s, exp.profile_figs_s,
//	              fabric.electrical_run_s, fabric.optical_run_s,
//	              optical.des_events, exp.pool_util,
//	              exp.point_p99_ms                                → wall_s
//	              collective.profile_builds,
//	              collective.profile_hit_ratio        → wall_s, alloc_mb
//	stream-1m     core.next_s, rwa.validate_s, fabric.time_s,
//	              rwa.probe_s                                     → wall_s
//	              bytes_per_node                            → peak_heap_mb
//	              sim.setup_ms, sim.serialization_ms, sim.oeo_ms,
//	              sim.router_ms, sim.hidden_setup_ms              → sim_ms
//	rewrite-plan  exp.overlap_sweep_s, exp.plan_sweep_s,
//	              exp.rescue_s, exp.faults_sweep_s, ir.pass_s.<pass>,
//	              plan.decision_s, plan.candidates_per_decision,
//	              rwa.probes                                      → wall_s
//	              fabric.hidden_reconfigs, fault.reschedules,
//	              sim.*                                           → sim_ms
//	daemon-mix    api.exec_ms.<endpoint>, api.codec_us            → p50_ms
//	              daemon.wait_ms               → p99_ms, goodput_rps
//	              daemon.client_ms                                → p99_ms
//	              daemon.coalesce_hit_ratio                  → goodput_rps
//	              gen.lag_p99_ms   validity of the load generator
//
// # Coverage of the hand-copied BENCH files
//
// BENCH_rwa.json's stream_build row at N=2^20 is stream-1m
// (wrht.ServeBuild, core.next_s, rwa.validate_s, bytes_per_node); its
// N=65536 row, its assign rows and its validate rows (N ≤ 16384) have
// no workload. BENCH_plan.json's points and rescue rows are
// rewrite-plan's exp.PlanSweep and exp.RescueSweep (plan.decision_s,
// exp.rescue_s), on a wider grid. BENCH_obs.json's nil-observer engine
// and histogram costs are part of what trace.overhead_s measures, not a
// row of their own. The files stay as they are.
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"io"
	"os"
	"path/filepath"
	"time"

	"wrht/internal/obs"
)

// workloads maps each workload name to its driver.
var workloads = map[string]func(*runner) error{
	"paper-figs":   paperFigs,
	"stream-1m":    stream1m,
	"rewrite-plan": rewritePlan,
	"daemon-mix":   daemonMix,
}

func main() { os.Exit(run(os.Args[1:], os.Stdout, os.Stderr)) }

func run(args []string, stdout, stderr io.Writer) int {
	fs := flag.NewFlagSet("perfbench", flag.ContinueOnError)
	fs.SetOutput(stderr)
	name := fs.String("workload", "", "paper-figs, stream-1m, rewrite-plan, daemon-mix, or all of them in turn")
	seed := fs.Int64("seed", 1, "seed every generated input derives from")
	seconds := fs.Float64("seconds", 20, "measurement budget in seconds")
	trace := fs.Int("trace", 0, "1 for the traced run (per-layer metrics), 0 for end-to-end metrics")
	traceDir := fs.String("trace-dir", filepath.Join(".bench_build", "perfbench"), "where a traced run writes its spans")
	calibrate := fs.Bool("calibrate", false, "daemon-mix only: measure closed-loop capacity with nproc connections and exit")
	if err := fs.Parse(args); err != nil {
		return 2
	}
	_, ok := workloads[*name]
	if (!ok && *name != "all") || (*trace != 0 && *trace != 1) || *seconds <= 0 {
		fmt.Fprintf(stderr, "perfbench: want --workload paper-figs|stream-1m|rewrite-plan|daemon-mix|all, --trace 0|1 and --seconds > 0\n")
		return 2
	}
	if *calibrate {
		if err := calibrateDaemon(stdout, *seed, *seconds); err != nil {
			fmt.Fprintf(stderr, "perfbench: calibrate: %v\n", err)
			return 1
		}
		return 0
	}
	names := []string{*name}
	if *name == "all" {
		names = workloadOrder
	}
	for _, name := range names {
		if code := runOne(name, *seed, *seconds, *trace == 1, *traceDir, stdout, stderr); code != 0 {
			return code
		}
	}
	return 0
}

// workloadOrder is the order --workload all runs them in.
var workloadOrder = []string{"paper-figs", "stream-1m", "rewrite-plan", "daemon-mix"}

// runOne runs one workload and prints its report and result line.
func runOne(name string, seed int64, seconds float64, traced bool, traceDir string, stdout, stderr io.Writer) int {
	r := &runner{
		workload: name,
		seed:     seed,
		budget:   time.Duration(seconds * float64(time.Second)),
		traced:   traced,
		out:      stdout,
		errs:     stderr,
		t0:       time.Now(),
		metrics:  map[string]metric{},
	}
	if r.traced {
		r.tracer = obs.NewTracer()
	}
	fmt.Fprintf(stdout, "perfbench %s seed=%d seconds=%g traced=%v nproc=%d\n", name, seed, seconds, traced, nproc())
	if err := workloads[name](r); err != nil {
		fmt.Fprintf(stderr, "perfbench: %s: %v\n", name, err)
		return 1
	}
	if r.traced {
		r.fillIdleLayers()
		path := filepath.Join(traceDir, fmt.Sprintf("trace-%s-%d.json", name, seed))
		if err := writeTrace(r.tracer, path); err != nil {
			fmt.Fprintf(stderr, "perfbench: %v\n", err)
			return 1
		}
		fmt.Fprintf(stdout, "  spans: %d written to %s\n", r.tracer.Events(), path)
	}
	if err := r.complete(); err != nil {
		fmt.Fprintf(stderr, "perfbench: %v\n", err)
		return 1
	}
	fmt.Fprintf(stdout, "  %-30s %14.6g %-6s %d failed of %d attempted\n", "fail_ratio",
		float64(r.failed)/float64(max(r.attempted, 1)), "ratio", r.failed, r.attempted)
	line, err := json.Marshal(result{Correct: r.failed == 0 && r.attempted > 0, Attempted: r.attempted, Failed: r.failed, Metrics: r.metrics})
	if err != nil {
		fmt.Fprintf(stderr, "perfbench: %v\n", err)
		return 1
	}
	fmt.Fprintln(stdout, string(line))
	return 0
}

// complete checks that the run reported exactly the catalogue of its
// mode.
func (r *runner) complete() error {
	defs := endToEnd
	if r.traced {
		defs = perLayer
	}
	if len(r.metrics) != len(defs) {
		return fmt.Errorf("reported %d metrics, the catalogue has %d", len(r.metrics), len(defs))
	}
	for _, d := range defs {
		m, ok := r.metrics[d.name]
		if !ok || m.Unit != d.unit {
			return fmt.Errorf("metric %s missing or not in %s", d.name, d.unit)
		}
	}
	return nil
}

func writeTrace(tr *obs.Tracer, path string) error {
	if err := os.MkdirAll(filepath.Dir(path), 0o755); err != nil {
		return err
	}
	return tr.WriteFile(path)
}
