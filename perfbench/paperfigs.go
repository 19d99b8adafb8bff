package main

import (
	"crypto/sha256"
	"encoding/hex"
	"fmt"
	"math/rand"
	"strconv"
	"strings"

	"wrht/internal/collective"
	"wrht/internal/core"
	"wrht/internal/des"
	"wrht/internal/dnn"
	"wrht/internal/exp"
	"wrht/internal/metrics"
	"wrht/internal/optical"
)

// Straggler study parameters: ResNet50 on 256 nodes at w=64, jitter
// sigma 0.2, 20 trials — the `wrhtsim all` configuration with a seeded
// RNG.
const (
	stragglerN, stragglerW = 256, 64
	stragglerSigma         = 0.2
	stragglerTrials        = 20
)

// paperDigests pins the sha256 of every deterministic operation's
// rendered output. Each text is byte-for-byte what `wrhtsim all` prints
// for that table or figure at the repository's Table-2 defaults, except
// exp.CrossFabric, which is `wrhtsim crossfabric -n 64 -w 64` (`all`
// runs it at the CLI default w=8). TestPaperTextsMatchCLI re-derives
// the equality from the CLI.
var paperDigests = map[string]string{
	"exp.Table1":          "b53e9719b2d510388c3573be6c4a8c0a59f9b04e6bacfb8e60d65a6ef10f453c",
	"exp.Fig4":            "7e340de659e90a70cadd6c184b0ea5f640375d7efe23465e8b007883e1a64b1e",
	"exp.Fig5":            "fb50906004c8613eb7f245d852898dd1e5b7cf56e9535660660f715f84138b03",
	"exp.Fig6":            "f778274a767c9cee6f11d6c2a14a5358789f9998821531575d55e0fcf3d40595",
	"exp.Fig7":            "a495a6772d0643a38c0ccd43130df1d4930c06afdb886d54e29e6b9d208359e8",
	"exp.Extras.ResNet50": "d6674d2011d30f8f8fca1074b256536a31c9ccbd7a43bcab20f9ef372441ed96",
	"exp.Extras.BEiT-L":   "4098b0d72e14521f1aff5e2f16e4e87ef1547bb1e87c708f4ed741c3d77e1bb5",
	"exp.CrossFabric":     "6cc564fc151ecb473728873965331517cb0c9e335a81e4539f0f49568f8a9a7e",
}

// stragglerClean pins the jitter-free column of the straggler table
// (WRHT, Ring, BT), which no seed changes.
var stragglerClean = []string{"61.48", "53.53", "327.88"}

func digest(s string) string {
	h := sha256.Sum256([]byte(s))
	return hex.EncodeToString(h[:])
}

// checkDigest is the oracle of the deterministic paper operations.
func checkDigest(name, text string) error {
	want, ok := paperDigests[name]
	if !ok {
		return fmt.Errorf("no pinned digest for %s", name)
	}
	if got := digest(text); got != want {
		return fmt.Errorf("output digest %s, want %s", got, want)
	}
	return nil
}

// deriveSeed draws the seed of one named input from the run's seed, so
// each input gets its own stream.
func deriveSeed(seed int64, input string) int64 {
	h := sha256.Sum256([]byte(fmt.Sprintf("%d/%s", seed, input)))
	return int64(h[0])<<24 | int64(h[1])<<16 | int64(h[2])<<8 | int64(h[3]) + 1
}

// jitter returns base scaled by a seeded factor within ±spread/2 — the
// way workloads vary a payload by seed without moving its regime.
func jitter(seed int64, input string, base, spread float64) float64 {
	u := rand.New(rand.NewSource(deriveSeed(seed, input))).Float64()
	return base * (1 + spread*(u-0.5))
}

// figText renders figures, and the headline line after them, exactly
// as wrhtsim prints them.
func figText(figs []*metrics.Figure, headline string) string {
	var b strings.Builder
	for _, f := range figs {
		fmt.Fprintln(&b, f)
	}
	b.WriteString(headline)
	return b.String()
}

// tableCol parses column col of every row of t as a float.
func tableCol(t *metrics.Table, col int) ([]float64, error) {
	var out []float64
	for _, row := range t.Rows {
		v, err := strconv.ParseFloat(strings.TrimSuffix(row[col], "x"), 64)
		if err != nil {
			return nil, fmt.Errorf("table %q: %w", t.Title, err)
		}
		out = append(out, v)
	}
	return out, nil
}

// msToSec converts table cells printed in milliseconds.
func msToSec(ms []float64) []float64 {
	out := make([]float64, len(ms))
	for i, v := range ms {
		out[i] = v / 1e3
	}
	return out
}

func deterministic(name, text string, sims []float64) opOut {
	return opOut{text: text, sims: sims, check: func() error { return checkDigest(name, text) }}
}

// paperOps lists the paper reproduction in `wrhtsim all` order; the
// straggler study draws its RNG seed from stragglerSeed.
func paperOps(stragglerSeed int64) []op {
	fusedReduction := func(fig string, a, b, c string, x, y, z float64, pa, pb, pc string) string {
		return fmt.Sprintf("%s mean reductions (fused): %s %s (paper %s), %s %s (paper %s), %s %s (paper %s)\n\n",
			fig, a, metrics.Pct(x), pa, b, metrics.Pct(y), pb, c, metrics.Pct(z), pc)
	}
	extras := func(name string, m dnn.Model) op {
		return op{name: name, call: func(e *env) (opOut, error) {
			t, err := exp.Extras(e.opts, m, 1024, 64)
			if err != nil {
				return opOut{}, err
			}
			ms, err := tableCol(t, 4)
			if err != nil {
				return opOut{}, err
			}
			return deterministic(name, fmt.Sprintln(t), msToSec(ms)), nil
		}}
	}
	return []op{
		{"exp.Table1", func(e *env) (opOut, error) {
			t, err := exp.Table1()
			if err != nil {
				return opOut{}, err
			}
			return deterministic("exp.Table1", fmt.Sprintln(t), nil), nil
		}},
		{"exp.Fig4", func(e *env) (opOut, error) {
			f, err := exp.Fig4(e.opts)
			if err != nil {
				return opOut{}, err
			}
			return deterministic("exp.Fig4", fmt.Sprintln(f), nil), nil
		}},
		{"exp.Fig5", func(e *env) (opOut, error) {
			r, err := exp.Fig5(e.opts)
			if err != nil {
				return opOut{}, err
			}
			return deterministic("exp.Fig5", figText(r.Figures, fusedReduction("Fig 5",
				"WRHT vs Ring", "vs H-Ring", "vs BT", r.VsRing, r.VsHRing, r.VsBT,
				"13.74%", "9.29%", "75%")), nil), nil
		}},
		{"exp.Fig6", func(e *env) (opOut, error) {
			r, err := exp.Fig6(e.opts)
			if err != nil {
				return opOut{}, err
			}
			return deterministic("exp.Fig6", figText(r.Figures, fusedReduction("Fig 6",
				"WRHT vs Ring", "vs H-Ring", "vs BT", r.VsRing, r.VsHRing, r.VsBT,
				"65.23%", "43.81%", "82.22%")), nil), nil
		}},
		{"exp.Fig7", func(e *env) (opOut, error) {
			r, err := exp.Fig7(e.opts)
			if err != nil {
				return opOut{}, err
			}
			return deterministic("exp.Fig7", figText(r.Figures, fusedReduction("Fig 7",
				"O-Ring vs E-Ring", "WRHT vs E-Ring", "WRHT vs E-RD", r.ORingVsERing, r.WRHTVsERing, r.WRHTVsERD,
				"48.74%", "61.23%", "55.51%")), nil), nil
		}},
		{"exp.Stragglers", func(e *env) (opOut, error) {
			t, err := exp.Stragglers(e.opts, dnn.ResNet50(), stragglerN, stragglerW, stragglerSigma, stragglerTrials, stragglerSeed)
			if err != nil {
				return opOut{}, err
			}
			clean, err := tableCol(t, 1)
			if err != nil {
				return opOut{}, err
			}
			mean, err := tableCol(t, 2)
			if err != nil {
				return opOut{}, err
			}
			return opOut{
				text:  fmt.Sprintln(t),
				sims:  append(msToSec(clean), msToSec(mean)...),
				check: func() error { return checkStragglers(t) },
			}, nil
		}},
		extras("exp.Extras.ResNet50", dnn.ResNet50()),
		extras("exp.Extras.BEiT-L", dnn.BEiTLarge()),
		{"exp.CrossFabric", func(e *env) (opOut, error) {
			r, err := exp.CrossFabric(e.opts, 64, 64, 100e6)
			if err != nil {
				return opOut{}, err
			}
			var sims []float64
			for _, name := range metrics.SortedKeys(r.Runs) {
				sims = append(sims, r.Runs[name].Time)
			}
			return deterministic("exp.CrossFabric", fmt.Sprintln(r.Table), sims), nil
		}},
	}
}

// checkStragglers is the straggler table's oracle: the jitter-free
// column matches the pinned values and jitter never speeds a collective
// up.
func checkStragglers(t *metrics.Table) error {
	if len(t.Rows) != len(stragglerClean) {
		return fmt.Errorf("straggler table has %d rows, want %d", len(t.Rows), len(stragglerClean))
	}
	for i, row := range t.Rows {
		if row[1] != stragglerClean[i] {
			return fmt.Errorf("%s clean time %s ms, want %s", row[0], row[1], stragglerClean[i])
		}
		slow, err := strconv.ParseFloat(strings.TrimSuffix(row[3], "x"), 64)
		if err != nil {
			return err
		}
		if slow < 1 {
			return fmt.Errorf("%s jittered slowdown %g below 1", row[0], slow)
		}
	}
	return nil
}

// eventCounter is a des.Hook that counts fired events.
type eventCounter struct{ n int64 }

func (c *eventCounter) EventScheduled(uint64, float64, float64, string) {}
func (c *eventCounter) EventFired(uint64, float64, string)              { c.n++ }

var _ des.Hook = (*eventCounter)(nil)

// stragglerEvents counts the discrete events one straggler study fires:
// every schedule it builds runs once clean and once per trial, and
// jitter changes event times, never their number.
func stragglerEvents(o exp.Options) (int64, error) {
	m := dnn.ResNet50()
	var scheds []*core.Schedule
	if s, err := core.BuildWRHT(core.Config{N: stragglerN, Wavelengths: stragglerW}); err == nil {
		scheds = append(scheds, s)
	}
	scheds = append(scheds, collective.BuildRing(stragglerN), collective.BuildBT(stragglerN))
	var total int64
	for _, s := range scheds {
		c := &eventCounter{}
		if _, err := optical.RunScheduleDESObserved(o.Optical, s, float64(m.GradBytes()), nil, c); err != nil {
			return 0, err
		}
		total += c.n * (1 + stragglerTrials)
	}
	return total, nil
}

func paperFigs(r *runner) error {
	stragglerSeed := deriveSeed(r.seed, "stragglers")
	b := &batch{
		// Set-up builds the options and seeded inputs, then runs every
		// operation but Fig7 and Stragglers once, so lazy initialisation
		// is done before timing.
		setup: func() error {
			e := &env{opts: expOptions(nil)}
			for _, o := range paperOps(stragglerSeed) {
				if o.name == "exp.Fig7" || o.name == "exp.Stragglers" {
					continue
				}
				if _, err := o.call(e); err != nil {
					return err
				}
			}
			return nil
		},
		ops: paperOps(stragglerSeed),
		layers: func(r *runner, t *traced) error {
			r.set("exp.fig7_s", t.perPass(t.opSec["exp.Fig7"]), "s", "Fig7 call, mean per traced pass")
			r.set("exp.stragglers_s", t.perPass(t.opSec["exp.Stragglers"]), "s", "Stragglers call, mean per traced pass")
			var prof float64
			for _, name := range []string{"exp.Fig4", "exp.Fig5", "exp.Fig6", "exp.Extras.ResNet50", "exp.Extras.BEiT-L"} {
				prof += t.opSec[name]
			}
			r.set("exp.profile_figs_s", t.perPass(prof), "s", "Fig4-6 and Extras calls, mean per traced pass")
			snap := t.reg.Snapshot()
			var el, opt float64
			for name, h := range snap.Histograms {
				switch {
				case strings.HasPrefix(name, `fabric.run.seconds{fabric="electrical"`):
					el += h.Sum
				case strings.HasPrefix(name, `fabric.run.seconds{fabric="optical`):
					opt += h.Sum
				}
			}
			r.set("fabric.electrical_run_s", t.perPass(el), "s", "fabric.run.seconds{fabric=electrical} busy seconds per pass")
			r.set("fabric.optical_run_s", t.perPass(opt), "s", "fabric.run.seconds{fabric=optical*} busy seconds per pass")
			hits := snap.Counters["collective.profile_cache.hits"]
			misses := snap.Counters["collective.profile_cache.misses"]
			r.set("collective.profile_builds", t.perPass(float64(snap.Counters["collective.profile_cache.builds"])), "count", "per pass")
			r.set("collective.profile_hit_ratio", float64(hits)/float64(max(hits+misses, 1)), "ratio",
				fmt.Sprintf("%d hits / %d lookups", hits, hits+misses))
			events, err := stragglerEvents(expOptions(nil))
			if err != nil {
				return fmt.Errorf("counting DES events: %w", err)
			}
			r.set("optical.des_events", float64(events), "count", "DES events fired by one Stragglers call")
			busy := snap.Gauges["exp.sweep.busy_seconds"]
			r.set("exp.pool_util", busy/(t.wall*float64(nproc())), "ratio",
				fmt.Sprintf("%.4g busy s / (%.4g wall s x %d workers)", busy, t.wall, nproc()))
			pts := mergeHist(snap, "exp.sweep.point.seconds")
			lvl := 1.0 // the maximum, unless a percentile has tailSamples beyond it
			if n := float64(pts.Count); n > tailSamples {
				lvl = min(0.99, (n-tailSamples)/n)
			}
			r.set("exp.point_p99_ms", pts.Quantile(lvl)*1e3, "ms", tailNote(lvl, int(pts.Count), "sweep point latency"))
			return nil
		},
	}
	return r.runBatch(b)
}
