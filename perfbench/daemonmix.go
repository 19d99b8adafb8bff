package main

import (
	"bytes"
	"context"
	"crypto/sha256"
	"encoding/json"
	"fmt"
	"io"
	"math"
	"math/rand"
	"net"
	"net/http"
	"runtime"
	"strings"
	"time"

	"wrht"
	"wrht/internal/api"
	"wrht/internal/daemon"
	"wrht/internal/obs"
)

// The daemon-mix offered load, fixed so that a faster daemon cannot
// change its own offered load. It was set once from --calibrate on a
// 2-CPU host: about 1000 requests/s closed-loop with nproc connections,
// and about 1400 requests/s served open-loop before the backlog grows.
// The fixed rate is the ladder's first rung; 750 requests/s passes the
// latency limit with a wide margin and 2000 requests/s fails it on
// backlog, so goodput_rps reads the same rung run after run.
const (
	fixedRate = 250.0
	// sloSeconds is the latency limit on the ladder's tail percentile.
	sloSeconds = 0.100
	// mixPassRequests is the size of the closed-loop pass behind wall_s
	// and alloc_mb: fresh requests only, every template equally often.
	mixPassRequests = 1000
)

// ladderRates are the offered rates above fixedRate that goodput_rps
// is searched over.
var ladderRates = []float64{750, 2000}

// keyer is what every API request type provides.
type keyer interface{ Key() string }

// template is one request shape of the mix; a fresh instance varies it
// with the generator's RNG, so its key is new.
type template struct {
	endpoint string
	make     func(g *rand.Rand) keyer
}

// around returns base scaled by a random factor within ±1%, rounded to
// places decimals.
func around(g *rand.Rand, base float64, places int) float64 {
	p := math.Pow(10, float64(places))
	return math.Round(base*(1+0.02*(g.Float64()-0.5))*p) / p
}

func buildTmpl(kind string, n, w int, stream bool) template {
	return template{"build", func(g *rand.Rand) keyer {
		return api.BuildRequest{Kind: kind, N: n + g.Intn(64), Wavelengths: w, Stream: stream}
	}}
}

func simTmpl(backend, kind string, n, w int, overlap bool, payload float64) template {
	return template{"simulate", func(g *rand.Rand) keyer {
		return api.SimulateRequest{
			Backend: backend, Overlap: overlap, PayloadBytes: around(g, payload, 0),
			Build: api.BuildRequest{Kind: kind, N: n, Wavelengths: w},
		}
	}}
}

// mixTemplates is the daemon-mix catalogue: builds and simulates that
// run off the pool and sweeps and plans queued on it, with no ring
// schedule above N=256. Builds vary N over 64 consecutive sizes.
var mixTemplates = []template{
	buildTmpl("wrht", 64, 8, false),
	buildTmpl("wrht", 128, 16, false),
	buildTmpl("wrht", 192, 64, false),
	buildTmpl("ring", 64, 0, false),
	buildTmpl("bt", 192, 0, false),
	buildTmpl("wrht", 192, 16, true),
	simTmpl("optical", "wrht", 64, 8, false, 25e6),
	simTmpl("optical", "wrht", 128, 16, true, 100e6),
	simTmpl("optical", "wrht", 256, 64, true, 10e6),
	simTmpl("optical", "ring", 64, 0, false, 25e6),
	simTmpl("optical", "bt", 128, 0, false, 25e6),
	simTmpl("electrical", "wrht", 128, 16, false, 25e6),
	simTmpl("electrical", "bt", 256, 0, false, 100e6),
	simTmpl("electrical", "ring", 64, 0, false, 10e6),
	simTmpl("electrical", "wrht", 256, 64, false, 1e6),
	{"sweep", func(g *rand.Rand) keyer {
		return api.SweepRequest{Sweep: "crossfabric", N: 32, Wavelengths: 8, PayloadMB: around(g, 25, 3)}
	}},
	{"sweep", func(g *rand.Rand) keyer {
		return api.SweepRequest{Sweep: "overlap", Ns: []int{128}, Wavelengths: 8, PayloadMB: around(g, 25, 3)}
	}},
	{"sweep", func(g *rand.Rand) keyer {
		return api.SweepRequest{Sweep: "faults", Ns: []int{64}, Wavelengths: 16, PayloadMB: 25,
			Dead: []int{0, 1, 2}, Seed: 1 + g.Int63n(1000)}
	}},
	{"plan", func(g *rand.Rand) keyer {
		return api.PlanRequest{Rs: []int{4}, Wavelengths: 8, AMicros: []float64{25}, PayloadMB: around(g, 5, 4), NoRescue: true}
	}},
	{"plan", func(g *rand.Rand) keyer {
		return api.PlanRequest{Rs: []int{4, 8}, Wavelengths: 8, AMicros: []float64{25, 250}, PayloadMB: around(g, 5, 4), NoRescue: true}
	}},
}

// repeatShare is the share of requests that deliberately repeat one of
// the last repeatWindow requests, which is where coalescing can happen.
// Fresh builds repeat too, having 64 sizes per template, so over a
// run's first few thousand requests about a third repeat a key.
const (
	repeatShare  = 0.15
	repeatWindow = 8
)

// genMix generates n requests of the named stream: every template once
// per block, in seeded order, each slot replaced by a repeat of a
// recent request with probability repeat.
func genMix(seed int64, stream string, n int, repeat float64) ([]*request, error) {
	g := rand.New(rand.NewSource(deriveSeed(seed, stream)))
	out := make([]*request, 0, n+len(mixTemplates))
	for len(out) < n {
		for _, ti := range g.Perm(len(mixTemplates)) {
			if len(out) >= repeatWindow && g.Float64() < repeat {
				out = append(out, out[len(out)-1-g.Intn(repeatWindow)])
				continue
			}
			t := mixTemplates[ti]
			v := t.make(g)
			body, err := json.Marshal(v)
			if err != nil {
				return nil, err
			}
			out = append(out, &request{endpoint: t.endpoint, tmpl: ti, body: body, key: t.endpoint + "\x00" + v.Key()})
		}
	}
	return out[:n], nil
}

// decodeStrict decodes a request body the way the daemon does.
func decodeStrict(body []byte, v any) error {
	dec := json.NewDecoder(bytes.NewReader(body))
	dec.DisallowUnknownFields()
	return dec.Decode(v)
}

// expected is the oracle's answer for one request key: the direct
// executor's encoded result, with the cost of producing it.
type expected struct {
	sum   [sha256.Size]byte // of the encoded result
	sim   float64           // simulated completion time, simulate requests only
	exec  float64           // seconds in the executor call
	codec float64           // seconds decoding, keying and encoding
}

// direct runs one request through the executor the daemon calls for
// its endpoint, timing the executor and the codec work separately.
func direct(req *request) (*expected, error) {
	var e expected
	start := time.Now()
	var v keyer
	var run func() (any, *api.Error)
	switch req.endpoint {
	case "build":
		var r api.BuildRequest
		v, run = &r, func() (any, *api.Error) { return wrht.ServeBuild(r) }
	case "simulate":
		var r api.SimulateRequest
		v, run = &r, func() (any, *api.Error) {
			resp, aerr := wrht.ServeSimulate(r)
			if aerr == nil {
				e.sim = resp.Result.Time
			}
			return resp, aerr
		}
	case "sweep":
		var r api.SweepRequest
		v, run = &r, func() (any, *api.Error) {
			resp, _, aerr := api.RunSweep(expOptions(nil), r)
			return resp, aerr
		}
	case "plan":
		var r api.PlanRequest
		v, run = &r, func() (any, *api.Error) {
			resp, _, aerr := api.RunPlan(expOptions(nil), r)
			return resp, aerr
		}
	default:
		return nil, fmt.Errorf("unknown endpoint %q", req.endpoint)
	}
	if err := decodeStrict(req.body, v); err != nil {
		return nil, err
	}
	v.Key()
	e.codec = time.Since(start).Seconds()
	start = time.Now()
	resp, aerr := run()
	e.exec = time.Since(start).Seconds()
	if aerr != nil {
		return nil, aerr
	}
	start = time.Now()
	var b bytes.Buffer
	if err := api.Encode(&b, resp); err != nil {
		return nil, err
	}
	e.codec += time.Since(start).Seconds()
	e.sum = sha256.Sum256(b.Bytes())
	return &e, nil
}

// oracle caches the direct executor's answer per request key.
type oracle struct {
	want map[string]*expected
	errs map[string]error
	// span, when set, receives every direct executor call.
	span func(track, name string, start time.Time, d time.Duration)
}

func newOracle() *oracle {
	return &oracle{want: map[string]*expected{}, errs: map[string]error{}}
}

func (o *oracle) lookup(req *request) (*expected, error) {
	if e, ok := o.want[req.key]; ok {
		return e, nil
	}
	if err, ok := o.errs[req.key]; ok {
		return nil, err
	}
	start := time.Now()
	e, err := direct(req)
	if o.span != nil {
		o.span("direct", req.endpoint, start, time.Since(start))
	}
	if err != nil {
		o.errs[req.key] = err
		return nil, err
	}
	o.want[req.key] = e
	return e, nil
}

// verify checks one sample: a 200 whose body is byte-equal to the
// direct executor's encoded result.
func (o *oracle) verify(s *sample) error {
	switch {
	case s.err != nil:
		return fmt.Errorf("transport: %w", s.err)
	case s.status != http.StatusOK:
		return fmt.Errorf("status %d: %s", s.status, bytes.TrimSpace(s.body))
	}
	want, err := o.lookup(s.req)
	if err != nil {
		return fmt.Errorf("direct executor: %w", err)
	}
	if s.sum != want.sum {
		return fmt.Errorf("body differs from the direct executor's")
	}
	return nil
}

// served is one running daemon on a loopback listener.
type served struct {
	srv    *daemon.Server
	http   *http.Server
	done   chan struct{}
	client *loadClient
}

func startDaemon(reg *obs.Registry) (*served, error) {
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		return nil, err
	}
	d := &served{
		srv:  daemon.New(daemon.Config{Workers: nproc(), Registry: reg}),
		done: make(chan struct{}),
	}
	d.http = &http.Server{Handler: d.srv.Handler()}
	go func() {
		defer close(d.done)
		// Serve returns http.ErrServerClosed once stop shuts it down.
		_ = d.http.Serve(ln)
	}()
	d.client = newLoadClient("http://"+ln.Addr().String(), nproc())
	return d, nil
}

// stop drains the HTTP server, then the daemon, and waits for both.
func (d *served) stop() {
	d.client.close()
	ctx, cancel := context.WithTimeout(context.Background(), 10*time.Second)
	defer cancel()
	if err := d.http.Shutdown(ctx); err != nil {
		d.http.Close() // the drain timed out: drop what is left
	}
	<-d.done
	d.srv.Close()
}

// mixRun is one daemon-mix run's state.
type mixRun struct {
	r      *runner
	reg    *obs.Registry // daemon.Config.Registry on traced runs
	d      *served
	pass   []*request // the closed-loop pass
	mix    []*request // the open-loop stream
	oracle *oracle
	g      *rand.Rand // arrival times
	next   int        // first mix request no segment has used
}

// setup starts a fresh daemon, generates the seeded mix and warms the
// connections and code paths with one closed-loop pass over the first
// requests.
func (m *mixRun) setup(total int) error {
	if m.d != nil {
		m.d.stop()
	}
	d, err := startDaemon(m.reg)
	if err != nil {
		return err
	}
	m.d = d
	if m.pass, err = genMix(m.r.seed, "closed-pass", mixPassRequests, 0); err != nil {
		return err
	}
	if m.mix, err = genMix(m.r.seed, "daemon-mix", total, repeatShare); err != nil {
		return err
	}
	m.g = rand.New(rand.NewSource(deriveSeed(m.r.seed, "arrivals")))
	m.next = 0
	ss, _ := m.d.client.closedLoop(m.pass[:len(mixTemplates)], nproc())
	for i := range ss {
		if !ss[i].ok() {
			return fmt.Errorf("warm-up request failed: status %d, %v", ss[i].status, ss[i].err)
		}
	}
	return nil
}

// check verifies and counts every sample, marking the failed ones.
func (m *mixRun) check(ss []sample) {
	for i := range ss {
		err := m.oracle.verify(&ss[i])
		ss[i].failed = err != nil
		m.r.record("daemon "+ss[i].req.endpoint, err)
	}
}

// segment offers the next n mix requests open-loop at rate and checks
// the responses.
func (m *mixRun) segment(rate float64, seconds float64) []sample {
	runtime.GC()
	n := max(1, int(rate*seconds))
	reqs := m.mix[m.next : m.next+n]
	m.next += n
	ss := m.d.client.openLoop(reqs, arrivals(m.g, n, rate))
	m.check(ss)
	return ss
}

// closedPass replays the closed-loop pass and returns its wall time
// and allocation.
func (m *mixRun) closedPass() (wall, alloc float64) {
	runtime.GC()
	a0 := allocated()
	ss, d := m.d.client.closedLoop(m.pass, nproc())
	alloc = float64(allocated() - a0)
	m.check(ss)
	return d.Seconds(), alloc
}

// mixSize bounds how many requests a run of budget seconds can use.
func mixSize(budget float64) int {
	return int(budget*(fixedShare*fixedRate+rungShare*sumRates())) + 1 + len(ladderRates)
}

func sumRates() float64 {
	var s float64
	for _, r := range ladderRates {
		s += r
	}
	return s
}

// Shares of the time budget: the fixed-rate segment, each ladder rung
// above it, and the closed-loop passes.
const (
	fixedShare  = 0.5
	rungShare   = 0.1
	closedShare = 0.2
)

// rung is one offered rate of the ladder: its tail latency, backlog and
// the rate it achieved.
type rung struct {
	rate, tail, level, achieved float64
	n, backlog                  int
	pass                        bool
}

// rungOf judges one open-loop segment against the latency limit: the
// tail percentile at or below sloSeconds and no growing backlog (at
// most max(10, n/20) requests outstanding when the last one was due).
func rungOf(rate float64, ss []sample) rung {
	rg := rung{rate: rate, n: len(ss), backlog: backlog(ss)}
	rg.tail, rg.level = tail(latencies(ss))
	var last time.Duration
	good := 0
	for i := range ss {
		if ss[i].latency() < math.Inf(1) {
			good++
		}
		last = max(last, ss[i].done)
	}
	rg.achieved = float64(good) / (last - ss[0].due).Seconds()
	rg.pass = rg.tail <= sloSeconds && rg.backlog <= max(10, rg.n/20)
	return rg
}

func daemonMix(r *runner) error {
	m := &mixRun{r: r, oracle: newOracle()}
	if r.traced {
		m.reg = obs.NewRegistry()
	}
	budget := r.budget.Seconds()
	setup, err := r.timeSetup(func() error { return m.setup(mixSize(budget)) })
	if err != nil {
		return err
	}
	defer m.d.stop()
	if r.traced {
		return m.runTraced(budget)
	}
	hw := watchHeap()
	var walls, allocs []float64
	closedEnd := time.Now().Add(time.Duration(closedShare * budget * float64(time.Second)))
	for len(walls) == 0 || time.Now().Before(closedEnd) {
		w, a := m.closedPass()
		walls = append(walls, w)
		allocs = append(allocs, a)
	}
	fixed := m.segment(fixedRate, fixedShare*budget)
	rungs := []rung{rungOf(fixedRate, fixed)}
	for _, rate := range ladderRates {
		rungs = append(rungs, rungOf(rate, m.segment(rate, rungShare*budget)))
	}
	peak := hw.Stop()

	var goodput float64
	for _, rg := range rungs {
		fmt.Fprintf(r.out, "  ladder %6.0f rps: %.4g rps achieved, p%.4g %.4g ms (n=%d), backlog %d, pass=%v\n",
			rg.rate, rg.achieved, rg.level*100, rg.tail*1e3, rg.n, rg.backlog, rg.pass)
		if rg.pass {
			goodput = rg.achieved
		}
	}
	r.set("setup_s", setup, "s", fmt.Sprintf("median of %d set-ups", setupReps))
	r.set("wall_s", median(walls), "s", fmt.Sprintf("closed-loop pass of %d requests, median of %d", mixPassRequests, len(walls)))
	r.set("alloc_mb", median(allocs)/1e6, "MB", fmt.Sprintf("per closed-loop pass, median of %d", len(allocs)))
	r.set("peak_heap_mb", float64(peak)/1e6, "MB", "peak live heap over the measured phase")
	sims, ntmpl := m.simGeomean(fixed)
	r.set("sim_ms", sims*1e3, "ms", fmt.Sprintf("geomean over %d simulate templates of their distinct requests", ntmpl))
	lat := latencies(fixed)
	r.set("p50_ms", median(lat)*1e3, "ms", fmt.Sprintf("from due time at %.0f rps, n=%d", fixedRate, len(lat)))
	tv, lvl := tail(lat)
	r.set("p99_ms", tv*1e3, "ms", tailNote(lvl, len(lat), fmt.Sprintf("from due time at %.0f rps", fixedRate)))
	r.set("goodput_rps", goodput, "1/s", fmt.Sprintf("achieved at the highest of %d ladder rates meeting the limit of %.0f ms", len(rungs), sloSeconds*1e3))
	return nil
}

// simGeomean is sim_ms for the mix: the geometric mean, across simulate
// templates, of the geometric mean of each template's distinct
// requests, so the seeded composition of the mix does not move it.
func (m *mixRun) simGeomean(ss []sample) (float64, int) {
	byTmpl := map[int][]float64{}
	seen := map[string]bool{}
	for i := range ss {
		req := ss[i].req
		if req.endpoint != "simulate" || seen[req.key] {
			continue
		}
		seen[req.key] = true
		if e, ok := m.oracle.want[req.key]; ok {
			byTmpl[req.tmpl] = append(byTmpl[req.tmpl], e.sim)
		}
	}
	var per []float64
	for _, sims := range byTmpl {
		per = append(per, geomean(sims))
	}
	return geomean(per), len(per)
}

// runTraced is the traced daemon-mix run: closed-loop passes alternating
// untraced and traced (for the overhead), then a traced fixed-rate
// segment whose requests the layer metrics decompose.
func (m *mixRun) runTraced(budget float64) error {
	r := m.r
	m.oracle.span = r.span
	var plain, tr []float64
	closedEnd := time.Now().Add(time.Duration(2 * closedShare * budget * float64(time.Second)))
	for len(tr) == 0 || time.Now().Before(closedEnd) {
		w, _ := m.closedPass()
		plain = append(plain, w)
		m.d.client.span = r.span
		w, _ = m.closedPass()
		m.d.client.span = nil
		tr = append(tr, w)
	}
	before := m.reg.Snapshot()
	m.d.client.span = r.span
	fixed := m.segment(fixedRate, fixedShare*budget)
	m.d.client.span = nil
	after := m.reg.Snapshot()

	r.set("trace.overhead_s", median(tr)-median(plain), "s",
		fmt.Sprintf("traced %.4g s (n=%d) - untraced %.4g s (n=%d) closed-loop pass", median(tr), len(tr), median(plain), len(plain)))
	execs := map[string][]float64{}
	var codec float64
	for key, e := range m.oracle.want {
		ep := key[:strings.IndexByte(key, 0)]
		execs[ep] = append(execs[ep], e.exec)
		codec += e.codec
	}
	for _, ep := range []string{"build", "simulate", "sweep", "plan"} {
		r.set("api.exec_ms."+ep, median(execs[ep])*1e3, "ms", fmt.Sprintf("direct executor, median of %d distinct requests", len(execs[ep])))
	}
	r.set("api.codec_us", codec/float64(max(len(m.oracle.want), 1))*1e6, "us",
		fmt.Sprintf("strict decode + Key + api.Encode, mean of %d distinct requests", len(m.oracle.want)))

	srvBefore, srvAfter := mergeHist(before, "api.request.seconds"), mergeHist(after, "api.request.seconds")
	nServed := float64(srvAfter.Count - srvBefore.Count)
	server := (srvAfter.Sum - srvBefore.Sum) / nServed
	var exec, client, lag []float64
	for i := range fixed {
		s := &fixed[i]
		if e, ok := m.oracle.want[s.req.key]; ok {
			exec = append(exec, e.exec)
		}
		client = append(client, (s.done - s.sent).Seconds())
		lag = append(lag, (s.sent - s.due).Seconds())
	}
	r.set("daemon.wait_ms", (server-mean(exec))*1e3, "ms",
		fmt.Sprintf("api.request.seconds mean %.4g ms - direct executor mean %.4g ms, n=%.0f", server*1e3, mean(exec)*1e3, nServed))
	r.set("daemon.client_ms", (mean(client)-server)*1e3, "ms", fmt.Sprintf("client latency from send - server time, n=%d", len(client)))
	hits := counterSum(after, "api.coalesce.hits") - counterSum(before, "api.coalesce.hits")
	reqs := counterSum(after, "api.requests") - counterSum(before, "api.requests")
	r.set("daemon.coalesce_hit_ratio", float64(hits)/float64(max(reqs, 1)), "ratio", fmt.Sprintf("%d of %d requests joined an execution", hits, reqs))
	lv, ll := tail(lag)
	r.set("gen.lag_p99_ms", lv*1e3, "ms", tailNote(ll, len(lag), "send time - due time"))
	return nil
}

// calibrateDaemon measures closed-loop capacity with nproc connections
// over the seeded mix — the measurement the fixed rate and the ladder
// were derived from.
func calibrateDaemon(out io.Writer, seed int64, seconds float64) error {
	d, err := startDaemon(nil)
	if err != nil {
		return err
	}
	defer d.stop()
	mix, err := genMix(seed, "closed-pass", 1000, 0)
	if err != nil {
		return err
	}
	var done int
	var elapsed time.Duration
	for elapsed.Seconds() < seconds {
		ss, d := d.client.closedLoop(mix, nproc())
		for i := range ss {
			if !ss[i].ok() {
				return fmt.Errorf("request failed: status %d, %v", ss[i].status, ss[i].err)
			}
		}
		done += len(ss)
		elapsed += d
	}
	fmt.Fprintf(out, "closed-loop capacity with %d connections: %.1f requests/s (%d requests in %.2f s)\n",
		nproc(), float64(done)/elapsed.Seconds(), done, elapsed.Seconds())
	return nil
}
