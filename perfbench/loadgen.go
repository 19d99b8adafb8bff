package main

import (
	"bytes"
	"crypto/sha256"
	"io"
	"math"
	"math/rand"
	"net/http"
	"sync"
	"sync/atomic"
	"time"
)

// request is one generated daemon request.
type request struct {
	endpoint string // "build", "simulate", "sweep" or "plan"
	tmpl     int    // index into mixTemplates
	body     []byte
	key      string // endpoint + the request's canonical Key()
}

// sample is one request as the load generator saw it. Times are
// offsets from the start of its segment.
type sample struct {
	req             *request
	due, sent, done time.Duration
	status          int
	// sum is the sha256 of a 200 body (the oracle compares digests, so
	// a run does not hold every response); body keeps any other reply.
	sum  [sha256.Size]byte
	body []byte
	err  error // transport error
	// failed is set when the oracle rejects the response.
	failed bool
}

// ok reports a completed 200 response.
func (s *sample) ok() bool { return s.err == nil && s.status == http.StatusOK }

// latency is the request's latency from its due time in seconds; a
// failed request never meets any limit, so it is infinitely late.
func (s *sample) latency() float64 {
	if s.failed || !s.ok() {
		return math.Inf(1)
	}
	return (s.done - s.due).Seconds()
}

// loadClient sends generated requests to one daemon over at most conns
// connections.
type loadClient struct {
	http *http.Client
	base string
	// span, when set, receives every request's client-side span.
	span func(track, name string, start time.Time, d time.Duration)
}

func newLoadClient(base string, conns int) *loadClient {
	return &loadClient{
		base: base,
		http: &http.Client{
			Transport: &http.Transport{MaxConnsPerHost: conns, MaxIdleConnsPerHost: conns, DisableCompression: true},
			Timeout:   60 * time.Second,
		},
	}
}

func (c *loadClient) close() { c.http.CloseIdleConnections() }

// do sends s.req and fills in the rest of s.
func (c *loadClient) do(s *sample, t0 time.Time) {
	start := time.Now()
	s.sent = start.Sub(t0)
	resp, err := c.http.Post(c.base+"/v1/"+s.req.endpoint, "application/json", bytes.NewReader(s.req.body))
	if err == nil {
		s.status = resp.StatusCode
		var body []byte
		body, err = io.ReadAll(resp.Body)
		resp.Body.Close()
		if s.status == http.StatusOK {
			s.sum = sha256.Sum256(body)
		} else {
			s.body = body
		}
	}
	s.err = err
	s.done = time.Since(t0)
	if c.span != nil {
		c.span("requests", s.req.endpoint, start, s.done-s.sent)
	}
}

// openLoop sends reqs[i] when dues[i] has elapsed, whatever became of
// the earlier requests — independent users — and waits for every
// response. Latency counts from the due time, so a stall delays every
// request queued behind it.
func (c *loadClient) openLoop(reqs []*request, dues []time.Duration) []sample {
	out := make([]sample, len(reqs))
	var wg sync.WaitGroup
	t0 := time.Now()
	for i := range reqs {
		out[i].req, out[i].due = reqs[i], dues[i]
		if d := dues[i] - time.Since(t0); d > 0 {
			time.Sleep(d)
		}
		wg.Add(1)
		go func(s *sample) {
			defer wg.Done()
			c.do(s, t0)
		}(&out[i])
	}
	wg.Wait()
	return out
}

// closedLoop sends reqs from conns callers, each waiting for its reply
// before sending the next, and returns the samples and the elapsed
// time.
func (c *loadClient) closedLoop(reqs []*request, conns int) ([]sample, time.Duration) {
	out := make([]sample, len(reqs))
	var next atomic.Int64
	var wg sync.WaitGroup
	t0 := time.Now()
	wg.Add(conns)
	for k := 0; k < conns; k++ {
		go func() {
			defer wg.Done()
			for {
				i := int(next.Add(1) - 1)
				if i >= len(reqs) {
					return
				}
				s := &out[i]
				s.req = reqs[i]
				s.due = time.Since(t0)
				c.do(s, t0)
			}
		}()
	}
	wg.Wait()
	return out, time.Since(t0)
}

// arrivals returns n Poisson arrival offsets at the given rate,
// conditioned on all n arriving within n/rate seconds, so a segment's
// length and request count do not depend on the seed.
func arrivals(g *rand.Rand, n int, rate float64) []time.Duration {
	at := make([]float64, n)
	var sum float64
	for i := range at {
		sum += g.ExpFloat64()
		at[i] = sum
	}
	scale := float64(n) / rate / (sum + g.ExpFloat64())
	out := make([]time.Duration, n)
	for i, t := range at {
		out[i] = time.Duration(t * scale * float64(time.Second))
	}
	return out
}

// latencies returns every sample's latency from its due time.
func latencies(ss []sample) []float64 {
	out := make([]float64, len(ss))
	for i := range ss {
		out[i] = ss[i].latency()
	}
	return out
}

// backlog counts the requests still outstanding when the last one was
// due; an open loop beyond capacity leaves a backlog that grows with
// the segment.
func backlog(ss []sample) int {
	var last time.Duration
	for _, s := range ss {
		last = max(last, s.due)
	}
	n := 0
	for _, s := range ss {
		if s.done > last {
			n++
		}
	}
	return n
}
