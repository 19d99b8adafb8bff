package main

import (
	"crypto/sha256"
	"io"
	"math"
	"net/http"
	"net/http/httptest"
	"strings"
	"sync/atomic"
	"testing"
	"time"
)

// TestOpenLoopTimesFromDueTime stalls a fake server on its first
// request: an open loop must keep the later requests' schedule, and
// their latency, counted from the due time, must include the wait
// behind the stall.
func TestOpenLoopTimesFromDueTime(t *testing.T) {
	const stall = 300 * time.Millisecond
	var calls atomic.Int64
	ts := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		if calls.Add(1) == 1 {
			time.Sleep(stall)
		}
		io.WriteString(w, "{}")
	}))
	defer ts.Close()
	c := newLoadClient(ts.URL, 1)
	defer c.close()

	const n = 10
	reqs := make([]*request, n)
	dues := make([]time.Duration, n)
	for i := range reqs {
		reqs[i] = &request{endpoint: "build", body: []byte("{}")}
		dues[i] = time.Duration(i) * 10 * time.Millisecond
	}
	ss := c.openLoop(reqs, dues)
	last := ss[n-1]
	if !last.ok() {
		t.Fatalf("last request failed: status %d, %v", last.status, last.err)
	}
	if late := last.sent - last.due; late > 50*time.Millisecond {
		t.Errorf("generator sent the last request %v late; an open loop must not wait for the stall", late)
	}
	if lat := last.latency(); lat < (stall - dues[n-1]).Seconds() {
		t.Errorf("last request latency %.3f s hides the %v stall it queued behind", lat, stall)
	}
}

// TestFailRatioCountsEveryFailure checks that a non-200 response, a
// transport error and a wrong body each count as one failed operation.
func TestFailRatioCountsEveryFailure(t *testing.T) {
	ts := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		switch strings.TrimPrefix(r.URL.Path, "/v1/") {
		case "refused":
			http.Error(w, "no", http.StatusServiceUnavailable)
		case "hangup":
			conn, _, err := w.(http.Hijacker).Hijack()
			if err == nil {
				conn.Close()
			}
		case "wrong":
			io.WriteString(w, "not what the executor says\n")
		default:
			io.WriteString(w, "right\n")
		}
	}))
	defer ts.Close()
	c := newLoadClient(ts.URL, 1)
	defer c.close()

	o := newOracle()
	var reqs []*request
	for _, ep := range []string{"ok", "refused", "hangup", "wrong"} {
		req := &request{endpoint: ep, key: ep}
		o.want[ep] = &expected{sum: sha256.Sum256([]byte("right\n"))}
		reqs = append(reqs, req)
	}
	ss, _ := c.closedLoop(reqs, 1)
	r := &runner{workload: "test", out: io.Discard, errs: io.Discard, metrics: map[string]metric{}}
	m := &mixRun{r: r, oracle: o}
	m.check(ss)
	if r.attempted != 4 || r.failed != 3 {
		t.Errorf("attempted %d, failed %d; want 4 attempted, 3 failed", r.attempted, r.failed)
	}
	for _, s := range ss {
		if s.req.endpoint != "ok" && !math.IsInf(s.latency(), 1) {
			t.Errorf("%s: latency %g, a failed request must miss every limit", s.req.endpoint, s.latency())
		}
	}
}
