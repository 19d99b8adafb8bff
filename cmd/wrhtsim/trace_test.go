package main

import (
	"bytes"
	"encoding/json"
	"os"
	"path/filepath"
	"strconv"
	"strings"
	"testing"
)

// traceRun drives run() the way CI does, capturing the trace and the
// -prom exposition for one crossfabric invocation.
func traceRun(t *testing.T, dir, tag string) (trace, prom []byte) {
	t.Helper()
	tracePath := filepath.Join(dir, "trace-"+tag+".json")
	promPath := filepath.Join(dir, "metrics-"+tag+".prom")
	old := os.Stdout
	null, err := os.OpenFile(os.DevNull, os.O_WRONLY, 0)
	if err != nil {
		t.Fatal(err)
	}
	os.Stdout = null
	code := run(runConfig{
		cmd:         "crossfabric",
		granularity: "fused",
		workers:     1,
		n:           64,
		w:           64,
		payloadMB:   10,
		tracePath:   tracePath,
		promPath:    promPath,
	})
	os.Stdout = old
	null.Close()
	if code != 0 {
		t.Fatalf("run exited %d", code)
	}
	trace, err = os.ReadFile(tracePath)
	if err != nil {
		t.Fatal(err)
	}
	prom, err = os.ReadFile(promPath)
	if err != nil {
		t.Fatal(err)
	}
	return trace, prom
}

// promValue returns the value of the unlabeled sample name in a
// Prometheus text exposition, or -1 when the sample is absent.
func promValue(t *testing.T, prom []byte, name string) float64 {
	t.Helper()
	for _, line := range strings.Split(string(prom), "\n") {
		if v, ok := strings.CutPrefix(line, name+" "); ok {
			f, err := strconv.ParseFloat(v, 64)
			if err != nil {
				t.Fatalf("sample %q: %v", line, err)
			}
			return f
		}
	}
	return -1
}

// TestCrossFabricTraceValidates is the CI gate for `wrhtsim -trace`: the
// N=64 w=64 crossfabric run must emit Perfetto-loadable JSON containing
// every span phase the fabric observer defines, and be byte-identical
// across runs (the trace is a pure function of the simulated timeline).
func TestCrossFabricTraceValidates(t *testing.T) {
	dir := t.TempDir()
	raw, prom := traceRun(t, dir, "a")

	var doc struct {
		DisplayTimeUnit string `json:"displayTimeUnit"`
		TraceEvents     []struct {
			Name string `json:"name"`
			Ph   string `json:"ph"`
		} `json:"traceEvents"`
	}
	if err := json.Unmarshal(raw, &doc); err != nil {
		t.Fatalf("trace is not valid JSON: %v", err)
	}
	if doc.DisplayTimeUnit != "ms" {
		t.Errorf("displayTimeUnit = %q, want ms", doc.DisplayTimeUnit)
	}
	spans := map[string]bool{}
	for _, ev := range doc.TraceEvents {
		if ev.Ph == "X" {
			spans[ev.Name] = true
		}
	}
	for _, want := range []string{
		"reduce", "broadcast",
		"reconfig", "reconfig (overlap-hidden)",
		"serialization", "oeo", "router-delay",
	} {
		if !spans[want] {
			t.Errorf("trace missing %q span", want)
		}
	}

	// fabric_overlap_boundaries_hidden is non-zero only because w=64
	// leaves WRHT's boundaries circuit-disjoint.
	for _, name := range []string{"fabric_steps", "fabric_circuits_reserved", "fabric_overlap_boundaries_hidden"} {
		if v := promValue(t, prom, name); v <= 0 {
			t.Errorf("%s = %g in the -prom exposition, want > 0", name, v)
		}
	}

	again, _ := traceRun(t, dir, "b")
	if !bytes.Equal(raw, again) {
		t.Fatal("crossfabric trace differs between identical runs")
	}
}
