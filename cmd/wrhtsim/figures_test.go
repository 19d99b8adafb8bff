package main

import (
	"bytes"
	"encoding/json"
	"fmt"
	"os"
	"path/filepath"
	"reflect"
	"slices"
	"strings"
	"testing"

	"wrht/internal/api"
	"wrht/internal/exp"
)

// TestFiguresJSON: `wrhtsim -json f.json fig5` writes the figures in
// the api schema, byte-identical across runs (the schema carries no
// timestamp), holding exactly exp.Fig5's figures with their series in
// plot order.
func TestFiguresJSON(t *testing.T) {
	dir := t.TempDir()
	fig5 := func(tag string) []byte {
		t.Helper()
		path := filepath.Join(dir, "fig5-"+tag+".json")
		old := os.Stdout
		null, err := os.OpenFile(os.DevNull, os.O_WRONLY, 0)
		if err != nil {
			t.Fatal(err)
		}
		os.Stdout = null
		code := run(runConfig{cmd: "fig5", granularity: "fused", workers: 1, jsonOut: path})
		os.Stdout = old
		null.Close()
		if code != 0 {
			t.Fatalf("run exited %d", code)
		}
		b, err := os.ReadFile(path)
		if err != nil {
			t.Fatal(err)
		}
		return b
	}
	a, b := fig5("a"), fig5("b")
	if !bytes.Equal(a, b) {
		t.Fatal("fig5 -json differs between identical runs")
	}

	o := exp.Defaults()
	o.Workers = 1
	r, err := exp.Fig5(o)
	if err != nil {
		t.Fatal(err)
	}
	want := api.FiguresResponse{Version: api.Version}
	for i, f := range r.Figures {
		want.Figures = append(want.Figures, api.FigureFrom(fmt.Sprintf("fig5-%d", i), f))
	}
	for _, raw := range [][]byte{a, b} {
		var got api.FiguresResponse
		dec := json.NewDecoder(bytes.NewReader(raw))
		dec.DisallowUnknownFields()
		if err := dec.Decode(&got); err != nil {
			t.Fatalf("not an api.FiguresResponse: %v\n%s", err, raw)
		}
		if !reflect.DeepEqual(got, want) {
			t.Fatalf("figures document differs from exp.Fig5:\n got %+v\nwant %+v", got, want)
		}
		for _, f := range got.Figures {
			var names []string
			for _, s := range f.Series {
				names = append(names, s.Name)
			}
			if plot := []string{"Ring", "H-Ring", "BT", "WRHT"}; !slices.Equal(names, plot) {
				t.Errorf("%s: series %v, want plot order %v", f.Name, names, plot)
			}
		}
	}
}

// TestJSONRejectedWithoutDocument: -json on a subcommand that writes no
// JSON document (or on build's memory report) exits 2 before running
// anything, names the subcommands that do write JSON, and creates no
// file.
func TestJSONRejectedWithoutDocument(t *testing.T) {
	dir := t.TempDir()
	for _, cmd := range []string{"table1", "stragglers", "extras", "constraints", "hybrid", "crossover", "schedule", "build -memstats"} {
		name, memstats := strings.CutSuffix(cmd, " -memstats")
		path := filepath.Join(dir, name+".json")
		stderr := filepath.Join(dir, name+".stderr")
		f, err := os.Create(stderr)
		if err != nil {
			t.Fatal(err)
		}
		old := os.Stderr
		os.Stderr = f
		code := run(runConfig{cmd: name, granularity: "fused", workers: 1, jsonOut: path, memstats: memstats, n: 64, w: 8})
		os.Stderr = old
		f.Close()
		if code != 2 {
			t.Errorf("%s -json: exit %d, want 2", cmd, code)
		}
		if _, err := os.Stat(path); !os.IsNotExist(err) {
			t.Errorf("%s -json: %s exists (stat err %v)", cmd, path, err)
		}
		msg, err := os.ReadFile(stderr)
		if err != nil {
			t.Fatal(err)
		}
		for _, c := range jsonCommands {
			if !bytes.Contains(msg, []byte(c)) {
				t.Errorf("%s -json: message %q does not name %s", cmd, msg, c)
			}
		}
	}
}
