package main

import (
	"bytes"
	"encoding/json"
	"fmt"
	"time"

	"wrht"
	"wrht/internal/api"
	"wrht/internal/core"
	"wrht/internal/exp"
	"wrht/internal/fabric"
	"wrht/internal/rwa"
)

// The at-scale construction path: a WRHT ring of 2^20 nodes on 64
// wavelengths, whose schedule has streamSteps steps and
// streamTransfers transfers.
const (
	streamN, streamW = 1 << 20, 64
	streamSteps      = 6
	streamTransfers  = 2097150
)

// timedSource wraps a StepSource, timing Next and counting what it
// yields.
type timedSource struct {
	core.StepSource
	next             time.Duration
	steps, transfers int
}

func (s *timedSource) Next() (*core.Step, bool) {
	start := time.Now()
	st, ok := s.StepSource.Next()
	s.next += time.Since(start)
	if ok {
		s.steps++
		s.transfers += len(st.Transfers)
	}
	return st, ok
}

func streamConfig() core.Config { return core.Config{N: streamN, Wavelengths: streamW} }

// streamFabric is the optical ring the stream is timed on, with the
// schedule's wavelength budget.
func streamFabric(o exp.Options) (fabric.Fabric, error) {
	p := o.Optical
	p.Wavelengths = streamW
	return p.Fabric()
}

// encode renders an API response as the daemon and CLI serialize it.
func encode(v any) (string, error) {
	var b bytes.Buffer
	if err := api.Encode(&b, v); err != nil {
		return "", err
	}
	return b.String(), nil
}

// checkStreamBuild is the oracle of the streamed build response.
func checkStreamBuild(r *api.BuildResponse) error {
	if r.N != streamN || r.Steps != streamSteps || r.Transfers != streamTransfers || !r.Validated || !r.Streamed {
		return fmt.Errorf("build response N=%d steps=%d transfers=%d validated=%v streamed=%v, want N=%d steps=%d transfers=%d validated streamed",
			r.N, r.Steps, r.Transfers, r.Validated, r.Streamed, streamN, streamSteps, streamTransfers)
	}
	return nil
}

// checkStreamRun is the oracle of the streamed engine run: the stream
// has the expected shape, the total is the sum of the visible step
// durations in engine order, and overlap hid at most one setup per
// boundary.
func checkStreamRun(res fabric.Result, steps, transfers int, setup float64) error {
	if res.Steps != streamSteps || steps != streamSteps || transfers != streamTransfers {
		return fmt.Errorf("engine saw %d steps (stream yielded %d, %d transfers), want %d steps, %d transfers",
			res.Steps, steps, transfers, streamSteps, streamTransfers)
	}
	var total float64
	for _, sr := range res.PerStep {
		total += sr.Cost.Total - sr.Overlapped
	}
	if total != res.Time {
		return fmt.Errorf("time %.12g s is not the sum of its steps %.12g s", res.Time, total)
	}
	if res.OverlapSaved > float64(res.Steps-1)*setup {
		return fmt.Errorf("overlap hid %.9g s, more than (steps-1)·a = %.9g s", res.OverlapSaved, float64(res.Steps-1)*setup)
	}
	return nil
}

// simSplit is the simulated-time breakdown of a set of engine runs:
// setup, serialization, O-E-O and router time, plus the setup hidden
// by overlap.
type simSplit struct{ setup, serialization, oeo, router, hidden float64 }

func (s *simSplit) add(r fabric.Result) {
	s.setup += r.OverheadTime
	s.router += r.RouterTime
	s.hidden += r.OverlapSaved
	for _, sr := range r.PerStep {
		s.serialization += sr.Cost.Serialization
		s.oeo += sr.Cost.OEO
	}
}

func (r *runner) setSimSplit(s simSplit, note string) {
	r.set("sim.setup_ms", s.setup*1e3, "ms", note)
	r.set("sim.serialization_ms", s.serialization*1e3, "ms", note)
	r.set("sim.oeo_ms", s.oeo*1e3, "ms", note)
	r.set("sim.router_ms", s.router*1e3, "ms", note)
	r.set("sim.hidden_setup_ms", s.hidden*1e3, "ms", note)
}

func streamOps(payload float64) []op {
	return []op{
		{"wrht.ServeBuild", func(e *env) (opOut, error) {
			resp, aerr := wrht.ServeBuild(api.BuildRequest{Kind: "wrht", N: streamN, Wavelengths: streamW, Stream: true})
			if aerr != nil {
				return opOut{}, aerr
			}
			text, err := encode(resp)
			return opOut{text: text, check: func() error { return checkStreamBuild(resp) }}, err
		}},
		{"fabric.Engine.RunStream", func(e *env) (opOut, error) {
			fab, err := streamFabric(e.opts)
			if err != nil {
				return opOut{}, err
			}
			src, err := core.StreamWRHT(streamConfig())
			if err != nil {
				return opOut{}, err
			}
			ts := &timedSource{StepSource: src}
			eng := fabric.Engine{Fabric: fab, Opts: fabric.Options{ValidateWavelengths: true, Overlap: true, RWAStats: e.stats}}
			res, err := eng.RunStream(ts, payload)
			if err != nil {
				return opOut{}, err
			}
			text, err := json.Marshal(res)
			setup := e.opts.Optical.ReconfigDelay
			return opOut{
				text:  string(text),
				sims:  []float64{res.Time},
				check: func() error { return checkStreamRun(res, ts.steps, ts.transfers, setup) },
			}, err
		}},
	}
}

// streamLayers splits the streamed path by layer with extra runs made
// after the traced passes: construction (Next) and validation
// (StepValidator.Step) on their own, engine timing as RunStream without
// validation minus its Next time, and the per-node live heap.
func streamLayers(r *runner, t *traced, payload float64) error {
	o := expOptions(nil)
	src, err := core.StreamWRHT(streamConfig())
	if err != nil {
		return err
	}
	ts := &timedSource{StepSource: src}
	v := core.NewStepValidator(src.Ring(), rwa.NewIndex(src.Ring()), streamW)
	var validate time.Duration
	for {
		st, ok := ts.Next()
		if !ok {
			break
		}
		start := time.Now()
		err := v.Step(st)
		validate += time.Since(start)
		if err != nil {
			return fmt.Errorf("validating the stream: %w", err)
		}
	}
	r.set("core.next_s", ts.next.Seconds(), "s", fmt.Sprintf("StepSource.Next over %d steps", ts.steps))
	r.set("rwa.validate_s", validate.Seconds(), "s", "StepValidator.Step over the same steps")

	fab, err := streamFabric(o)
	if err != nil {
		return err
	}
	src, err = core.StreamWRHT(streamConfig())
	if err != nil {
		return err
	}
	ts = &timedSource{StepSource: src}
	start := time.Now()
	res, err := fabric.Engine{Fabric: fab, Opts: fabric.Options{Overlap: true}}.RunStream(ts, payload)
	if err != nil {
		return err
	}
	r.set("fabric.time_s", (time.Since(start) - ts.next).Seconds(), "s", "RunStream without validation, minus its Next time")
	r.set("rwa.probe_s", t.perPass(t.probe.seconds()), "s", "rwa.Stats.Latency per traced pass")

	mem, err := exp.StreamedBuildMem(func() (core.StepSource, error) { return core.StreamWRHT(streamConfig()) }, streamW, true)
	if err != nil {
		return err
	}
	r.set("bytes_per_node", mem.BytesPerNode(), "B", "exp.StreamedBuildMem, build + validate")
	var split simSplit
	split.add(res)
	r.setSimSplit(split, "the streamed run's fabric.Result")
	return nil
}

func stream1m(r *runner) error {
	payload := jitter(r.seed, "payload", 100e6, 0.01)
	b := &batch{
		// Set-up constructs what the first streamed step waits for: the
		// producer, the occupancy index and validator, and the fabric.
		setup: func() error {
			src, err := core.StreamWRHT(streamConfig())
			if err != nil {
				return err
			}
			core.NewStepValidator(src.Ring(), rwa.NewIndex(src.Ring()), streamW)
			_, err = streamFabric(expOptions(nil))
			return err
		},
		ops:    streamOps(payload),
		layers: func(r *runner, t *traced) error { return streamLayers(r, t, payload) },
	}
	return r.runBatch(b)
}
