package exp

import (
	"fmt"
	"runtime"

	"wrht/internal/core"
	"wrht/internal/rwa"
)

// Memory accounting for schedule construction — the measurement behind
// the streaming refactor's headline claim (peak memory O(max step) +
// O(index) instead of O(total schedule)) and the `wrhtsim build
// -memstats` report. Sampling forces a GC and reads HeapAlloc, so the
// numbers are live-set bytes, not allocation throughput; forcing a GC
// per sample is affordable because WRHT streams have O(log N) steps.

// MemReport describes the memory footprint of one schedule
// construction (and optional validation) run.
type MemReport struct {
	Mode      string // "materialized" or "streamed"
	Algorithm string
	Nodes     int
	Steps     int
	Transfers int // total transfers across all steps
	// BaselineBytes is the live heap before construction started,
	// PeakBytes the largest live heap sampled during the run (after each
	// step for streams; after build and validation for materialized).
	BaselineBytes uint64
	PeakBytes     uint64
}

// AttributableBytes is the peak live heap growth over the baseline.
func (r MemReport) AttributableBytes() uint64 {
	if r.PeakBytes < r.BaselineBytes {
		return 0
	}
	return r.PeakBytes - r.BaselineBytes
}

// BytesPerNode normalizes the attributable peak by the ring size.
func (r MemReport) BytesPerNode() float64 {
	if r.Nodes == 0 {
		return 0
	}
	return float64(r.AttributableBytes()) / float64(r.Nodes)
}

func (r MemReport) String() string {
	return fmt.Sprintf("%s %s N=%d: %d steps, %d transfers, peak live heap +%.2f MB (%.1f B/node)",
		r.Mode, r.Algorithm, r.Nodes, r.Steps, r.Transfers,
		float64(r.AttributableBytes())/(1<<20), r.BytesPerNode())
}

// liveHeap forces a collection and returns the live HeapAlloc.
func liveHeap() uint64 {
	runtime.GC()
	var ms runtime.MemStats
	runtime.ReadMemStats(&ms)
	return ms.HeapAlloc
}

// StreamedBuildMem drives a schedule stream end to end — validating
// each step through a core.StepValidator when validate is set —
// and reports the peak live heap along the way. The schedule is never
// materialized; what the measurement sees is the producer's step
// buffer, the occupancy index, and the validator scratch.
func StreamedBuildMem(mkSource func() (core.StepSource, error), wavelengths int, validate bool) (MemReport, error) {
	rep := MemReport{Mode: "streamed", BaselineBytes: liveHeap()}
	src, err := mkSource()
	if err != nil {
		return MemReport{}, err
	}
	rep.Algorithm = src.Algorithm()
	rep.Nodes = src.Ring().N
	var v *core.StepValidator
	if validate {
		v = core.NewStepValidator(src.Ring(), rwa.NewIndex(src.Ring()), wavelengths)
	}
	sample := func() {
		if h := liveHeap(); h > rep.PeakBytes {
			rep.PeakBytes = h
		}
	}
	sample()
	for {
		st, ok := src.Next()
		if !ok {
			break
		}
		rep.Steps++
		rep.Transfers += len(st.Transfers)
		if v != nil {
			if err := v.Step(st); err != nil {
				return MemReport{}, err
			}
		}
		sample()
	}
	return rep, nil
}

// MaterializedBuildMem builds the full schedule, optionally validates
// it, and reports the peak live heap with the whole schedule resident —
// the number the streamed path is compared against.
func MaterializedBuildMem(build func() (*core.Schedule, error), wavelengths int, validate bool) (MemReport, error) {
	rep := MemReport{Mode: "materialized", BaselineBytes: liveHeap()}
	s, err := build()
	if err != nil {
		return MemReport{}, err
	}
	rep.Algorithm = s.Algorithm
	rep.Nodes = s.Ring.N
	rep.Steps = s.NumSteps()
	for _, st := range s.Steps {
		rep.Transfers += len(st.Transfers)
	}
	rep.PeakBytes = liveHeap()
	if validate {
		// Validate step by step (the same validator Schedule.Validate
		// runs), sampling after every step so transient validator scratch
		// is measured while the schedule is still resident — a single
		// post-validation sample would let it be collected before the
		// read and under-report the materialized peak.
		src := s.Source()
		v := core.NewStepValidator(s.Ring, rwa.NewIndex(s.Ring), wavelengths)
		for {
			st, ok := src.Next()
			if !ok {
				break
			}
			if err := v.Step(st); err != nil {
				return MemReport{}, err
			}
			if h := liveHeap(); h > rep.PeakBytes {
				rep.PeakBytes = h
			}
		}
	}
	runtime.KeepAlive(s)
	return rep, nil
}
