package obs

import (
	"encoding/json"
	"io"
	"os"
	"sync"
)

// Track identifies one horizontal timeline in the emitted trace. Tracks
// with the same Process render grouped in Perfetto (one "process" per
// engine run or workload, one "thread" per track). The tracer assigns
// pid/tid numbers in first-use order, so a deterministic sequence of
// Span/Instant calls yields a byte-identical file.
type Track struct {
	Process string
	Name    string
}

// Args carries span metadata (wavelength, bytes, step index, ...).
// encoding/json sorts map keys, so args serialize deterministically.
type Args map[string]any

// traceEvent is one Chrome Trace Event. Field order is the emission
// order (encoding/json preserves struct order), part of the golden
// format.
type traceEvent struct {
	Name string   `json:"name"`
	Ph   string   `json:"ph"`
	Ts   float64  `json:"ts"`
	Dur  *float64 `json:"dur,omitempty"`
	Pid  int      `json:"pid"`
	Tid  int      `json:"tid"`
	S    string   `json:"s,omitempty"`
	Args Args     `json:"args,omitempty"`
}

// Tracer accumulates spans and instant events and writes them as a
// Chrome Trace Event JSON document loadable by ui.perfetto.dev (or
// chrome://tracing). Timestamps are simulated seconds supplied by the
// caller; the tracer converts to the format's microseconds and never
// consults a wall clock. All methods are safe on a nil receiver and for
// concurrent use (though concurrent emission makes the event order, and
// therefore the output bytes, scheduling-dependent — producers that
// promise byte-stable files emit sequentially).
type Tracer struct {
	// Clock, when set, supplies timestamps for producers that trace
	// their own progress rather than a simulated timeline (the sweep
	// engine's per-point spans). It is injectable so tests can install
	// a deterministic clock and the CLI a wall clock for diagnostics.
	// Simulated-time producers ignore it.
	Clock func() float64

	mu     sync.Mutex
	pids   map[string]int
	tids   map[Track]int
	procs  []string // process names in pid order
	tracks []Track  // tracks in global registration order
	events []traceEvent
}

// NewTracer returns an empty tracer.
func NewTracer() *Tracer {
	return &Tracer{pids: map[string]int{}, tids: map[Track]int{}}
}

// track resolves tr to (pid, tid), registering on first use. Caller
// holds t.mu.
func (t *Tracer) track(tr Track) (pid, tid int) {
	pid, ok := t.pids[tr.Process]
	if !ok {
		pid = len(t.pids) + 1
		t.pids[tr.Process] = pid
		t.procs = append(t.procs, tr.Process)
	}
	tid, ok = t.tids[tr]
	if !ok {
		tid = len(t.tids) + 1
		t.tids[tr] = tid
		t.tracks = append(t.tracks, tr)
	}
	return pid, tid
}

const secToUs = 1e6

// Span records a complete-duration event on tr: [start, start+dur] in
// simulated seconds.
func (t *Tracer) Span(tr Track, name string, start, dur float64, args Args) {
	if t == nil {
		return
	}
	t.mu.Lock()
	defer t.mu.Unlock()
	pid, tid := t.track(tr)
	d := dur * secToUs
	t.events = append(t.events, traceEvent{
		Name: name, Ph: "X", Ts: start * secToUs, Dur: &d,
		Pid: pid, Tid: tid, Args: args,
	})
}

// Instant records a zero-duration marker on tr at simulated time at.
func (t *Tracer) Instant(tr Track, name string, at float64, args Args) {
	if t == nil {
		return
	}
	t.mu.Lock()
	defer t.mu.Unlock()
	pid, tid := t.track(tr)
	t.events = append(t.events, traceEvent{
		Name: name, Ph: "i", Ts: at * secToUs,
		Pid: pid, Tid: tid, S: "t", Args: args,
	})
}

// Events returns the number of recorded events.
func (t *Tracer) Events() int {
	if t == nil {
		return 0
	}
	t.mu.Lock()
	defer t.mu.Unlock()
	return len(t.events)
}

// WriteTo emits the trace as Chrome Trace Event JSON: first the
// process/thread naming metadata (in registration order, with
// sort_index pinning the on-screen track order), then every event in
// emission order.
func (t *Tracer) WriteTo(w io.Writer) (int64, error) {
	if t == nil {
		return 0, nil
	}
	t.mu.Lock()
	defer t.mu.Unlock()
	meta := make([]traceEvent, 0, len(t.procs)+2*len(t.tracks))
	for i, proc := range t.procs {
		meta = append(meta, traceEvent{
			Name: "process_name", Ph: "M", Pid: i + 1,
			Args: Args{"name": proc},
		})
	}
	for i, tr := range t.tracks {
		pid := t.pids[tr.Process]
		meta = append(meta, traceEvent{
			Name: "thread_name", Ph: "M", Pid: pid, Tid: i + 1,
			Args: Args{"name": tr.Name},
		})
		meta = append(meta, traceEvent{
			Name: "thread_sort_index", Ph: "M", Pid: pid, Tid: i + 1,
			Args: Args{"sort_index": i + 1},
		})
	}
	doc := struct {
		DisplayTimeUnit string       `json:"displayTimeUnit"`
		TraceEvents     []traceEvent `json:"traceEvents"`
	}{"ms", append(meta, t.events...)}
	b, err := json.MarshalIndent(doc, "", " ")
	if err != nil {
		return 0, err
	}
	b = append(b, '\n')
	n, err := w.Write(b)
	return int64(n), err
}

// WriteFile writes the trace to path.
func (t *Tracer) WriteFile(path string) error {
	f, err := os.Create(path)
	if err != nil {
		return err
	}
	_, err = t.WriteTo(f)
	if cerr := f.Close(); err == nil {
		err = cerr
	}
	return err
}
