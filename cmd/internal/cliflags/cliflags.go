// Package cliflags is the one place the repo's CLIs (wrhtsim,
// trainsim) define their shared observability and output flags:
// -workers, -json, -trace, -prom and -promaddr. Each command registers
// the subset it supports, then uses the same registry/tracer
// construction and exit-time sink writes — so flag names, help text
// and behavior cannot drift between binaries.
package cliflags

import (
	"flag"
	"fmt"

	"wrht/internal/obs"
)

// Set selects which shared flags a command registers.
type Set uint

const (
	// Workers is -workers, the sweep worker pool size.
	Workers Set = 1 << iota
	// JSON is -json, the structured-output path (internal/api schema).
	JSON
	// Trace is -trace, the Perfetto timeline path.
	Trace
	// Prom is -prom, the Prometheus exposition file.
	Prom
	// PromServe is -promaddr, the live /metrics + pprof server.
	PromServe
)

// Flags holds the parsed values. Fields for unregistered flags stay
// zero.
type Flags struct {
	Workers   int
	JSONOut   string
	TracePath string
	PromPath  string
	PromAddr  string
}

// Register adds the selected flags to fs and returns the destination
// struct, populated once fs is parsed.
func Register(fs *flag.FlagSet, have Set) *Flags {
	f := &Flags{}
	if have&Workers != 0 {
		fs.IntVar(&f.Workers, "workers", 0, "sweep worker pool size (0 = GOMAXPROCS, 1 = sequential)")
	}
	if have&JSON != 0 {
		fs.StringVar(&f.JSONOut, "json", "", "write the structured result (internal/api schema) to this JSON file")
	}
	if have&Trace != 0 {
		fs.StringVar(&f.TracePath, "trace", "", "write a Perfetto trace (Chrome Trace Event JSON) to this file")
	}
	if have&Prom != 0 {
		fs.StringVar(&f.PromPath, "prom", "", "write the Prometheus text exposition to this file on exit (- for stdout)")
	}
	if have&PromServe != 0 {
		fs.StringVar(&f.PromAddr, "promaddr", "", "serve /metrics (Prometheus text) and /debug/pprof on this address for the run's duration (e.g. :9090)")
	}
	return f
}

// NewTracer returns a tracer when -trace was given, nil otherwise.
func (f *Flags) NewTracer() *obs.Tracer {
	if f.TracePath == "" {
		return nil
	}
	return obs.NewTracer()
}

// NewRegistry returns a metric registry when any metrics sink (-prom,
// -promaddr) was requested, nil otherwise.
func (f *Flags) NewRegistry() *obs.Registry {
	if f.PromPath == "" && f.PromAddr == "" {
		return nil
	}
	return obs.NewRegistry()
}

// WriteTrace writes the tracer to -trace and prints the confirmation.
// No-op when tracing was not requested.
func (f *Flags) WriteTrace(tr *obs.Tracer) error {
	if tr == nil || f.TracePath == "" {
		return nil
	}
	if err := tr.WriteFile(f.TracePath); err != nil {
		return fmt.Errorf("writing %s: %w", f.TracePath, err)
	}
	fmt.Printf("trace written to %s (open in https://ui.perfetto.dev)\n", f.TracePath)
	return nil
}

// WriteMetrics writes the -prom exposition on exit. No-op on a nil
// registry or without -prom.
func (f *Flags) WriteMetrics(reg *obs.Registry) error {
	if reg == nil || f.PromPath == "" {
		return nil
	}
	if err := reg.ExposeFile(f.PromPath); err != nil {
		return fmt.Errorf("writing %s: %w", f.PromPath, err)
	}
	if f.PromPath != "-" {
		fmt.Printf("prometheus exposition written to %s\n", f.PromPath)
	}
	return nil
}
