package obs

// KernelObserver implements des.Hook, counting every event and marking
// labeled ones on a Perfetto track. Unlabeled events only bump
// counters; labeled events — the optical DES's "reconfig"/"transfer"
// completions, the training timeline's phase boundaries — also emit an
// instant marker at their simulated firing time, so kernel-driven
// simulators line up on the same timeline as the fabric engine's spans.
//
// Counter handles are resolved once at construction (nil-safe on a nil
// registry), so the per-event cost is two atomic increments.
type KernelObserver struct {
	Tracer *Tracer
	// Track receives the instant markers for labeled events.
	Track Track

	scheduled *Counter
	fired     *Counter
}

// NewKernelObserver returns a hook emitting into tr and reg (either may
// be nil) on the given track.
func NewKernelObserver(tr *Tracer, reg *Registry, track Track) *KernelObserver {
	return &KernelObserver{
		Tracer:    tr,
		Track:     track,
		scheduled: reg.Counter("des.events.scheduled"),
		fired:     reg.Counter("des.events.fired"),
	}
}

// EventScheduled implements des.Hook.
func (o *KernelObserver) EventScheduled(seq uint64, at, now float64, label string) {
	o.scheduled.Inc()
}

// EventFired implements des.Hook.
func (o *KernelObserver) EventFired(seq uint64, now float64, label string) {
	o.fired.Inc()
	if label != "" && o.Tracer != nil {
		o.Tracer.Instant(o.Track, label, now, nil)
	}
}
