// Package des is a minimal discrete-event simulation kernel: a
// time-ordered event queue with deterministic FIFO tie-breaking. The
// optical ring's event-driven mode (optical.RunScheduleDES, which the
// straggler study perturbs per transfer) uses it to sequence
// reconfigurations and circuit completions, and the training simulator
// uses it to interleave per-worker compute and communication phases.
package des

import (
	"fmt"
	"math"
)

// Hook observes the kernel's event lifecycle. Both methods run
// synchronously on the simulating goroutine; a nil Kernel.Hook costs
// one pointer comparison per event. Labels come from the *Named
// scheduling variants and are "" for unlabeled events.
type Hook interface {
	// EventScheduled fires when an event enters the queue: seq is its
	// FIFO tie-breaking rank (monotonically increasing across the
	// kernel's lifetime), at its firing time, now the clock at
	// scheduling time.
	EventScheduled(seq uint64, at, now float64, label string)
	// EventFired fires just before the event's callback runs, with the
	// clock already advanced to the event's time.
	EventFired(seq uint64, now float64, label string)
}

// event is a scheduled callback, held by value in the queue.
type event struct {
	time  float64
	seq   uint64
	fn    func()
	label string
}

// before orders events on (time, seq): earlier first, FIFO on ties.
func (e *event) before(o *event) bool {
	if e.time != o.time {
		return e.time < o.time
	}
	return e.seq < o.seq
}

// eventQueue is a binary min-heap of events by value, so scheduling
// and firing allocate nothing once the backing slice has grown. Both
// operations move a hole instead of swapping: push sifts the hole up
// from the new leaf; pop walks the root's hole down to a leaf along
// the smaller children, then sifts the former last event up into it
// (Floyd's bottom-up variant: one comparison per level on the way
// down, and the last event rarely climbs far).
type eventQueue []event

func (q *eventQueue) push(e event) {
	h := append(*q, event{})
	i := len(h) - 1
	for i > 0 {
		parent := (i - 1) / 2
		if !e.before(&h[parent]) {
			break
		}
		h[i] = h[parent]
		i = parent
	}
	h[i] = e
	*q = h
}

func (q *eventQueue) pop() event {
	h := *q
	top := h[0]
	n := len(h) - 1
	last := h[n]
	h[n] = event{} // drop the callback reference
	h = h[:n]
	if n > 0 {
		i := 0
		for {
			c := 2*i + 1
			if c >= n {
				break
			}
			if r := c + 1; r < n && h[r].before(&h[c]) {
				c = r
			}
			h[i] = h[c]
			i = c
		}
		for i > 0 {
			parent := (i - 1) / 2
			if !last.before(&h[parent]) {
				break
			}
			h[i] = h[parent]
			i = parent
		}
		h[i] = last
	}
	*q = h
	return top
}

// Kernel owns the simulated clock and the pending event queue. The zero
// value is ready to use at time 0.
type Kernel struct {
	// Hook, when non-nil, observes every event's scheduling and firing.
	// It must not mutate the kernel.
	Hook Hook

	now    float64
	seq    uint64
	events eventQueue
}

// Now returns the current simulated time in seconds.
func (k *Kernel) Now() float64 { return k.now }

// At schedules fn to run at absolute time t. Scheduling in the past or
// at NaN panics: either would reorder causality silently.
func (k *Kernel) At(t float64, fn func()) { k.AtNamed(t, "", fn) }

// AtNamed schedules fn at absolute time t with a label the Hook (and
// the timeline tracer built on it) can attribute the event to.
func (k *Kernel) AtNamed(t float64, label string, fn func()) {
	if t < k.now {
		panic(fmt.Sprintf("des: scheduling at %g before now %g", t, k.now))
	}
	if math.IsNaN(t) {
		panic(fmt.Sprintf("des: scheduling at NaN (now %g)", k.now))
	}
	k.seq++
	k.events.push(event{time: t, seq: k.seq, fn: fn, label: label})
	if k.Hook != nil {
		k.Hook.EventScheduled(k.seq, t, k.now, label)
	}
}

// After schedules fn to run delay seconds from now.
func (k *Kernel) After(delay float64, fn func()) { k.AfterNamed(delay, "", fn) }

// AfterNamed schedules fn delay seconds from now with a label. A
// negative or NaN delay panics.
func (k *Kernel) AfterNamed(delay float64, label string, fn func()) {
	if delay < 0 {
		panic(fmt.Sprintf("des: negative delay %g", delay))
	}
	if math.IsNaN(delay) {
		panic("des: NaN delay")
	}
	k.AtNamed(k.now+delay, label, fn)
}

// Step runs the earliest pending event, advancing the clock to its time.
// It reports whether an event was available.
func (k *Kernel) Step() bool {
	if len(k.events) == 0 {
		return false
	}
	e := k.events.pop()
	k.now = e.time
	if k.Hook != nil {
		k.Hook.EventFired(e.seq, k.now, e.label)
	}
	e.fn()
	return true
}

// Run drains the event queue and returns the final clock value.
func (k *Kernel) Run() float64 {
	for k.Step() {
	}
	return k.now
}

// Pending returns the number of queued events.
func (k *Kernel) Pending() int { return len(k.events) }
