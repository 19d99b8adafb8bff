package electrical

// The map-based max–min solver and string step signature the dense
// solver in electrical.go replaced, kept verbatim (renamed, and reading
// topo.Path through its accessors) as the differential oracle: every
// (end, drain) the production solver returns must be == to this one's.

import (
	"math"
	"sort"

	"wrht/internal/core"
)

// legacyFlow is one transfer in flight during a step.
type legacyFlow struct {
	bytes   float64 // remaining payload
	links   []int
	routers []int
	latency float64
	rate    float64
	done    bool
}

// legacyStepSignature fingerprints a step for memoization: collectives like
// Ring repeat the same (src, dst, bytes) pattern for thousands of steps,
// so identical steps are solved once.
func legacyStepSignature(st core.Step, elems int) string {
	type rec struct {
		s, d int
		b    int64
	}
	recs := make([]rec, len(st.Transfers))
	for i, t := range st.Transfers {
		recs[i] = rec{t.Src, t.Dst, t.Chunk.Bytes(elems)}
	}
	sort.Slice(recs, func(i, j int) bool {
		if recs[i].s != recs[j].s {
			return recs[i].s < recs[j].s
		}
		if recs[i].d != recs[j].d {
			return recs[i].d < recs[j].d
		}
		return recs[i].b < recs[j].b
	})
	sig := make([]byte, 0, len(recs)*12)
	for _, r := range recs {
		sig = legacyAppendInt(sig, int64(r.s))
		sig = legacyAppendInt(sig, int64(r.d))
		sig = legacyAppendInt(sig, r.b)
	}
	return string(sig)
}

func legacyAppendInt(b []byte, v int64) []byte {
	for i := 0; i < 8; i++ {
		b = append(b, byte(v>>(8*i)))
	}
	return b
}

// legacyStepDuration solves the fluid model for one step: repeatedly compute
// max–min fair rates for the unfinished flows, advance to the next flow
// completion, and repeat. The step ends when the last flow has drained
// and cleared its router pipeline latency; drain is the instant the last
// byte left the wire, so end−drain is the residual router-pipeline tail.
func (nw *Network) legacyStepDuration(st core.Step, elems int) (end, drain float64) {
	p := nw.Params
	flows := make([]*legacyFlow, 0, len(st.Transfers))
	for _, t := range st.Transfers {
		b := float64(t.Chunk.Bytes(elems))
		if p.PacketBytes > 0 && b > 0 {
			packets := math.Ceil(b / float64(p.PacketBytes))
			b = packets * float64(p.PacketBytes+p.HeaderBytes)
		}
		path := nw.Tree.Route(t.Src, t.Dst)
		flows = append(flows, &legacyFlow{
			bytes:   b,
			links:   path.Links(),
			routers: path.Routers(),
			latency: float64(len(path.Routers())) * p.RouterDelay,
		})
	}
	var now float64
	active := 0
	for _, f := range flows {
		if f.bytes > 0 {
			active++
		} else if f.latency > end {
			end = f.latency // zero-byte flow still pays latency
		}
	}
	for active > 0 {
		nw.legacyFairShare(flows)
		// Next completion.
		dt := math.Inf(1)
		for _, f := range flows {
			if f.done || f.rate <= 0 {
				continue
			}
			if t := f.bytes / f.rate; t < dt {
				dt = t
			}
		}
		if math.IsInf(dt, 1) {
			panic("electrical: active flows with zero rate")
		}
		now += dt
		const eps = 1e-9
		for _, f := range flows {
			if f.done {
				continue
			}
			f.bytes -= f.rate * dt
			if f.bytes <= eps*math.Max(1, f.rate*dt) {
				f.bytes = 0
				f.done = true
				active--
				if fin := now + f.latency; fin > end {
					end = fin
				}
			}
		}
	}
	return end, now
}

// legacyFairShare computes max–min fair rates (bytes/s) for the unfinished
// flows by progressive filling over link and router constraints.
func (nw *Network) legacyFairShare(flows []*legacyFlow) {
	p := nw.Params
	type cons struct {
		cap   float64 // remaining capacity, bytes/s
		count int     // unfrozen flows crossing it
	}
	linkCons := map[int]*cons{}
	routerCons := map[int]*cons{}
	for _, f := range flows {
		if f.done {
			continue
		}
		f.rate = 0
		for _, l := range f.links {
			c := linkCons[l]
			if c == nil {
				c = &cons{cap: p.LinkBps / 8}
				linkCons[l] = c
			}
			c.count++
		}
		if p.RouterAggBps > 0 {
			for _, r := range f.routers {
				c := routerCons[r]
				if c == nil {
					c = &cons{cap: p.RouterAggBps / 8}
					routerCons[r] = c
				}
				c.count++
			}
		}
	}
	frozen := func(f *legacyFlow) bool { return f.done || f.rate > 0 }
	for {
		// Find the tightest constraint among those with unfrozen flows.
		bottleneck := math.Inf(1)
		for _, c := range linkCons {
			if c.count > 0 {
				if s := c.cap / float64(c.count); s < bottleneck {
					bottleneck = s
				}
			}
		}
		for _, c := range routerCons {
			if c.count > 0 {
				if s := c.cap / float64(c.count); s < bottleneck {
					bottleneck = s
				}
			}
		}
		if math.IsInf(bottleneck, 1) {
			return // all flows frozen
		}
		// Freeze every unfrozen flow crossing a binding constraint at the
		// bottleneck share.
		progressed := false
		for _, f := range flows {
			if frozen(f) {
				continue
			}
			binding := false
			for _, l := range f.links {
				c := linkCons[l]
				if c.count > 0 && c.cap/float64(c.count) <= bottleneck*(1+1e-12) {
					binding = true
					break
				}
			}
			if !binding && p.RouterAggBps > 0 {
				for _, r := range f.routers {
					c := routerCons[r]
					if c.count > 0 && c.cap/float64(c.count) <= bottleneck*(1+1e-12) {
						binding = true
						break
					}
				}
			}
			if !binding {
				continue
			}
			f.rate = bottleneck
			progressed = true
			for _, l := range f.links {
				c := linkCons[l]
				c.cap -= bottleneck
				c.count--
			}
			if p.RouterAggBps > 0 {
				for _, r := range f.routers {
					c := routerCons[r]
					c.cap -= bottleneck
					c.count--
				}
			}
		}
		if !progressed {
			// Numerical guard: freeze everything at the bottleneck.
			for _, f := range flows {
				if !frozen(f) {
					f.rate = bottleneck
				}
			}
			return
		}
	}
}
