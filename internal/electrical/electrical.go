// Package electrical simulates the electrical packet-switched baseline
// system of §5.1: a two-level fat-tree of 32-port routers (Table 2)
// carrying the same collective schedules the optical simulator runs.
// It substitutes for the paper's SimGrid 3.3 setup with the same class
// of model SimGrid uses: flow-level simulation with max–min fair
// bandwidth sharing on links plus a fixed per-router forwarding delay.
//
// Two capacity constraints shape each flow's rate:
//
//   - every directed link carries at most LinkBps, and
//   - optionally, every router forwards at most RouterAggBps aggregate,
//     shared max–min among the flows traversing it (an oversubscription
//     ablation; Table 2's "router full bisection bandwidth" reads as
//     full bisection, so the default leaves this off).
//
// What makes the electrical system lose to circuit-switched optics in
// Fig 7 is (a) per-router forwarding latency on every hop versus one
// MRR reconfiguration per optical step, and (b) per-packet protocol
// headers: with Table 2's 72-byte packets, Ethernet/IP/TCP framing
// costs ~58 bytes per packet, cutting goodput to ~55% of the line rate,
// while the optical data plane carries payloads on a reserved circuit.
package electrical

import (
	"cmp"
	"encoding/binary"
	"fmt"
	"math"
	"slices"
	"sync"

	"wrht/internal/core"
	"wrht/internal/topo"
)

// Params holds the electrical-system parameters of Table 2.
type Params struct {
	// Radix is the router port count (32).
	Radix int
	// LinkBps is the per-link line rate in bits per second (40 Gb/s).
	LinkBps float64
	// RouterAggBps is the aggregate forwarding capacity of one router in
	// bits per second, shared by all flows traversing it. Zero (the
	// default) disables the constraint, modelling full-bisection routers
	// per Table 2; positive values model oversubscribed routers (used by
	// the ablation benchmarks).
	RouterAggBps float64
	// RouterDelay is the forwarding latency per router traversal in
	// seconds (25 µs).
	RouterDelay float64
	// PacketBytes is the packet payload size (72 B); payloads are
	// packetised and rounded up to whole packets.
	PacketBytes int
	// HeaderBytes is the per-packet framing overhead added on the wire
	// (Ethernet 18 B + IPv4 20 B + TCP 20 B = 58 B). With 72-byte
	// packets this is the dominant electrical handicap.
	HeaderBytes int
}

// DefaultParams returns the Table-2 electrical configuration.
func DefaultParams() Params {
	return Params{
		Radix:       32,
		LinkBps:     40e9,
		RouterDelay: 25e-6,
		PacketBytes: 72,
		HeaderBytes: 58,
	}
}

// Network is a fat-tree instance ready to time collective schedules.
type Network struct {
	Params Params
	Tree   topo.FatTree

	mu      sync.Mutex
	solvers []*solver // idle scratch, at most one per concurrent solve
}

// NewNetwork builds the fat-tree for n hosts.
func NewNetwork(n int, p Params) (*Network, error) {
	if n < 1 {
		return nil, fmt.Errorf("electrical: host count %d < 1", n)
	}
	if p.Radix < 2 {
		return nil, fmt.Errorf("electrical: radix %d < 2", p.Radix)
	}
	if p.LinkBps <= 0 {
		return nil, fmt.Errorf("electrical: link rate %g <= 0", p.LinkBps)
	}
	return &Network{Params: p, Tree: topo.NewFatTree(n, p.Radix)}, nil
}

// wireBytes returns the bytes a payload of b puts on the wire: with
// packetization on, b rounded up to whole packets, each carrying its
// framing. Besides a transfer's route it is the only property of the
// transfer the fluid model reads, so the solver, the memo key and the
// profile-group cost all take it from here.
func (p Params) wireBytes(b float64) float64 {
	if p.PacketBytes > 0 && b > 0 {
		packets := math.Ceil(b / float64(p.PacketBytes))
		b = packets * float64(p.PacketBytes+p.HeaderBytes)
	}
	return b
}

// flow is one transfer in flight during a step, held by value with its
// route inline.
type flow struct {
	bytes   float64 // remaining wire bytes
	latency float64
	rate    float64
	path    topo.Path
	done    bool
}

// solver is the scratch of one fluid-model solve or memo key: the
// step's flows, and per-link and per-router capacity and count arrays
// indexed by the tree's link and router ids. links and routers list the
// ids the step's flows touch, each once; fairShare resets and scans
// only those, and the counts of exactly those are zeroed when the step
// ends, so a solve costs O(flows), not O(tree). Counts are zero between
// solves, which is how a first touch is recognised. recs and key are
// stepKey's records and their encoding.
type solver struct {
	flows              []flow
	linkCap, routerCap []float64
	linkCnt, routerCnt []int
	links, routers     []int
	recs               []keyRec
	key                []byte
}

// acquireSolver takes an idle solver sized for the tree, or makes one:
// concurrent engine runs share the network, so each solve needs its own.
func (nw *Network) acquireSolver() *solver {
	var sv *solver
	nw.mu.Lock()
	if n := len(nw.solvers); n > 0 {
		sv = nw.solvers[n-1]
		nw.solvers = nw.solvers[:n-1]
	}
	nw.mu.Unlock()
	if sv == nil {
		sv = &solver{}
	}
	if nl := nw.Tree.NumLinks(); len(sv.linkCnt) < nl {
		sv.linkCap, sv.linkCnt = make([]float64, nl), make([]int, nl)
	}
	if nr := nw.Tree.NumRouters(); len(sv.routerCnt) < nr {
		sv.routerCap, sv.routerCnt = make([]float64, nr), make([]int, nr)
	}
	return sv
}

// releaseSolver clears what the step touched and makes sv idle again.
func (nw *Network) releaseSolver(sv *solver) {
	for _, l := range sv.links {
		sv.linkCnt[l] = 0
	}
	for _, r := range sv.routers {
		sv.routerCnt[r] = 0
	}
	sv.flows, sv.links, sv.routers = sv.flows[:0], sv.links[:0], sv.routers[:0]
	nw.mu.Lock()
	nw.solvers = append(nw.solvers, sv)
	nw.mu.Unlock()
}

// stepDuration solves the fluid model for one step: repeatedly compute
// max–min fair rates for the unfinished flows, advance to the next flow
// completion, and repeat. The step ends when the last flow has drained
// and cleared its router pipeline latency; drain is the instant the last
// byte left the wire, so end−drain is the residual router-pipeline tail.
func (nw *Network) stepDuration(st core.Step, elems int) (end, drain float64) {
	p := nw.Params
	sv := nw.acquireSolver()
	defer nw.releaseSolver(sv)
	for _, t := range st.Transfers {
		sv.flows = append(sv.flows, flow{
			bytes: p.wireBytes(float64(t.Chunk.Bytes(elems))),
			path:  nw.Tree.Route(t.Src, t.Dst),
		})
		f := &sv.flows[len(sv.flows)-1]
		f.latency = float64(len(f.path.Routers())) * p.RouterDelay
		for _, l := range f.path.Links() {
			if sv.linkCnt[l] == 0 {
				sv.links = append(sv.links, l)
			}
			sv.linkCnt[l]++
		}
		if p.RouterAggBps > 0 {
			for _, r := range f.path.Routers() {
				if sv.routerCnt[r] == 0 {
					sv.routers = append(sv.routers, r)
				}
				sv.routerCnt[r]++
			}
		}
	}
	flows := sv.flows
	var now float64
	active := 0
	for i := range flows {
		f := &flows[i]
		if f.bytes > 0 {
			active++
		} else if f.latency > end {
			end = f.latency // zero-byte flow still pays latency
		}
	}
	for active > 0 {
		sv.fairShare(p)
		// Next completion.
		dt := math.Inf(1)
		for i := range flows {
			f := &flows[i]
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
		for i := range flows {
			f := &flows[i]
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

// fairShare computes max–min fair rates (bytes/s) for the unfinished
// flows by progressive filling over link and router constraints.
func (sv *solver) fairShare(p Params) {
	routerOn := p.RouterAggBps > 0
	for _, l := range sv.links {
		sv.linkCap[l], sv.linkCnt[l] = p.LinkBps/8, 0
	}
	if routerOn {
		for _, r := range sv.routers {
			sv.routerCap[r], sv.routerCnt[r] = p.RouterAggBps/8, 0
		}
	}
	flows := sv.flows
	for i := range flows {
		f := &flows[i]
		if f.done {
			continue
		}
		f.rate = 0
		for _, l := range f.path.Links() {
			sv.linkCnt[l]++
		}
		if routerOn {
			for _, r := range f.path.Routers() {
				sv.routerCnt[r]++
			}
		}
	}
	for {
		// Find the tightest constraint among those with unfrozen flows.
		bottleneck := math.Inf(1)
		for _, l := range sv.links {
			if c := sv.linkCnt[l]; c > 0 {
				if s := sv.linkCap[l] / float64(c); s < bottleneck {
					bottleneck = s
				}
			}
		}
		for _, r := range sv.routers {
			if c := sv.routerCnt[r]; c > 0 {
				if s := sv.routerCap[r] / float64(c); s < bottleneck {
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
		for i := range flows {
			f := &flows[i]
			if f.frozen() {
				continue
			}
			binding := false
			for _, l := range f.path.Links() {
				if c := sv.linkCnt[l]; c > 0 && sv.linkCap[l]/float64(c) <= bottleneck*(1+1e-12) {
					binding = true
					break
				}
			}
			if !binding && routerOn {
				for _, r := range f.path.Routers() {
					if c := sv.routerCnt[r]; c > 0 && sv.routerCap[r]/float64(c) <= bottleneck*(1+1e-12) {
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
			for _, l := range f.path.Links() {
				sv.linkCap[l] -= bottleneck
				sv.linkCnt[l]--
			}
			if routerOn {
				for _, r := range f.path.Routers() {
					sv.routerCap[r] -= bottleneck
					sv.routerCnt[r]--
				}
			}
		}
		if !progressed {
			// Numerical guard: freeze everything at the bottleneck.
			for i := range flows {
				if f := &flows[i]; !f.frozen() {
					f.rate = bottleneck
				}
			}
			return
		}
	}
}

func (f *flow) frozen() bool { return f.done || f.rate > 0 }

// stepKey fingerprints a step for memoization by exactly what StepCost
// reads: the (src, dst, wire bytes) records in sorted order, which
// determine the fluid model's (end, drain) — flow order does not enter
// the key, so permuted steps share one solve — and the largest raw
// payload, which StepCost reports as MaxBytes. Chunks one element apart
// that fill the same packets map to one key, so every step of a Ring
// all-reduce is solved once. The encoding is injective: the raw maximum,
// then per record the varint deltas of src against the previous record,
// of dst against src, and of the wire bytes' float bits against the
// previous record's.
func (nw *Network) stepKey(st core.Step, elems int) string {
	sv := nw.acquireSolver()
	defer nw.releaseSolver(sv)
	recs := sv.recs[:0]
	var maxRaw int64
	lastRaw, lastWire := int64(-1), uint64(0) // steps repeat chunk sizes
	for _, t := range st.Transfers {
		raw := t.Chunk.Bytes(elems)
		maxRaw = max(maxRaw, raw)
		if raw != lastRaw {
			lastRaw, lastWire = raw, math.Float64bits(nw.Params.wireBytes(float64(raw)))
		}
		recs = append(recs, keyRec{s: t.Src, d: t.Dst, w: lastWire})
	}
	slices.SortFunc(recs, compareKeyRecs)
	buf := binary.AppendUvarint(sv.key[:0], uint64(maxRaw))
	var prev keyRec
	for _, r := range recs {
		buf = binary.AppendVarint(buf, int64(r.s-prev.s))
		buf = binary.AppendVarint(buf, int64(r.d-r.s))
		buf = binary.AppendVarint(buf, int64(r.w-prev.w))
		prev = r
	}
	sv.recs, sv.key = recs, buf
	return string(buf)
}

// keyRec is one transfer as the memo key sees it; w holds the float
// bits of the (non-negative) wire bytes, which order like the values.
type keyRec struct {
	s, d int
	w    uint64
}

func compareKeyRecs(a, b keyRec) int {
	if c := cmp.Compare(a.s, b.s); c != 0 {
		return c
	}
	if c := cmp.Compare(a.d, b.d); c != 0 {
		return c
	}
	return cmp.Compare(a.w, b.w)
}
