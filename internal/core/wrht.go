package core

import (
	"fmt"
	"math/rand"

	"wrht/internal/rwa"
	"wrht/internal/tensor"
	"wrht/internal/topo"
)

// Config parameterizes WRHT schedule construction.
type Config struct {
	// N is the number of nodes on the optical ring.
	N int
	// Wavelengths is the available wavelength count w per waveguide
	// (64 on TeraRack, Table 2).
	Wavelengths int
	// GroupSize is the number of grouped nodes m per subgroup in the
	// first reduce step. Zero selects the step-optimal m = 2w+1
	// (Lemma 1), clamped by MaxGroupSize when set.
	GroupSize int
	// MaxGroupSize is the insertion-loss/crosstalk bound m' (§4.4); zero
	// means unconstrained. GroupSize and the Lemma-1 default are clamped
	// to it.
	MaxGroupSize int
	// DisableAllToAll forces the final reduce step to gather to a single
	// root even when the wavelength budget would allow the all-to-all
	// exchange, yielding θ = 2⌈log_m N⌉ instead of 2⌈log_m N⌉−1.
	// Used by the ablation benchmarks. It also disables PlanAllToAll.
	DisableAllToAll bool
	// PlanAllToAll replaces the single-root gather fallback with a
	// multi-round reconfiguration plan (DefaultPhasePlan) whenever the
	// final representatives' one-shot all-to-all exceeds the wavelength
	// budget: the exchange the fallback abandons is carried over k
	// striped rounds instead. Configurations whose one-shot exchange
	// fits the budget build identical schedules with or without this
	// option; payload-aware plan selection is internal/plan's job.
	PlanAllToAll bool
	// Strategy selects the wavelength-assignment heuristic for the final
	// all-to-all step (First Fit by default, §4.1.2).
	Strategy rwa.Strategy
	// Seed seeds the Random Fit strategy.
	Seed int64
}

// EffectiveGroupSize resolves the grouped-node count m the configuration
// will use: the explicit GroupSize if set, otherwise the Lemma-1 optimum
// 2w+1, both clamped to MaxGroupSize when that constraint is present.
func (c Config) EffectiveGroupSize() int {
	m := c.GroupSize
	if m == 0 {
		m = 2*c.Wavelengths + 1
	}
	if c.MaxGroupSize > 0 && m > c.MaxGroupSize {
		m = c.MaxGroupSize
	}
	return m
}

// Canonical returns the configuration with GroupSize resolved to
// EffectiveGroupSize. Two configurations with equal canonical forms
// build identical schedules (GroupSize is only ever read through
// EffectiveGroupSize), so caches key on the canonical value: an
// explicit GroupSize of 2w+1 shares a cache entry with the
// GroupSize-0 default at the same wavelength budget.
func (c Config) Canonical() Config {
	c.GroupSize = c.EffectiveGroupSize()
	return c
}

func (c Config) validate() error {
	if c.N < 1 {
		return fmt.Errorf("core: wrht: N=%d < 1", c.N)
	}
	if c.Wavelengths < 1 {
		return fmt.Errorf("core: wrht: wavelengths=%d < 1", c.Wavelengths)
	}
	m := c.EffectiveGroupSize()
	if m < 2 {
		return fmt.Errorf("core: wrht: group size m=%d < 2", m)
	}
	if need := m / 2; need > c.Wavelengths {
		return fmt.Errorf("core: wrht: group size m=%d needs ⌊m/2⌋=%d wavelengths > budget %d", m, need, c.Wavelengths)
	}
	return nil
}

// group is one subgroup at one level of the hierarchical tree: the ring
// positions of its members and the index of the representative within
// Members (the intermediate node, §4.1.1).
type group struct {
	Members []int
	RepIdx  int
}

func (g group) rep() int { return g.Members[g.RepIdx] }

// partition splits the participant positions into consecutive runs of at
// most m, selecting the middle member of each run as representative.
func partition(participants []int, m int) []group {
	var groups []group
	for lo := 0; lo < len(participants); lo += m {
		hi := min(lo+m, len(participants))
		members := participants[lo:hi]
		groups = append(groups, group{Members: members, RepIdx: len(members) / 2})
	}
	return groups
}

// gatherStep emits the intra-group collection transfers of one reduce
// level: every non-representative sends its full partial sum to the
// representative. Members below the representative travel CW (toward
// higher index), members above travel CCW; the wavelength is the
// group-local distance to the representative minus one, so two members
// equidistant on opposite sides reuse the same wavelength on the two
// opposite fibers (§3.3) and at most ⌊m/2⌋ wavelengths are used.
func gatherStep(groups []group, op tensor.ReduceOp) Step {
	var st Step
	gatherStepInto(&st, groups, op)
	return st
}

// gatherStepInto is gatherStep writing into a reused buffer: the phase
// is set and the transfers are appended to buf.Transfers[:0], keeping
// the capacity across steps (the streaming producers emit through it).
// A buffer too small for the step's transfers (one per non-
// representative member) is replaced once, at exactly that size.
func gatherStepInto(buf *Step, groups []group, op tensor.ReduceOp) {
	phase := PhaseReduce
	if op == tensor.OpCopy {
		phase = PhaseBroadcast
	}
	buf.Phase = phase
	count := 0
	for _, g := range groups {
		count += len(g.Members) - 1
	}
	if cap(buf.Transfers) < count {
		buf.Transfers = make([]Transfer, 0, count)
	}
	buf.Transfers = buf.Transfers[:0]
	for _, g := range groups {
		for i, node := range g.Members {
			if i == g.RepIdx {
				continue
			}
			var dir topo.Direction
			var dist int
			if i < g.RepIdx {
				dir, dist = topo.CW, g.RepIdx-i
			} else {
				dir, dist = topo.CCW, i-g.RepIdx
			}
			tr := Transfer{
				Src: node, Dst: g.rep(),
				Chunk: tensor.Whole, Op: op,
				Dir: dir, Wavelength: dist - 1,
			}
			if op == tensor.OpCopy {
				// Broadcast reverses the gather: representative -> member,
				// opposite direction, same wavelength.
				tr.Src, tr.Dst = g.rep(), node
				tr.Dir = dir.Opposite()
			}
			buf.Transfers = append(buf.Transfers, tr)
		}
	}
}

// AllToAllWavelengths returns the paper's wavelength requirement
// ⌈r²/8⌉ for an all-to-all exchange among r nodes on a WDM ring [13].
func AllToAllWavelengths(r int) int {
	if r <= 1 {
		return 0
	}
	return (r*r + 7) / 8
}

// allToAllStep emits the final exchange among the top-level
// representatives: every ordered pair (i, j) carries i's partial sum to
// j over the shortest ring direction; wavelengths are assigned by the
// configured heuristic.
func allToAllStep(r topo.Ring, reps []int, strat rwa.Strategy, rng *rand.Rand) Step {
	st := Step{Phase: PhaseAllToAll}
	var reqs []rwa.Request
	for _, src := range reps {
		for _, dst := range reps {
			if src == dst {
				continue
			}
			dir, _ := r.ShortestDir(src, dst)
			reqs = append(reqs, rwa.Request{Src: src, Dst: dst, Dir: dir})
		}
	}
	asn, _ := rwa.AssignArcs(r, reqs, rwa.ArcsOf(r, reqs), strat, rng)
	for i, q := range reqs {
		st.Transfers = append(st.Transfers, Transfer{
			Src: q.Src, Dst: q.Dst,
			Chunk: tensor.Whole, Op: tensor.OpSum,
			Dir: q.Dir, Wavelength: asn[i],
		})
	}
	return st
}

// BuildWRHT constructs the WRHT all-reduce schedule (§4.1): hierarchical
// grouped gathers until the surviving representatives either fit a
// wavelength-feasible all-to-all exchange or collapse to a single root,
// then the broadcast stage replays the gather levels in reverse with the
// reduced vector. The construction streams through StreamWRHT; callers
// that can consume one step at a time should use the stream directly and
// skip materializing the schedule (see stream.go).
func BuildWRHT(cfg Config) (*Schedule, error) {
	src, err := StreamWRHT(cfg)
	if err != nil {
		return nil, err
	}
	return Collect(src), nil
}
