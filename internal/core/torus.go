package core

import (
	"fmt"

	"wrht/internal/rwa"
	"wrht/internal/topo"
)

// WRHT on a torus (§6.1): the reduce stage of WRHT runs inside every row
// ring in parallel (all rows are structurally identical, so their
// representatives land in one column), the row representatives then run
// a full WRHT all-reduce on that column ring, and the row broadcast
// stage replays the row gathers in reverse. Row steps across different
// rows merge into single schedule steps because each row is its own
// waveguide — wavelengths are reused across rows exactly as they are
// across subgroups on the ring.

// rowRepPosition replays the grouping recursion on a c-node ring to find
// the position the row reduce converges to.
func rowRepPosition(c, m int) int {
	participants := make([]int, c)
	for i := range participants {
		participants[i] = i
	}
	for len(participants) > 1 {
		groups := partition(participants, m)
		next := make([]int, len(groups))
		for i, g := range groups {
			next[i] = g.rep()
		}
		participants = next
	}
	return participants[0]
}

// remapStep rewrites a step's node ids through the given mapping,
// keeping chunks, ops, directions and wavelengths.
func remapStep(st Step, mapID func(int) int) Step {
	out := Step{Phase: st.Phase, Transfers: make([]Transfer, len(st.Transfers))}
	for i, t := range st.Transfers {
		t.Src = mapID(t.Src)
		t.Dst = mapID(t.Dst)
		out.Transfers[i] = t
	}
	return out
}

// BuildWRHTTorus constructs the WRHT all-reduce on an R×C torus with w
// wavelengths per waveguide and first-step group size m (0 = the
// Lemma-1 optimum 2w+1, clamped to the row length). Transfers carry
// global node ids (row·C + col); ValidateTorus checks per-waveguide
// wavelength feasibility. The construction streams through
// StreamWRHTTorus.
func BuildWRHTTorus(t topo.Torus, w, m int) (*Schedule, error) {
	src, err := StreamWRHTTorus(t, w, m)
	if err != nil {
		return nil, err
	}
	return Collect(src), nil
}

// torusStream streams the torus schedule from compact interned
// templates: the retained state is one CompactStep per row-template
// step (over a C-node ring) and per column step (over an R-node ring) —
// O(R + C) transfers' worth — while the merged row steps, which carry
// O(N) transfers each, only ever exist one at a time in the emission
// buffer.
type torusStream struct {
	t       topo.Torus
	ring    topo.Ring
	rowTmpl []CompactStep // L gathers then L broadcasts, column ids
	colTmpl []CompactStep // column-stage WRHT, row ids
	gathers int
	repCol  int
	k       int
	buf     Step
}

// StreamWRHTTorus returns a streaming producer of the torus schedule,
// bit-identical to BuildWRHTTorus's output (which is Collect over it).
func StreamWRHTTorus(t topo.Torus, w, m int) (StepSource, error) {
	if t.Rows < 1 || t.Cols < 1 {
		return nil, fmt.Errorf("core: torus %dx%d invalid", t.Rows, t.Cols)
	}
	rowCfg := Config{N: t.Cols, Wavelengths: w, GroupSize: m, DisableAllToAll: true}
	if t.Cols == 1 {
		rowCfg.GroupSize = 0
	}
	ts := &torusStream{t: t, ring: topo.NewRing(t.N())}

	// Row reduce/broadcast template on a C-node ring (ids = columns).
	if t.Cols > 1 {
		rowSched, err := BuildWRHT(rowCfg)
		if err != nil {
			return nil, fmt.Errorf("core: torus row stage: %w", err)
		}
		ts.rowTmpl = make([]CompactStep, len(rowSched.Steps))
		for i, st := range rowSched.Steps {
			ts.rowTmpl[i] = CompactOf(st)
		}
	}
	ts.gathers = len(ts.rowTmpl) / 2

	// Column stage: full WRHT all-reduce among the row representatives,
	// which all sit in the representative column.
	if t.Rows > 1 {
		if t.Cols > 1 {
			ts.repCol = rowRepPosition(t.Cols, rowCfg.EffectiveGroupSize())
		}
		colCfg := Config{N: t.Rows, Wavelengths: w, GroupSize: m}
		if colCfg.GroupSize > t.Rows {
			colCfg.GroupSize = 0
		}
		colSched, err := BuildWRHT(colCfg)
		if err != nil {
			return nil, fmt.Errorf("core: torus column stage: %w", err)
		}
		ts.colTmpl = make([]CompactStep, len(colSched.Steps))
		for i, st := range colSched.Steps {
			ts.colTmpl[i] = CompactOf(st)
		}
	}
	return ts, nil
}

func (ts *torusStream) Algorithm() string { return "wrht-torus" }
func (ts *torusStream) Ring() topo.Ring   { return ts.ring }

// mergeRows expands one row-template step across every row into the
// emission buffer (each row is its own waveguide, so the template's
// wavelengths are reused across rows unchanged).
func (ts *torusStream) mergeRows(tmpl CompactStep) {
	ts.buf.Phase = tmpl.Phase
	ts.buf.Transfers = ts.buf.Transfers[:0]
	for r := 0; r < ts.t.Rows; r++ {
		tmpl.AppendTo(&ts.buf, func(col int) int { return ts.t.Index(r, col) })
	}
}

func (ts *torusStream) Next() (*Step, bool) {
	k := ts.k
	ts.k++
	switch {
	case k < ts.gathers:
		ts.mergeRows(ts.rowTmpl[k])
	case k < ts.gathers+len(ts.colTmpl):
		ts.colTmpl[k-ts.gathers].ExpandInto(&ts.buf, func(row int) int { return ts.t.Index(row, ts.repCol) })
	case k < len(ts.rowTmpl)+len(ts.colTmpl):
		// Row broadcast stage (reverse of the gathers).
		ts.mergeRows(ts.rowTmpl[k-len(ts.colTmpl)])
	default:
		return nil, false
	}
	return &ts.buf, true
}

// ValidateTorus checks a torus schedule: every transfer must stay within
// one row or one column ring, and per (ring, direction) the wavelength
// assignment must be conflict-free and within the budget (0 disables the
// budget check). Wavelength reuse across distinct rows/columns is free —
// they are separate waveguides.
func ValidateTorus(s *Schedule, t topo.Torus, wavelengths int) error {
	return ValidateTorusSource(s.Source(), t, wavelengths)
}

// ValidateTorusSource is ValidateTorus over a step stream, holding one
// step at a time. The per-domain request/arc/assignment scratch and the
// domain-bucketing map are reused across steps, so validation allocates
// O(max step) regardless of the step count. Each (row/column, index)
// domain is validated by Reset+replay on one shared index per dimension
// rather than the ring validator's step transitions: holding each
// domain's last step would need one occupancy index per row and column
// — O(N) words per domain, O(N·(R+C)) total — which is exactly the
// memory class this path exists to avoid, while per-domain replay
// stays near-linear in the domain's transfer count.
func ValidateTorusSource(src StepSource, t topo.Torus, wavelengths int) error {
	type domain struct {
		row bool
		idx int
	}
	// Row and column rings each get one reusable occupancy index; every
	// per-domain check below is near-linear in its transfer count.
	rowRing, colRing := topo.NewRing(t.Cols), topo.NewRing(t.Rows)
	rowIx, colIx := rwa.NewIndex(rowRing), rwa.NewIndex(colRing)
	byDomain := map[domain][]int{}
	var reqs []rwa.Request
	var asn rwa.Assignment
	var arcs []topo.Arc
	for si := 0; ; si++ {
		st, ok := src.Next()
		if !ok {
			return nil
		}
		for dom := range byDomain {
			byDomain[dom] = byDomain[dom][:0]
		}
		for ti, tr := range st.Transfers {
			sr, sc := t.Coord(tr.Src)
			dr, dc := t.Coord(tr.Dst)
			switch {
			case sr == dr:
				byDomain[domain{row: true, idx: sr}] = append(byDomain[domain{row: true, idx: sr}], ti)
			case sc == dc:
				byDomain[domain{row: false, idx: sc}] = append(byDomain[domain{row: false, idx: sc}], ti)
			default:
				return fmt.Errorf("core: torus step %d transfer %d crosses both dimensions: %v", si, ti, tr)
			}
		}
		for dom, tis := range byDomain {
			if len(tis) == 0 {
				continue
			}
			ring, ix := rowRing, rowIx
			if !dom.row {
				ring, ix = colRing, colIx
			}
			reqs, asn, arcs = reqs[:0], asn[:0], arcs[:0]
			for _, ti := range tis {
				tr := st.Transfers[ti]
				sr, sc := t.Coord(tr.Src)
				dr, dc := t.Coord(tr.Dst)
				var src, dst int
				if dom.row {
					src, dst = sc, dc
				} else {
					src, dst = sr, dr
				}
				reqs = append(reqs, rwa.Request{Src: src, Dst: dst, Dir: tr.Dir})
				asn = append(asn, tr.Wavelength)
				arcs = append(arcs, ring.ArcOf(src, dst, tr.Dir))
			}
			if err := ix.Validate(reqs, arcs, asn, wavelengths); err != nil {
				return fmt.Errorf("core: torus step %d (%v ring %d): %w", si, dom.row, dom.idx, err)
			}
		}
	}
}

// StepsWRHTTorus returns the analytic step count of the torus scheme:
// 2·L_row (row gathers + broadcasts) plus the column all-reduce θ.
func StepsWRHTTorus(t topo.Torus, w, m int) (int, error) {
	rowSteps := 0
	if t.Cols > 1 {
		cfg := Config{N: t.Cols, Wavelengths: w, GroupSize: m, DisableAllToAll: true}
		st, err := StepsWRHT(cfg)
		if err != nil {
			return 0, err
		}
		rowSteps = st.Total
	}
	colSteps := 0
	if t.Rows > 1 {
		cfg := Config{N: t.Rows, Wavelengths: w, GroupSize: m}
		if cfg.GroupSize > t.Rows {
			cfg.GroupSize = 0
		}
		st, err := StepsWRHT(cfg)
		if err != nil {
			return 0, err
		}
		colSteps = st.Total
	}
	return rowSteps + colSteps, nil
}
