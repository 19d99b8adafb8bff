package exp

import (
	"strings"
	"testing"

	"wrht/internal/dnn"
)

func TestTable1ReproducesPaper(t *testing.T) {
	tab, err := Table1()
	if err != nil {
		t.Fatal(err)
	}
	out := tab.String()
	for _, cell := range []string{"2046", "417", "20", "3"} {
		if !strings.Contains(out, cell) {
			t.Errorf("Table 1 missing %q:\n%s", cell, out)
		}
	}
}

func TestFig4ShapeMatchesPaper(t *testing.T) {
	fig, err := Fig4(Defaults())
	if err != nil {
		t.Fatal(err)
	}
	if len(fig.Series) != 4 || len(fig.XTicks) != 4 {
		t.Fatalf("fig4 shape: %d series, %d ticks", len(fig.Series), len(fig.XTicks))
	}
	// Per workload: time is non-increasing in m and plateaus at 1.
	for x := range fig.XTicks {
		prev := fig.Series[0].Y[x]
		for si := 1; si < len(fig.Series); si++ {
			cur := fig.Series[si].Y[x]
			if cur > prev+1e-12 {
				t.Errorf("workload %s: time increased from m-series %d to %d", fig.XTicks[x], si-1, si)
			}
			prev = cur
		}
		last := fig.Series[len(fig.Series)-1].Y[x]
		if last != 1 {
			t.Errorf("workload %s not normalized to 1 at m=129: %g", fig.XTicks[x], last)
		}
	}
}

func TestFig5ShapeMatchesPaper(t *testing.T) {
	r, err := Fig5(Defaults())
	if err != nil {
		t.Fatal(err)
	}
	if len(r.Figures) != 4 {
		t.Fatalf("fig5 has %d subfigures", len(r.Figures))
	}
	for _, fig := range r.Figures {
		byName := map[string][]float64{}
		for _, s := range fig.Series {
			byName[s.Name] = s.Y
		}
		// Ring and BT are flat in wavelengths (§5.4).
		for _, name := range []string{"Ring", "BT"} {
			ys := byName[name]
			for i := 1; i < len(ys); i++ {
				if ys[i] != ys[0] {
					t.Errorf("%s: %s should be flat in wavelengths: %v", fig.Title, name, ys)
				}
			}
		}
		// WRHT is non-increasing and eventually flat.
		w := byName["WRHT"]
		for i := 1; i < len(w); i++ {
			if w[i] > w[i-1]+1e-12 {
				t.Errorf("%s: WRHT time increased with wavelengths: %v", fig.Title, w)
			}
		}
		// H-Ring decreases from w=4 to w>=m then flattens (§5.4).
		h := byName["H-Ring"]
		if !(h[0] > h[1] && h[1] == h[2] && h[2] == h[3]) {
			t.Errorf("%s: H-Ring shape wrong: %v", fig.Title, h)
		}
	}
	// Paper's qualitative claim for Fig 5(b)-style cells: with 4
	// wavelengths and the largest models, WRHT does NOT beat Ring.
	beit := r.Figures[0]
	var wrht4, ring4 float64
	for _, s := range beit.Series {
		switch s.Name {
		case "WRHT":
			wrht4 = s.Y[0]
		case "Ring":
			ring4 = s.Y[0]
		}
	}
	if wrht4 < ring4 {
		t.Errorf("BEiT at w=4: WRHT %.3g unexpectedly beats Ring %.3g (paper says it should not)", wrht4, ring4)
	}
	// BT reduction is large and positive (paper: 75%).
	if r.VsBT < 50 {
		t.Errorf("Fig5 BT reduction = %.2f%%, expected large positive", r.VsBT)
	}
}

func TestFig6ShapeMatchesPaper(t *testing.T) {
	for _, g := range []Granularity{Fused, Bucketed} {
		o := Defaults()
		o.Granularity = g
		r, err := Fig6(o)
		if err != nil {
			t.Fatal(err)
		}
		if len(r.Figures) != 4 {
			t.Fatalf("fig6 has %d subfigures", len(r.Figures))
		}
		for _, fig := range r.Figures {
			for _, s := range fig.Series {
				switch s.Name {
				case "Ring", "H-Ring":
					// Ring-based algorithms grow with N (paper: linear rise).
					for i := 1; i < len(s.Y); i++ {
						if s.Y[i] <= s.Y[i-1] {
							t.Errorf("%s (%s): %s should grow with N: %v", fig.Title, g, s.Name, s.Y)
						}
					}
				case "WRHT":
					// WRHT stays nearly constant: ≤ 2× across the sweep.
					if s.Y[len(s.Y)-1] > 2*s.Y[0] {
						t.Errorf("%s (%s): WRHT not ~constant: %v", fig.Title, g, s.Y)
					}
				}
			}
		}
		// BT is the worst baseline on large models whichever granularity.
		if r.VsBT < 60 {
			t.Errorf("fig6 (%s): BT reduction %.2f%% too small", g, r.VsBT)
		}
	}
	// The bucketed reading reproduces the paper's positive Ring/H-Ring
	// headline reductions.
	o := Defaults()
	o.Granularity = Bucketed
	r, err := Fig6(o)
	if err != nil {
		t.Fatal(err)
	}
	if r.VsRing < 50 {
		t.Errorf("bucketed fig6 vs Ring = %.2f%%, want >50%% (paper 65.23%%)", r.VsRing)
	}
	if r.VsHRing < 10 {
		t.Errorf("bucketed fig6 vs H-Ring = %.2f%%, want >10%% (paper 43.81%%)", r.VsHRing)
	}
}

func TestConstraintsTable(t *testing.T) {
	out := Constraints().String()
	if !strings.Contains(out, "0.020") {
		t.Fatalf("constraints table missing default loss row:\n%s", out)
	}
	lines := strings.Split(strings.TrimSpace(out), "\n")
	if len(lines) < 7 {
		t.Fatalf("constraints table too short:\n%s", out)
	}
}

func TestGranularityString(t *testing.T) {
	if Fused.String() != "fused" || Bucketed.String() != "bucketed" {
		t.Fatal("granularity strings")
	}
}

func TestPayloadsSumToGradient(t *testing.T) {
	fused := Defaults()
	bucketed := Defaults()
	bucketed.Granularity = Bucketed
	for _, m := range dnn.Workloads() {
		var fsum, bsum float64
		for _, p := range fused.payloads(m) {
			fsum += p
		}
		for _, p := range bucketed.payloads(m) {
			bsum += p
		}
		if int64(fsum) != m.GradBytes() || int64(bsum) != m.GradBytes() {
			t.Errorf("%s: payloads fused %.0f bucketed %.0f, want %d", m.Name, fsum, bsum, m.GradBytes())
		}
		if len(bucketed.payloads(m)) <= len(fused.payloads(m)) {
			t.Errorf("%s: bucketed should split into more invocations", m.Name)
		}
	}
}

func TestExtrasTable(t *testing.T) {
	tab, err := Extras(Defaults(), dnn.ResNet50(), 1024, 64)
	if err != nil {
		t.Fatal(err)
	}
	out := tab.String()
	for _, want := range []string{"WRHT", "DBTree", "RD", "NO", "Ring"} {
		if !strings.Contains(out, want) {
			t.Errorf("extras table missing %q:\n%s", want, out)
		}
	}
}

func TestStragglersDeterministicAndOrdered(t *testing.T) {
	o := Defaults()
	ta, err := Stragglers(o, dnn.ResNet50(), 64, 8, 0.2, 5, 7)
	if err != nil {
		t.Fatal(err)
	}
	tb, err := Stragglers(o, dnn.ResNet50(), 64, 8, 0.2, 5, 7)
	if err != nil {
		t.Fatal(err)
	}
	a, b := ta.String(), tb.String()
	if a != b {
		t.Fatal("straggler study not deterministic for a fixed seed")
	}
	for _, name := range []string{"wrht", "ring", "bt"} {
		if !strings.Contains(a, name) {
			t.Errorf("missing %s:\n%s", name, a)
		}
	}
}

func TestFig7ShapeMatchesPaper(t *testing.T) {
	// Scaled-down sweep; TestFig7Golden pins the full-scale one.
	r, err := fig7At(Defaults(), []int{64, 128})
	if err != nil {
		t.Fatal(err)
	}
	if len(r.Figures) != 4 {
		t.Fatalf("fig7 has %d subfigures", len(r.Figures))
	}
	for _, fig := range r.Figures {
		byName := map[string][]float64{}
		for _, s := range fig.Series {
			byName[s.Name] = s.Y
		}
		for i := range byName["E-Ring"] {
			if byName["E-Ring"][i] <= byName["O-Ring"][i] {
				t.Errorf("%s: E-Ring should exceed O-Ring at index %d", fig.Title, i)
			}
		}
	}
	if r.ORingVsERing <= 0 {
		t.Errorf("O-Ring vs E-Ring reduction %.2f%% should be positive", r.ORingVsERing)
	}
	if r.WRHTVsERing <= 0 {
		t.Errorf("WRHT vs E-Ring reduction %.2f%% should be positive", r.WRHTVsERing)
	}
}
