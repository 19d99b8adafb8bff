package exp

import (
	"fmt"
	"os"
	"path/filepath"
	"strings"
	"testing"

	"wrht/internal/dnn"
	"wrht/internal/metrics"
)

// checkGolden compares got with testdata/name byte for byte.
func checkGolden(t *testing.T, name, got string) {
	t.Helper()
	want, err := os.ReadFile(filepath.Join("testdata", name))
	if err != nil {
		t.Fatal(err)
	}
	if got != string(want) {
		t.Errorf("output differs from testdata/%s:\n--- got ---\n%s\n--- want ---\n%s", name, got, want)
	}
}

// TestFig7Golden pins the full-scale Fig 7 sweep (N up to 1024, every
// model), rendered exactly as `wrhtsim fig7` prints it, on one worker
// and on two.
func TestFig7Golden(t *testing.T) {
	for _, workers := range []int{1, 2} {
		t.Run(fmt.Sprint("workers", workers), func(t *testing.T) {
			o := Defaults()
			o.Workers = workers
			r, err := Fig7(o)
			if err != nil {
				t.Fatal(err)
			}
			var b strings.Builder
			for _, f := range r.Figures {
				fmt.Fprintln(&b, f)
			}
			fmt.Fprintf(&b, "Fig 7 mean reductions (%s): O-Ring vs E-Ring %s (paper 48.74%%), WRHT vs E-Ring %s (paper 61.23%%), WRHT vs E-RD %s (paper 55.51%%)\n\n",
				o.Granularity, metrics.Pct(r.ORingVsERing), metrics.Pct(r.WRHTVsERing), metrics.Pct(r.WRHTVsERD))
			checkGolden(t, "fig7.golden", b.String())
		})
	}
}

// TestStragglersGolden pins the straggler study at the `wrhtsim
// stragglers` configuration (ResNet50, N=256, w=64, σ=0.2, 20 trials,
// seed 1), rendered exactly as the CLI prints it.
func TestStragglersGolden(t *testing.T) {
	tab, err := Stragglers(Defaults(), dnn.ResNet50(), 256, 64, 0.2, 20, 1)
	if err != nil {
		t.Fatal(err)
	}
	checkGolden(t, "stragglers.golden", fmt.Sprintln(tab))
}
