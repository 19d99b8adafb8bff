package core_test

import (
	"fmt"
	"testing"

	"wrht/internal/collective"
	"wrht/internal/core"
)

// BenchmarkValidateKinds times Schedule.Validate on every schedule kind
// the paper compares, at the wavelength count each schedule needs. The
// kinds stress different step transitions: Ring repeats one step's
// neighbour circuits 2(N−1) times, H-Ring (m=8) repeats its intra- and
// inter-group circuits, BT and RD change every circuit each step, and
// WRHT (w=64) moves between gather levels that share no circuit. Each
// schedule is built on first use inside its sub-benchmark, so a
// filtered run (CI smokes N=1024) builds only what it times; Ring at
// N=4096 materializes 2.1 GB of transfers.
func BenchmarkValidateKinds(b *testing.B) {
	kinds := []struct {
		name  string
		build func(n int) (*core.Schedule, error)
	}{
		{"Ring", func(n int) (*core.Schedule, error) { return collective.BuildRing(n), nil }},
		{"HRing", func(n int) (*core.Schedule, error) { return collective.BuildHRing(n, 8, 64) }},
		{"BT", func(n int) (*core.Schedule, error) { return collective.BuildBT(n), nil }},
		{"RD", collective.BuildRD},
		{"WRHT", func(n int) (*core.Schedule, error) { return core.BuildWRHT(core.Config{N: n, Wavelengths: 64}) }},
	}
	for _, n := range []int{1024, 4096} {
		for _, k := range kinds {
			var s *core.Schedule
			b.Run(fmt.Sprintf("%s/N%d", k.name, n), func(b *testing.B) {
				if s == nil {
					var err error
					if s, err = k.build(n); err != nil {
						b.Fatal(err)
					}
					b.ResetTimer()
				}
				w := s.WavelengthsNeeded()
				b.ReportAllocs()
				for i := 0; i < b.N; i++ {
					if err := s.Validate(w); err != nil {
						b.Fatal(err)
					}
				}
			})
		}
	}
}
