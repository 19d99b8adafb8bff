package core

import (
	"fmt"
	"testing"

	"wrht/internal/rwa"
)

// BenchmarkBuildWRHT constructs the full explicit WRHT schedule at the
// paper's wavelength budget (w=64, Lemma-1 group size) for large rings.
// The random-fit variants route the final exchange through rwa.Assign,
// so schedule construction cost tracks the RWA layer directly.
func BenchmarkBuildWRHT(b *testing.B) {
	for _, n := range []int{1024, 4096, 16384} {
		for _, strat := range []rwa.Strategy{rwa.FirstFit, rwa.RandomFit} {
			cfg := Config{N: n, Wavelengths: 64, Strategy: strat, Seed: 1}
			b.Run(fmt.Sprintf("%v/N%d", strat, n), func(b *testing.B) {
				b.ReportAllocs()
				for i := 0; i < b.N; i++ {
					if _, err := BuildWRHT(cfg); err != nil {
						b.Fatal(err)
					}
				}
			})
		}
	}
}

// BenchmarkBuildWRHTStream drives the streamed pipeline end to end —
// StreamWRHT into a StepValidator, whose index follows the stream, the
// schedule never materialized — at sizes up to the million-node point
// the materialized path cannot reach comfortably. ReportAllocs makes
// allocation growth across sizes visible: the per-op totals track the
// widest single step, not the schedule.
func BenchmarkBuildWRHTStream(b *testing.B) {
	for _, n := range []int{16384, 65536, 1 << 20} {
		cfg := Config{N: n, Wavelengths: 64}
		b.Run(fmt.Sprintf("N%d", n), func(b *testing.B) {
			b.ReportAllocs()
			for i := 0; i < b.N; i++ {
				src, err := StreamWRHT(cfg)
				if err != nil {
					b.Fatal(err)
				}
				if err := ValidateSource(src, nil, cfg.Wavelengths); err != nil {
					b.Fatal(err)
				}
			}
		})
	}
}

// BenchmarkBuildWRHTValidate measures full-schedule conflict validation
// — every transfer of every step checked through the bitset occupancy
// index — which before this index was quadratic in per-step transfers.
func BenchmarkBuildWRHTValidate(b *testing.B) {
	for _, n := range []int{1024, 4096, 16384} {
		s, err := BuildWRHT(Config{N: n, Wavelengths: 64})
		if err != nil {
			b.Fatal(err)
		}
		b.Run(fmt.Sprintf("N%d", n), func(b *testing.B) {
			b.ReportAllocs()
			for i := 0; i < b.N; i++ {
				if err := s.Validate(64); err != nil {
					b.Fatal(err)
				}
			}
		})
	}
}
