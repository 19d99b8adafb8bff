package exp

import (
	"testing"

	"wrht/internal/core"
)

// TestStreamedBuildMemCeiling is the acceptance gate for the streaming
// pipeline: a million-node WRHT schedule must build AND validate
// through the streamed path under an asserted live-heap ceiling per
// node. The ceiling covers the producer's single-step buffer, the
// occupancy index and the validator's circuit buffers — all O(max step) +
// O(index) — with headroom for allocator slack; the materialized
// schedule alone would not fit under it.
func TestStreamedBuildMemCeiling(t *testing.T) {
	if testing.Short() {
		t.Skip("full-scale memory ceiling skipped in -short mode")
	}
	const wavelengths = 64
	cfg := core.Config{N: memCeilingNodes, Wavelengths: wavelengths}
	rep, err := StreamedBuildMem(func() (core.StepSource, error) {
		return core.StreamWRHT(cfg)
	}, wavelengths, true)
	if err != nil {
		t.Fatal(err)
	}
	t.Log(rep.String())
	want, err := core.StepsWRHT(cfg)
	if err != nil {
		t.Fatal(err)
	}
	if rep.Steps != want.Total {
		t.Errorf("streamed %d steps, analysis says %d", rep.Steps, want.Total)
	}
	const ceilingBytesPerNode = 1000
	if bpn := rep.BytesPerNode(); bpn > ceilingBytesPerNode {
		t.Errorf("streamed build+validate peaked at %.1f B/node, ceiling %d", bpn, ceilingBytesPerNode)
	}
}

// TestStreamedFootprintBeatsMaterialized pins the point of the whole
// refactor: at the ceiling-test scale the streamed pipeline's peak
// live heap is strictly below the materialized build-then-validate
// path's, which must hold the entire schedule resident.
func TestStreamedFootprintBeatsMaterialized(t *testing.T) {
	if testing.Short() {
		t.Skip("full-scale memory comparison skipped in -short mode")
	}
	const wavelengths = 64
	cfg := core.Config{N: memCeilingNodes, Wavelengths: wavelengths}
	streamed, err := StreamedBuildMem(func() (core.StepSource, error) {
		return core.StreamWRHT(cfg)
	}, wavelengths, true)
	if err != nil {
		t.Fatal(err)
	}
	materialized, err := MaterializedBuildMem(func() (*core.Schedule, error) {
		return core.BuildWRHT(cfg)
	}, wavelengths, true)
	if err != nil {
		t.Fatal(err)
	}
	t.Log(streamed.String())
	t.Log(materialized.String())
	if streamed.AttributableBytes() >= materialized.AttributableBytes() {
		t.Errorf("streamed peak %d B not below materialized %d B",
			streamed.AttributableBytes(), materialized.AttributableBytes())
	}
}
