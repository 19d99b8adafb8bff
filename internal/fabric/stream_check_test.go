package fabric_test

import (
	"strings"
	"testing"

	"wrht/internal/core"
	"wrht/internal/electrical"
	"wrht/internal/fabric"
	"wrht/internal/optical"
	"wrht/internal/tensor"
	"wrht/internal/topo"
)

// TestRunStreamRejectsMalformedSteps: a streamed step with a node out
// of range, a self transfer or a malformed chunk is an error on both
// fabrics, validated or not, never a panic in a fabric's cost model.
// The fat-tree's RunSchedule rejects the same schedules.
func TestRunStreamRejectsMalformedSteps(t *testing.T) {
	nw, err := electrical.NewNetwork(8, electrical.DefaultParams())
	if err != nil {
		t.Fatal(err)
	}
	opt, err := optical.DefaultParams().Fabric()
	if err != nil {
		t.Fatal(err)
	}
	fabrics := map[string]fabric.Fabric{"electrical": nw.Fabric(), "optical": opt}
	good := core.Transfer{Src: 0, Dst: 1, Chunk: tensor.Whole, Dir: topo.CW}
	bad := map[string]core.Transfer{
		"out of range":  {Src: 0, Dst: 9, Chunk: tensor.Whole, Dir: topo.CW},
		"self transfer": {Src: 3, Dst: 3, Chunk: tensor.Whole, Dir: topo.CW},
		"chunk 5/2":     {Src: 0, Dst: 1, Chunk: tensor.Chunk{Index: 5, Of: 2}, Dir: topo.CW},
	}
	for name, tr := range bad {
		s := &core.Schedule{Algorithm: "test", Ring: topo.NewRing(8), Steps: []core.Step{
			{Transfers: []core.Transfer{good}},
			{Transfers: []core.Transfer{tr}},
		}}
		if _, err := (fabric.Engine{Fabric: nw.Fabric()}).RunSchedule(s, 1024); err == nil {
			t.Errorf("%s: electrical RunSchedule accepted the schedule", name)
		}
		for fname, f := range fabrics {
			for _, validate := range []bool{false, true} {
				eng := fabric.Engine{Fabric: f, Opts: fabric.Options{ValidateWavelengths: validate}}
				func() {
					defer func() {
						if p := recover(); p != nil {
							t.Errorf("%s on %s (validate=%v): RunStream panicked: %v", name, fname, validate, p)
						}
					}()
					_, err := eng.RunStream(s.Source(), 1024)
					if err == nil {
						t.Errorf("%s on %s (validate=%v): RunStream accepted the step", name, fname, validate)
					} else if !strings.Contains(err.Error(), "step 1 transfer 0") {
						t.Errorf("%s on %s (validate=%v): error does not name the transfer: %v", name, fname, validate, err)
					}
				}()
			}
		}
	}
}
