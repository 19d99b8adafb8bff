package electrical

import (
	"fmt"

	"wrht/internal/core"
	"wrht/internal/fabric"
)

// treeFabric adapts the fat-tree flow model to the fabric.Fabric
// interface. Packet switching needs no circuit setup, so Setup is
// always zero (and overlap mode degenerates to a no-op): a step's cost
// is the max–min fluid-model completion time split into the wire-drain
// part (Serialization) and the residual router-pipeline tail
// (RouterDelay).
type treeFabric struct {
	nw *Network
}

// Fabric returns the fat-tree as a schedule-execution backend for
// fabric.Engine.
func (nw *Network) Fabric() fabric.Fabric { return treeFabric{nw: nw} }

func (f treeFabric) Name() string { return "electrical" }

// CheckSchedule rejects schedules that need more hosts than the tree
// offers, and any transfer the fluid model cannot time: an endpoint
// outside the schedule's ring, a self-transfer (a flow crossing no
// link, which max–min sharing never gives a rate) or a malformed chunk.
func (f treeFabric) CheckSchedule(s *core.Schedule) error {
	n := s.Ring.N
	if n > f.nw.Tree.Hosts {
		return fmt.Errorf("electrical: schedule needs %d hosts, network has %d", n, f.nw.Tree.Hosts)
	}
	for si := range s.Steps {
		for ti := range s.Steps[si].Transfers {
			t := &s.Steps[si].Transfers[ti]
			if t.Src < 0 || t.Src >= n || t.Dst < 0 || t.Dst >= n {
				return fmt.Errorf("electrical: step %d transfer %d: %d->%d outside the %d-node ring", si, ti, t.Src, t.Dst, n)
			}
			if t.Src == t.Dst {
				return fmt.Errorf("electrical: step %d transfer %d: self transfer %d->%d", si, ti, t.Src, t.Dst)
			}
			if err := t.Chunk.Validate(); err != nil {
				return fmt.Errorf("electrical: step %d transfer %d: %w", si, ti, err)
			}
		}
	}
	return nil
}

// CircuitBudget is zero: packet switching imposes no wavelength budget.
// Budget zero disables only the wavelength range check of the engine's
// schedule validation; the structural and conflict checks still run.
func (f treeFabric) CircuitBudget() int { return 0 }

// StepCost solves the fluid model for the step. Total carries the exact
// legacy stepDuration value; the component split is reporting-only.
func (f treeFabric) StepCost(st core.Step, elems int) fabric.StepCost {
	end, drain := f.nw.stepDuration(st, elems)
	var maxBytes float64
	for _, t := range st.Transfers {
		if b := float64(t.Chunk.Bytes(elems)); b > maxBytes {
			maxBytes = b
		}
	}
	return fabric.StepCost{
		Serialization: drain,
		RouterDelay:   end - drain,
		Total:         end,
		MaxBytes:      maxBytes,
	}
}

// GroupCost approximates one profile-group step without congestion:
// the payload is wire-inflated by per-packet framing and drained at one
// link's line rate, then the worst-case router path (three routers when
// traffic can cross edges, one inside a single edge) adds its pipeline
// latency. This is optimistic for steps whose flows share links, which
// is exactly the congestion the explicit-schedule path models — profile
// runs on the electrical fabric are a cross-fabric estimate, not the
// reference number.
func (f treeFabric) GroupCost(bytes float64) fabric.StepCost {
	p := f.nw.Params
	ser := p.wireBytes(bytes) * 8 / p.LinkBps
	routers := 1
	if f.nw.Tree.Edges > 1 {
		routers = 3
	}
	lat := float64(routers) * p.RouterDelay
	return fabric.StepCost{
		Serialization: ser,
		RouterDelay:   lat,
		Total:         ser + lat,
		MaxBytes:      bytes,
	}
}

// StepKey enables memoization: collectives repeat the same transfer
// pattern for thousands of steps, so steps with the same key are solved
// once. The key determines every StepCost field (see Network.stepKey).
func (f treeFabric) StepKey(st core.Step, elems int) (string, bool) {
	return f.nw.stepKey(st, elems), true
}
