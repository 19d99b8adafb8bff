package optical

import (
	"wrht/internal/core"
	"wrht/internal/fabric"
)

// ringFabric adapts the TeraRack WDM-ring timing model (Eq 6, Table 2)
// to the fabric.Fabric interface: every step pays the MRR
// reconfiguration delay as circuit setup, and the step's transmission is
// the serialization plus O/E/O time of its busiest circuit.
type ringFabric struct {
	p Params
}

// Fabric returns the optical ring as a schedule-execution backend for
// fabric.Engine, validating the Table-2 parameters first.
func (p Params) Fabric() (fabric.Fabric, error) {
	if err := p.validate(); err != nil {
		return nil, err
	}
	return ringFabric{p: p}, nil
}

func (f ringFabric) Name() string { return "optical" }

// CheckSchedule accepts any schedule: the ring hosts exactly the nodes
// the schedule declares.
func (f ringFabric) CheckSchedule(*core.Schedule) error { return nil }

// CircuitBudget returns the per-direction wavelength budget. The
// conflict model uses one fiber ring per direction; see
// Params.EffectiveWavelengths for the fiber multiplicity.
func (f ringFabric) CircuitBudget() int { return f.p.Wavelengths }

func (f ringFabric) GroupCost(bytes float64) fabric.StepCost {
	ser, oeo := f.p.transferParts(bytes)
	return fabric.StepCost{
		Setup:         f.p.ReconfigDelay,
		Serialization: ser,
		OEO:           oeo,
		Total:         f.p.ReconfigDelay + (ser + oeo),
		MaxBytes:      bytes,
	}
}

func (f ringFabric) StepCost(st core.Step, elems int) fabric.StepCost {
	var maxBytes float64
	for _, t := range st.Transfers {
		if b := float64(t.Chunk.Bytes(elems)); b > maxBytes {
			maxBytes = b
		}
	}
	return f.GroupCost(maxBytes)
}

// StepKey disables memoization: the closed-form step cost is cheaper
// than hashing the step.
func (f ringFabric) StepKey(core.Step, int) (string, bool) { return "", false }
