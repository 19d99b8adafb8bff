package api

import (
	"bytes"
	"encoding/json"
	"reflect"
	"strings"
	"testing"
)

// Every schema type must survive encode → decode → deep-equal with all
// fields populated: a field that drops, renames or collides in JSON
// breaks the CLI/daemon byte-parity contract, and this is where it
// surfaces first.
func TestSchemaRoundTrip(t *testing.T) {
	root := 3
	stepCost := StepCost{Setup: 1e-5, Serialization: 2e-3, OEO: 3e-7, RouterDelay: 4e-7, Total: 2.1e-3, MaxBytes: 1 << 20}
	stepReport := StepReport{Phase: "reduce", Cost: stepCost, Overlapped: 5e-6}
	simResult := SimResult{
		Fabric:       "optical",
		Algorithm:    "wrht",
		Steps:        7,
		Time:         0.25,
		TransferTime: 0.2,
		OverheadTime: 0.04,
		RouterTime:   0.01,
		OverlapSaved: 0.005,
		PerStep:      []StepReport{stepReport},
	}
	faults := &FaultSpec{Seed: 7, Nodes: 1, Transceivers: 2, Wavelengths: 3, Segments: 4, MRRs: 5, MRRLossDB: 0.5}
	buildReq := BuildRequest{
		Kind: "wrht", N: 64, Wavelengths: 8, GroupSize: 17, MaxGroupSize: 32,
		Rows: 8, Cols: 8, Participants: []int{0, 1, 2}, Root: &root,
		NoAllToAll: true, Faults: faults, Stream: true,
	}

	cases := []struct {
		name string
		v    any
	}{
		{"FaultSpec", *faults},
		{"BuildRequest", buildReq},
		{"SimulateRequest", SimulateRequest{
			Backend: "optical", Build: buildReq, PayloadBytes: 1e8,
			Overlap: true, Hosts: 64, NoValidate: true, Trace: true,
		}},
		{"SweepRequest", SweepRequest{
			Sweep: "overlap", N: 64, Ns: []int{1024, 4096}, Wavelengths: 64,
			PayloadMB: 100, Passes: "reorder,split", Dead: []int{0, 2}, Seed: 9, Check: true,
		}},
		{"PlanRequest", PlanRequest{
			Rs: []int{4, 8}, Wavelengths: 8, AMicros: []float64{0.4, 25},
			PayloadMB: 25, NoRescue: true, Check: true,
		}},
		{"Error", Error{Code: CodeUnconsumedOption, Message: "option WithDims is not consumed"}},
		{"ErrorEnvelope", ErrorEnvelope{Error: &Error{Code: CodeBadRequest, Message: "bad"}}},
		{"StepCost", stepCost},
		{"StepReport", stepReport},
		{"SimResult", simResult},
		{"BuildResponse", BuildResponse{
			Version: Version, Kind: "wrht", Algorithm: "wrht", N: 64,
			Wavelengths: 8, Steps: 12, Transfers: 480, Validated: true, Streamed: true,
		}},
		{"SimulateResponse", SimulateResponse{
			Version: Version, Backend: "optical", PayloadBytes: 1e8,
			// An indentation-invariant raw value: Encode re-indents embedded
			// raw JSON, which is fine for clients but would fail a byte-level
			// DeepEqual here.
			Result: simResult, Trace: json.RawMessage(`{}`),
		}},
		{"CrossFabricCell", CrossFabricCell{Algorithm: "wrht", Mode: "optical+overlap", Result: simResult}},
		{"CrossFabricResult", CrossFabricResult{
			N: 64, Wavelengths: 8, PayloadBytes: 1e7,
			Cells: []CrossFabricCell{{Algorithm: "ring", Mode: "electrical", Result: simResult}},
		}},
		{"OverlapPoint", OverlapPoint{
			N: 1024, Wavelengths: 64, BaselineSteps: 10, PassSteps: 9,
			BaselineHidden: 3, PassHidden: 7, BaselineSaved: 0.01, PassSaved: 0.02,
			BaselineTime: 0.5, PassTime: 0.45,
		}},
		{"FaultsPoint", FaultsPoint{
			N: 1024, Dead: 2, EffectiveWavelengths: 62, Steps: 11,
			StaticTime: 0.6, Slowdown: 1.05, InjectedTime: 0.61, Reschedules: 1,
		}},
		{"SweepResponse", SweepResponse{
			Version: Version, Sweep: "crossfabric",
			CrossFabric: &CrossFabricResult{N: 64, Wavelengths: 8, PayloadBytes: 1e7},
			Overlap:     []OverlapPoint{{N: 1024, Wavelengths: 64}},
			Faults:      []FaultsPoint{{N: 64, Dead: 1}},
		}},
		{"PlanPoint", PlanPoint{
			Fabric: "optical", R: 8, Wavelengths: 8, AMicro: 25,
			Chosen: "planned", ChosenSteps: 3, Predicted: 0.1, Simulated: 0.11,
			Argmin: true, OneShot: 0.2, Fallback: 0.3,
		}},
		{"RescuePoint", RescuePoint{
			N: 1024, Wavelengths: 16, FinalR: 33, Requirement: 33,
			FallbackSteps: 33, PlannedSteps: 5, FallbackTime: 0.9, PlannedTime: 0.3, Speedup: 3,
		}},
		{"PlanResponse", PlanResponse{
			Version: Version,
			Points:  []PlanPoint{{Fabric: "electrical", R: 4}},
			Rescue:  []RescuePoint{{N: 256, Wavelengths: 8}},
		}},
		{"FiguresResponse", FiguresResponse{
			Version: Version,
			Figures: []Figure{{
				Name: "fig5-0", Title: "Fig 5(a)", XTicks: []string{"8", "16"},
				Series: []Series{{Name: "Ring", Y: []float64{1, 0.5}}, {Name: "WRHT", Y: []float64{0.25, 0.125}}},
			}},
		}},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			var buf bytes.Buffer
			if err := Encode(&buf, tc.v); err != nil {
				t.Fatalf("Encode: %v", err)
			}
			out := reflect.New(reflect.TypeOf(tc.v))
			dec := json.NewDecoder(bytes.NewReader(buf.Bytes()))
			dec.DisallowUnknownFields()
			if err := dec.Decode(out.Interface()); err != nil {
				t.Fatalf("Decode: %v\nencoded: %s", err, buf.Bytes())
			}
			if got := out.Elem().Interface(); !reflect.DeepEqual(got, tc.v) {
				t.Errorf("round trip mismatch:\n got %+v\nwant %+v\nencoded: %s", got, tc.v, buf.Bytes())
			}
		})
	}
}

// Encode must be deterministic and newline-terminated — the format the
// byte-parity guarantee between wrhtsim -json and wrhtd rides on.
func TestEncodeFormat(t *testing.T) {
	var a, b bytes.Buffer
	v := BuildResponse{Version: Version, Kind: "wrht", Algorithm: "wrht", N: 8, Steps: 3, Transfers: 12}
	if err := Encode(&a, v); err != nil {
		t.Fatal(err)
	}
	if err := Encode(&b, v); err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(a.Bytes(), b.Bytes()) {
		t.Error("Encode is not deterministic")
	}
	if !strings.HasSuffix(a.String(), "\n") {
		t.Error("Encode output not newline-terminated")
	}
	if !strings.Contains(a.String(), "\n  \"version\": \"v1\"") {
		t.Errorf("Encode not two-space-indented:\n%s", a.String())
	}
}

// Requests that build identical schedules must share one coalescing
// key; requests that differ must not.
func TestRequestKeys(t *testing.T) {
	// Group size left implicit vs. spelled out as the canonical value:
	// same schedule, same key.
	implicit := BuildRequest{Kind: "wrht", N: 64, Wavelengths: 8}
	explicit := BuildRequest{Kind: "wrht", N: 64, Wavelengths: 8, GroupSize: implicit.Normalize().GroupSize}
	if implicit.Key() != explicit.Key() {
		t.Errorf("canonical-equal builds have different keys:\n%s\n%s", implicit.Key(), explicit.Key())
	}
	// Kind defaulting: empty kind is wrht.
	if (BuildRequest{N: 64, Wavelengths: 8}).Key() != implicit.Key() {
		t.Error("empty kind does not normalize to wrht")
	}
	if implicit.Key() == (BuildRequest{Kind: "wrht", N: 128, Wavelengths: 8}).Key() {
		t.Error("different N share a key")
	}
	// Sweep defaults: passes "" == "all"; faults seed 0 == 1.
	s1 := SweepRequest{Sweep: "overlap", Ns: []int{1024}, Wavelengths: 64, PayloadMB: 100}
	s2 := s1
	s2.Passes = "all"
	if s1.Key() != s2.Key() {
		t.Error("default passes does not normalize to all")
	}
	f1 := SweepRequest{Sweep: "faults", Wavelengths: 8, PayloadMB: 10}
	f2 := f1
	f2.Seed = 1
	if f1.Key() != f2.Key() {
		t.Error("default faults seed does not normalize to 1")
	}
}
