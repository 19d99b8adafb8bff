package main

import (
	"bytes"
	"crypto/sha256"
	"fmt"
	"os/exec"
	"strings"
	"testing"

	"wrht"
	"wrht/internal/api"
	"wrht/internal/exp"
	"wrht/internal/fabric"
)

// TestPaperOraclesRejectPerturbedFigures renders a figure with one
// value nudged by 1%, and the straggler table with a wrong clean time;
// both oracles must reject them.
func TestPaperOraclesRejectPerturbedFigures(t *testing.T) {
	o := expOptions(nil)
	f, err := exp.Fig4(o)
	if err != nil {
		t.Fatal(err)
	}
	if err := checkDigest("exp.Fig4", fmt.Sprintln(f)); err != nil {
		t.Fatalf("unperturbed Fig 4 rejected: %v", err)
	}
	f.Series[0].Y[0] *= 1.01
	if checkDigest("exp.Fig4", fmt.Sprintln(f)) == nil {
		t.Error("digest oracle accepted a perturbed Fig 4")
	}

	var strag op
	for _, o := range paperOps(1) {
		if o.name == "exp.Stragglers" {
			strag = o
		}
	}
	out, err := strag.call(&env{opts: o})
	if err != nil {
		t.Fatal(err)
	}
	if err := out.check(); err != nil {
		t.Fatalf("unperturbed straggler table rejected: %v", err)
	}
	bad := strings.Replace(out.text, stragglerClean[2], "327.87", 1)
	if bad == out.text {
		t.Fatal("straggler table does not contain the pinned clean time")
	}
	if judge("exp.Stragglers", opOut{text: bad}, map[string]verdict{"exp.Stragglers": {text: out.text}}) == nil {
		t.Error("a repeated pass with a different table was accepted")
	}
}

func TestStreamOraclesRejectPerturbedOutputs(t *testing.T) {
	good := &api.BuildResponse{N: streamN, Steps: streamSteps, Transfers: streamTransfers, Validated: true, Streamed: true}
	if err := checkStreamBuild(good); err != nil {
		t.Fatalf("correct build response rejected: %v", err)
	}
	bad := *good
	bad.Transfers--
	if checkStreamBuild(&bad) == nil {
		t.Error("build oracle accepted a response one transfer short")
	}
	bad = *good
	bad.Validated = false
	if checkStreamBuild(&bad) == nil {
		t.Error("build oracle accepted an unvalidated build")
	}

	res := fabric.Result{Steps: streamSteps, Time: 3, PerStep: make([]fabric.StepReport, streamSteps)}
	for i := range res.PerStep {
		res.PerStep[i].Cost.Total = 0.5
	}
	if err := checkStreamRun(res, streamSteps, streamTransfers, 25e-6); err != nil {
		t.Fatalf("consistent run rejected: %v", err)
	}
	res.Time = 3.0000001
	if checkStreamRun(res, streamSteps, streamTransfers, 25e-6) == nil {
		t.Error("run oracle accepted a total that is not the sum of its steps")
	}
	res.Time = 3
	if checkStreamRun(res, streamSteps, streamTransfers-1, 25e-6) == nil {
		t.Error("run oracle accepted a stream one transfer short")
	}
}

func TestRewriteOraclesRejectPerturbedOutputs(t *testing.T) {
	o := expOptions(nil)
	const d = 100e6
	ov, err := exp.OverlapSweep(o, []int{1024}, 16, d, nil)
	if err != nil {
		t.Fatal(err)
	}
	var facts rewriteFacts
	if err := checkOverlap(o, ov.Points, 16, d, &facts); err != nil {
		t.Fatalf("overlap sweep rejected: %v", err)
	}
	pts := append([]exp.OverlapPoint(nil), ov.Points...)
	pts[0].PassTime *= 1.001
	if checkOverlap(o, pts, 16, d, &facts) == nil {
		t.Error("overlap oracle accepted a perturbed pass time")
	}

	ps, err := exp.PlanSweep(o, []int{8}, []int{8}, []float64{25}, 25e6)
	if err != nil {
		t.Fatal(err)
	}
	pt := ps.Points[0]
	if err := pt.Check(); err != nil {
		t.Fatalf("plan point rejected: %v", err)
	}
	pt.Simulated *= 1.001
	if pt.Check() == nil {
		t.Error("plan oracle accepted a simulated time that differs from the prediction")
	}

	rescue, err := exp.RescueSweep(o, rescueNs, rescueWs, 25e6)
	if err != nil {
		t.Fatal(err)
	}
	if err := checkRescue(rescue); err != nil {
		t.Fatalf("rescue sweep rejected: %v", err)
	}
	rescue[1].Speedup = 0.99
	if checkRescue(rescue) == nil {
		t.Error("rescue oracle accepted a slowdown")
	}

	deg, err := exp.Degradation(o, faultNs, faultBudget, d, faultDead, 5)
	if err != nil {
		t.Fatal(err)
	}
	if err := checkDegradation(deg.Points, 5); err != nil {
		t.Fatalf("degradation sweep rejected: %v", err)
	}
	deg.Points[3].Steps++
	if checkDegradation(deg.Points, 5) == nil {
		t.Error("degradation oracle accepted a schedule with the wrong step count")
	}
}

// TestDaemonOracleRejectsPerturbedBody feeds the oracle each
// executor's own answer, the answer to a different request, and a body
// with one byte changed.
func TestDaemonOracleRejectsPerturbedBody(t *testing.T) {
	mix, err := genMix(1, "daemon-mix", 2*len(mixTemplates), repeatShare)
	if err != nil {
		t.Fatal(err)
	}
	o := newOracle()
	var prev *request
	for _, req := range mix {
		want, err := o.lookup(req)
		if err != nil {
			t.Fatalf("%s: %v", req.body, err)
		}
		s := &sample{req: req, status: 200, sum: want.sum}
		if err := o.verify(s); err != nil {
			t.Fatalf("the executor's own body rejected: %v", err)
		}
		if prev != nil && prev.key != req.key {
			s.sum = o.want[prev.key].sum
			if o.verify(s) == nil {
				t.Errorf("%s: oracle accepted another request's answer", req.endpoint)
			}
		}
		prev = req
	}
	var b bytes.Buffer
	resp, aerr := wrht.ServeBuild(api.BuildRequest{Kind: "ring", N: 8})
	if aerr != nil {
		t.Fatal(aerr)
	}
	if err := api.Encode(&b, resp); err != nil {
		t.Fatal(err)
	}
	req := &request{endpoint: "build", body: []byte(`{"kind":"ring","n":8}`), key: "ring8"}
	perturbed := bytes.Replace(b.Bytes(), []byte(`"n": 8`), []byte(`"n": 9`), 1)
	if o.verify(&sample{req: req, status: 200, sum: sha256.Sum256(b.Bytes())}) != nil ||
		o.verify(&sample{req: req, status: 200, sum: sha256.Sum256(perturbed)}) == nil {
		t.Error("oracle does not tell a one-byte change from the executor's body")
	}
}

// TestMixRepeatsAThirdOfItsKeys checks the request stream's shape:
// seeded, about a third repeats, every template present.
func TestMixRepeatsAThirdOfItsKeys(t *testing.T) {
	a, err := genMix(3, "daemon-mix", 3000, repeatShare)
	if err != nil {
		t.Fatal(err)
	}
	b, _ := genMix(3, "daemon-mix", 3000, repeatShare)
	seen := map[string]bool{}
	tmpls := map[int]bool{}
	repeats := 0
	for i, req := range a {
		if string(req.body) != string(b[i].body) {
			t.Fatalf("request %d differs between two generations from one seed", i)
		}
		if seen[req.key] {
			repeats++
		}
		seen[req.key] = true
		tmpls[req.tmpl] = true
	}
	if share := float64(repeats) / float64(len(a)); share < 0.28 || share > 0.45 {
		t.Errorf("%.2f of the requests repeat a key, want about a third", share)
	}
	if len(tmpls) != len(mixTemplates) {
		t.Errorf("mix uses %d of %d templates", len(tmpls), len(mixTemplates))
	}
}

// TestPaperTextsMatchCLI checks that every paper operation renders
// exactly what the wrhtsim CLI prints, so the pinned digests are those
// of the CLI's output.
func TestPaperTextsMatchCLI(t *testing.T) {
	if testing.Short() {
		t.Skip("runs the full paper reproduction twice")
	}
	cli := func(args ...string) string {
		out, err := exec.Command("go", append([]string{"run", "wrht/cmd/wrhtsim"}, args...)...).Output()
		if err != nil {
			t.Fatalf("wrhtsim %v: %v", args, err)
		}
		return string(out)
	}
	all := cli("all")
	cross := cli("crossfabric", "-n", "64", "-w", "64")
	e := &env{opts: expOptions(nil)}
	seen := map[string]verdict{}
	for _, o := range paperOps(1) { // wrhtsim seeds the straggler study with 1
		out, err := o.call(e)
		if err != nil {
			t.Fatalf("%s: %v", o.name, err)
		}
		want := all
		if o.name == "exp.CrossFabric" {
			want = cross
		}
		if !strings.Contains(want, out.text) {
			t.Errorf("%s renders text the CLI does not print:\n%s", o.name, out.text)
		}
		if err := judge(o.name, out, seen); err != nil {
			t.Errorf("%s: %v", o.name, err)
		}
	}
}
