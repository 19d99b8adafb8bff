// wavelength_sweep: how much WDM does each all-reduce exploit?
//
// Sweeps the available wavelength count on a 1024-node optical ring and
// reports communication time per algorithm for a VGG16 gradient — the
// per-DNN slice of the paper's Figure 5. Ring and BT stay flat (they use
// a single wavelength), H-Ring gains a little, WRHT's step count shrinks
// with m = 2w+1 until the wavelengths stop helping. The raw series are
// also written to wavelength_sweep.json in the internal/api figures
// schema, the document `wrhtsim -json` writes for the paper figures.
//
// Uses only the public wrht API plus the api schema's encoder.
package main

import (
	"fmt"
	"log"
	"os"

	"wrht"
	"wrht/internal/api"
	"wrht/internal/metrics"
)

func main() {
	log.SetFlags(0)
	const n = 1024
	model := wrht.VGG16()
	d := float64(model.GradBytes())
	waves := []int{1, 2, 4, 8, 16, 32, 64, 128, 256}

	table := &metrics.Table{
		Title:   fmt.Sprintf("Communication time (ms) for %s (%.0f MB) on a %d-node optical ring", model.Name, d/1e6, n),
		Headers: []string{"wavelengths", "Ring", "H-Ring", "BT", "WRHT", "WRHT steps"},
	}
	fig := api.Figure{
		Name:  "wavelength_sweep",
		Title: fmt.Sprintf("%s on a %d-node optical ring: communication time (s) vs wavelengths", model.Name, n),
	}
	var ringY, hringY, btY, wrhtY []float64

	for _, w := range waves {
		p := wrht.DefaultOpticalParams()
		p.Wavelengths = w
		time := func(pr wrht.Profile) float64 {
			res, err := wrht.Simulate(wrht.Optical, pr, d, wrht.WithOpticalParams(p))
			if err != nil {
				log.Fatal(err)
			}
			return res.Time
		}
		wrhtProf, err := wrht.WRHTProfile(wrht.Config{N: n, Wavelengths: w})
		if err != nil {
			log.Fatal(err)
		}
		tr := time(wrht.RingProfile(n))
		th := time(wrht.HRingProfile(n, 5, w))
		tb := time(wrht.BTProfile(n))
		tw := time(wrhtProf)
		table.AddRow(fmt.Sprint(w),
			fmt.Sprintf("%.2f", tr*1e3), fmt.Sprintf("%.2f", th*1e3),
			fmt.Sprintf("%.2f", tb*1e3), fmt.Sprintf("%.2f", tw*1e3),
			fmt.Sprint(wrhtProf.NumSteps()))
		ringY = append(ringY, tr)
		hringY = append(hringY, th)
		btY = append(btY, tb)
		wrhtY = append(wrhtY, tw)
		fig.XTicks = append(fig.XTicks, fmt.Sprint(w))
	}
	fmt.Println(table)

	fig.Series = []api.Series{{Name: "Ring", Y: ringY}, {Name: "H-Ring", Y: hringY}, {Name: "BT", Y: btY}, {Name: "WRHT", Y: wrhtY}}
	f, err := os.Create("wavelength_sweep.json")
	if err != nil {
		log.Fatal(err)
	}
	if err := api.Encode(f, api.FiguresResponse{Version: api.Version, Figures: []api.Figure{fig}}); err != nil {
		log.Fatal(err)
	}
	if err := f.Close(); err != nil {
		log.Fatal(err)
	}
	fmt.Println("raw series written to wavelength_sweep.json")
}
