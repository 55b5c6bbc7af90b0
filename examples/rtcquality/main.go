// Rtcquality explores §5.1: how real-time communication quality (Google
// Meet vs Microsoft Teams) degrades under contention in the
// highly-constrained setting — the differing trade-offs of Obs 5
// (Meet yields resolution; Teams holds bitrate but freezes) and the
// high-delay packets loss-based contenders cause (Obs 6).
package main

import (
	"fmt"
	"log"

	"prudentia/internal/core"
	"prudentia/internal/netem"
	"prudentia/internal/report"
	"prudentia/internal/services"
	"prudentia/internal/sim"
)

func main() {
	contenders := []string{"", "Dropbox", "iPerf (Reno)", "Mega"}
	for _, rtc := range []string{"Google Meet", "Microsoft Teams"} {
		tab := &report.Table{Header: []string{"contender", "resolution", "avg fps", "freezes/min", ">190ms RTT pkts"}}
		for _, cont := range contenders {
			var contSvc services.Service
			if cont != "" {
				contSvc = services.ByName(cont)
			}
			// The engine stops where the window closes, Duration − Cooldown
			// = 85 s: the QoE accumulators cover the call up to there.
			spec := core.Spec{
				Incumbent: services.ByName(rtc),
				Contender: contSvc,
				Net:       netem.HighlyConstrained(),
				Seed:      3,
				Duration:  90 * sim.Second,
				Warmup:    15 * sim.Second,
				Cooldown:  5 * sim.Second,
			}
			res, err := core.RunTrial(spec)
			if err != nil {
				log.Fatal(err)
			}
			st := res.ServiceStats[0].RTC
			name := cont
			if name == "" {
				name = "(solo)"
			}
			tab.Add(name,
				fmt.Sprintf("%dp", st.Resolution),
				fmt.Sprintf("%.1f", st.AvgFPS),
				fmt.Sprintf("%.1f", st.FreezesPerMinute),
				fmt.Sprintf("%.0f%%", 100*st.HighDelayFrac))
		}
		fmt.Printf("%s on the 8 Mbps setting:\n%s\n", rtc, tab)
	}
}
