// Command tool uses the fixture library the way production code would:
// it reads the option fields it sets.
package main

import (
	"flag"
	"fmt"

	"fixture/internal/lib"
	"fixture/internal/opts"
)

func main() {
	rate := flag.Int("rate", 1, "rate")
	flag.Parse()
	o := opts.Options{Rate: *rate, Mode: "fast", Codes: []string{"a", "b"}, Rates: []int{*rate, 2}}
	o.Mode = "fast"
	fmt.Println(lib.Live(), lib.Named{}, o.Rate, o.Mode, o.Codes, o.Rates)
	c := lib.NewConn("peer")
	fmt.Println(c.Addr(), string(c.Send("hi")), lib.NewMeter().Bump())
	var x any = lib.Anon{}
	if a, ok := x.(interface{ Advance(int) }); ok {
		a.Advance(1)
	}
	var s lib.Stepper = lib.Walker{}
	s.Step()
	s.Stop()
}
