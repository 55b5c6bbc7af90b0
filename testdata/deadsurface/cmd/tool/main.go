// Command tool uses the fixture library the way production code would.
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
	o := opts.Options{Rate: *rate, Mode: "fast"}
	o.Mode = "fast"
	fmt.Println(lib.Live(), lib.Named{}, o)
	var x any = lib.Anon{}
	if a, ok := x.(interface{ Advance(int) }); ok {
		a.Advance(1)
	}
}
