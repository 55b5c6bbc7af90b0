package opts

import "testing"

// A test's assignments do not count: Seam stays unassigned and Mode
// keeps its one value.
func TestSeam(t *testing.T) {
	o := Options{Seam: 3, Mode: "slow"}
	if o.Seam != 3 {
		t.Fatal("seam")
	}
}
