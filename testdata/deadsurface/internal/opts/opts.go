// Package opts holds the fixture's option struct.
package opts

// Options is the fixture's one option struct.
type Options struct {
	// Rate is set from a flag: not flagged.
	Rate int
	// Seam is set only by opts_test.go: rule B flags it.
	Seam int
	// Mode is set to "fast" everywhere: rule C flags it.
	Mode string
	// Codes is set to one literal of constants: rule C flags it.
	Codes []string
	// Rates is set to a literal with a flag's value in it: not flagged.
	Rates []int
}

// Tuning holds the cases of a field that literals leave out.
type Tuning struct {
	// Verbose is set true in one literal and left out of another, which
	// gives it its zero, false: not flagged.
	Verbose bool
	// Workers is left out of every literal and Resolve defaults it, so
	// its zero means the default and does not count: rule C flags it.
	Workers int
}

// Resolve returns t with its defaults filled in.
func (t Tuning) Resolve() Tuning {
	if t.Workers <= 0 {
		t.Workers = 3
	}
	return t
}
