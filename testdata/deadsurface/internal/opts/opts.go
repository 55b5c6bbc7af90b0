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
