package lib

// Stepper is what the command calls a Walker through.
type Stepper interface {
	Step()
	Stop()
}

// base is embedded in Walker. It has Step but not Stop, so it does not
// satisfy Stepper on its own.
type base struct{}

// Step satisfies Stepper only through Walker, which embeds base: not
// flagged.
func (base) Step() {}

// Extra is promoted into Walker too, but no interface has it and nothing
// calls it: rule A flags it.
func (base) Extra() {}

// Walker adds Stop to what it embeds.
type Walker struct{ base }

// Stop satisfies Stepper.
func (Walker) Stop() {}
