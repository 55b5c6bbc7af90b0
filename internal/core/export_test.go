package core

// Bridges for external (package core_test) tests, which exist so tests
// may import packages that themselves import core (e.g. internal/report)
// without creating an in-package import cycle.
var (
	FastOptsForTest      = fastOpts
	HotChaosForTest      = hotChaos
	ThreeServicesForTest = threeServices
)

// MatrixForTest lets external tests drive one setting's matrix directly.
var MatrixForTest = testMatrix
