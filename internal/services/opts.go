package services

import (
	"prudentia/internal/cca"
	"prudentia/internal/transport"
)

// flowOptions returns the transport options appropriate for a flow run
// by the given congestion controller: classic loss-based stacks
// (NewReno, Cubic) get FragileRecovery — they lose their ACK clock under
// burst loss and fall back to timeout recovery — while BBR-era stacks
// ride burst loss out with RACK-style repair (see transport.Options).
func flowOptions(alg cca.Algorithm) transport.Options {
	var o transport.Options
	switch alg.(type) {
	case *cca.NewRenoAlg, *cca.CubicAlg:
		o.FragileRecovery = true
	}
	return o
}
