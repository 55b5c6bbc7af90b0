package services

import (
	"testing"

	"prudentia/internal/cca"
	"prudentia/internal/sim"
)

// TestFlowOptionsArmsFragileRecovery pins which controllers flowOptions
// gives FragileRecovery: the loss-based stacks (Reno, Cubic and OneDrive's
// extended Cubic) and none of the BBR variants the catalog runs.
func TestFlowOptionsArmsFragileRecovery(t *testing.T) {
	cases := []struct {
		name    string
		mk      AlgFactory
		fragile bool
	}{
		{"reno", RenoFactory(), true},
		{"cubic", CubicFactory(), true},
		{"cubic-extended", CubicExtendedFactory(), true},
		{"bbr1/linux-4.15", BBRFactory(cca.BBRLinux415()), false},
		{"bbr1/linux-5.15", BBRFactory(cca.BBRLinux515()), false},
		{"bbr1/quic-tuned", BBRFactory(quicTuned()), false},
		{"bbr1/quic-2022", BBRFactory(quic2022()), false},
		{"bbr1/mega", BBRFactory(megaBBR()), false},
		{"bbr3", BBRv3Factory(), false},
	}
	for _, c := range cases {
		o := flowOptions(c.mk(sim.NewRNG(1)))
		if o.FragileRecovery != c.fragile {
			t.Errorf("%s: FragileRecovery = %v, want %v", c.name, o.FragileRecovery, c.fragile)
		}
		if o.ThrottleBps != 0 || o.BurstOnIdleRestart {
			t.Errorf("%s: flowOptions set more than FragileRecovery: %+v", c.name, o)
		}
	}
}
