package browser

import "testing"

func TestTestbedClientIsFullFidelity(t *testing.T) {
	c := TestbedClient()
	if c.RenderCapBps() != 0 {
		t.Fatalf("testbed client capped at %d", c.RenderCapBps())
	}
}

func TestHeadlessClientIsCapped(t *testing.T) {
	c := HeadlessClient()
	if cap := c.RenderCapBps(); cap == 0 || cap > 8_000_000 {
		t.Fatalf("headless cap = %d", cap)
	}
}

func TestRenderCapLadder(t *testing.T) {
	// Each §3.3 failure mode must cap the renderable bitrate.
	cases := []struct {
		name string
		c    Client
		// wantCapped: the client must be constrained.
		wantCapped bool
	}{
		{"full", TestbedClient(), false},
		{"headless", Client{Headless: true}, true},
		{"no GPU", Client{HasGPU: false, DisplayHeight: 2160}, true},
		{"no VP9", Client{HasGPU: true, HardwareVP9: false, DisplayHeight: 2160}, true},
		{"1080p monitor", Client{HasGPU: true, HardwareVP9: true, DisplayHeight: 1080}, true},
		{"720p monitor", Client{HasGPU: true, HardwareVP9: true, DisplayHeight: 720}, true},
	}
	for _, c := range cases {
		got := c.c.RenderCapBps()
		if c.wantCapped && got == 0 {
			t.Errorf("%s: expected a render cap", c.name)
		}
		if !c.wantCapped && got != 0 {
			t.Errorf("%s: unexpected cap %d", c.name, got)
		}
	}
}

func TestSmallerDisplayNeverAllowsMore(t *testing.T) {
	big := Client{HasGPU: true, HardwareVP9: true, DisplayHeight: 1080}
	small := Client{HasGPU: true, HardwareVP9: true, DisplayHeight: 720}
	if small.RenderCapBps() > big.RenderCapBps() {
		t.Fatal("smaller display allows higher bitrate")
	}
}
