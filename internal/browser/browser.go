// Package browser models the client environment Prudentia drives its
// services through. §3.3 of the paper ("Application Fidelity") documents
// that the client's rendering capability changes the *network* behaviour
// of video services: headless Chrome, missing GPUs, or GPUs without VP9
// decode all cause players to request lower bitrates, silently invalidating
// fairness measurements. The real testbed therefore uses Mac Minis with
// desktop GPUs and a 4K HDMI monitor; this package reproduces the effect
// so that experiments built on the simulator face the same pitfall — and
// so the watchdog can assert it is configured for full fidelity.
package browser

// Client describes the automated browser client environment.
type Client struct {
	// Headless reports whether the browser runs without a real display
	// (e.g. rendering to a virtual xbuf device).
	Headless bool
	// HasGPU reports whether a desktop-class GPU is present.
	HasGPU bool
	// HardwareVP9 reports whether the GPU supports native VP9 decode;
	// without it 4K decode falls behind and players downswitch.
	HardwareVP9 bool
	// DisplayHeight is the attached monitor's vertical resolution
	// (2160 for the 4K monitors the paper requires).
	DisplayHeight int
}

// TestbedClient returns the full-fidelity configuration the paper
// settled on: real display, desktop GPU with VP9 decode, 4K monitor.
func TestbedClient() Client {
	return Client{
		HasGPU:        true,
		HardwareVP9:   true,
		DisplayHeight: 2160,
	}
}

// HeadlessClient returns the configuration the paper warns against.
func HeadlessClient() Client {
	return Client{Headless: true}
}

// RenderCapBps returns the maximum video bitrate (bits/sec) the client
// can render without falling behind, which caps the rungs an ABR player
// will request. Zero means unconstrained (full 4K fidelity).
//
// The thresholds mirror §3.3's observations: headless/virtual-display
// clients are perceived as unable to keep up with the top (4K) bitrates;
// clients without hardware VP9 decode cannot sustain 4K either; small
// displays cap the useful resolution.
func (c Client) RenderCapBps() int64 {
	switch {
	case c.Headless:
		// Virtual framebuffer: players settle around 1080p-class rates.
		return 4_000_000
	case !c.HasGPU:
		// Software decode keeps up with ~1440p at best.
		return 8_000_000
	case !c.HardwareVP9:
		// GPU without native VP9: 4K VP9 decode falls behind (§3.3).
		return 8_000_000
	case c.DisplayHeight > 0 && c.DisplayHeight < 2160:
		// Player will not fetch rungs above the display's resolution.
		if c.DisplayHeight < 1080 {
			return 3_000_000
		}
		return 8_000_000
	default:
		return 0
	}
}
