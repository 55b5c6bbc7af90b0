// Package cca implements the congestion control algorithms of the
// services in the Prudentia catalog (Table 1): NewReno, Cubic (standard
// and OneDrive's extended variant), BBRv1 (parameterized to mimic the
// Linux 4.15 and 5.15 trees, whose differing fairness the paper's Fig 9b
// documents), BBRv3 (deployed to Google Drive during the study, Fig 9a),
// and GCC, the delay-based controller WebRTC services use.
//
// Window-based algorithms implement Algorithm and plug into
// internal/transport flows; GCC drives the RTC media path directly.
package cca

import "prudentia/internal/sim"

// AckSample carries what an ACK tells the congestion controller: the
// RTT sample, the packets newly delivered, the delivery-rate sample and
// the flow's inflight and recovery state. The transport layer computes
// delivery-rate samples (per the BBR delivery-rate-estimation draft) so
// algorithms stay pure control logic.
type AckSample struct {
	// RTT is the round-trip sample from the packet that triggered this ACK.
	RTT sim.Time
	// AckedPackets is how many packets this ACK newly delivered.
	AckedPackets int
	// TotalDelivered is the flow's lifetime delivered byte count.
	TotalDelivered int64
	// PacketDelivered is the sender's delivered counter when the acked
	// packet was originally sent (the per-packet snapshot BBR's
	// round-trip counting is defined over).
	PacketDelivered int64
	// DeliveryRate is the bandwidth sample in bytes/sec (0 when invalid).
	DeliveryRate int64
	// RateAppLimited marks samples taken while the application could not
	// fill the pipe; they must not raise bandwidth estimates.
	RateAppLimited bool
	// Inflight is the number of packets outstanding after this ACK.
	Inflight int
	// InRecovery reports whether the flow is in loss recovery.
	InRecovery bool
}

// Algorithm is a window-based congestion controller. Implementations are
// pure state machines: the transport calls the On* hooks and consults
// CwndPackets/PacingRate when deciding to transmit.
type Algorithm interface {
	// OnAck processes one acknowledgement.
	OnAck(now sim.Time, s AckSample)
	// OnCongestionEvent fires once per loss-recovery episode (the
	// classic "multiplicative decrease once per window" semantics).
	OnCongestionEvent(now sim.Time)
	// OnTimeout fires when the retransmission timer expires.
	OnTimeout(now sim.Time)
	// OnExitRecovery fires when loss recovery completes.
	OnExitRecovery(now sim.Time)
	// CwndPackets is the current congestion window in packets.
	CwndPackets() int
	// PacingRate is the sending rate in bytes/sec; zero means the flow is
	// purely ACK-clocked (classic loss-based stacks).
	PacingRate() int64
}

// Config carries transport parameters shared by all algorithms. Every
// data packet is netem.WirePacketSize bytes.
type Config struct {
	// InitialCwnd is the initial window in packets (default 10, per
	// RFC 6928-era stacks).
	InitialCwnd int
}

// withDefaults normalizes a Config.
func (c Config) withDefaults() Config {
	if c.InitialCwnd == 0 {
		c.InitialCwnd = 10
	}
	return c
}

// maxInt is a saturation bound for window arithmetic.
const maxInt = int(^uint(0) >> 1)
