// Package netem emulates the Prudentia testbed network: a dumbbell
// topology whose bottleneck is a fixed-rate link behind a drop-tail FIFO
// queue, exactly the role the BESS software switch plays in the paper
// (§3.1). It provides the same knobs — access link speed, queue size,
// added delay for RTT normalization — and the same instrumentation —
// queue occupancy, per-service loss, and queueing delay — that the
// paper's deeper analyses (Figs 8, 11, 12, 13) rely on.
package netem

import "prudentia/internal/sim"

// Packet is the unit of transfer across the emulated network. Fields
// cover both directions (data downstream, ACKs upstream); the sender keeps
// its rate-sampling state per packet on its own side. Keeping one
// concrete struct avoids interface dispatch on the hottest path in the
// simulator.
type Packet struct {
	// FlowID identifies the transport flow, assigned by the Testbed at
	// registration time. It indexes the Testbed routing table.
	FlowID int
	// Service is the experiment slot (0 = incumbent, 1 = contender) the
	// flow belongs to; the bottleneck attributes arrivals, drops, queue
	// occupancy, and delivered bytes per slot using it.
	Service int
	// Size is the wire size in bytes (headers included).
	Size int
	// Seq is the data sequence number in packet units.
	Seq int64
	// SentAt is the sender's virtual transmit timestamp. RTC stamps its
	// media packets with it to measure one-way delay.
	SentAt sim.Time
	// CumAck is the receiver's cumulative in-order acknowledgement
	// (next expected Seq) carried by ACKs.
	CumAck int64
	// HighestSeq is the highest data Seq the receiver has observed,
	// a SACK-lite hint used for fast-retransmit decisions.
	HighestSeq int64
	// AckedSeq echoes the Seq of the data packet triggering this ACK.
	AckedSeq int64
	// Frame and FramePackets support unreliable media transport: Frame
	// identifies the video frame this packet belongs to and FramePackets
	// is the frame's total packet count, letting the receiver detect
	// frame completion without reassembly state handshakes.
	Frame        int64
	FramePackets int
	// enqueuedAt is stamped by the bottleneck queue for delay accounting.
	enqueuedAt sim.Time
}

// Handler consumes packets at a stage boundary (receiver or ACK sink).
type Handler func(now sim.Time, p *Packet)
