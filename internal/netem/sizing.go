package netem

import "prudentia/internal/sim"

// WirePacketSize is the full-size wire packet (MTU) in bytes, the size of
// every transport data packet and the unit of the congestion
// controllers' windows; the paper's BDP arithmetic (e.g. the "1024
// packet" queue in Fig 8a at 50 Mbps × 50 ms × 4) is consistent with
// 1500-byte packets.
const WirePacketSize = 1500

// BDPPackets returns the bandwidth-delay product expressed in full-size
// packets (rounded down, minimum 1).
func BDPPackets(rateBps int64, rtt sim.Time) int {
	bits := float64(rateBps) * rtt.Seconds()
	pkts := int(bits / (8 * WirePacketSize))
	if pkts < 1 {
		pkts = 1
	}
	return pkts
}

// NearestPowerOfTwo returns the power of two closest to n (ties round up),
// reproducing the BESS queue-sizing quirk from §3.1 footnote 6.
func NearestPowerOfTwo(n int) int {
	if n <= 1 {
		return 1
	}
	lo := 1
	for lo*2 <= n {
		lo *= 2
	}
	hi := lo * 2
	if n-lo < hi-n {
		return lo
	}
	return hi
}

// QueueSizePackets computes the emulated bottleneck queue capacity: the
// power of two nearest to multiple×BDP. The paper's defaults are
// multiple=4 (regular runs) and multiple=8 (the §6 deep-buffer rerun).
func QueueSizePackets(rateBps int64, rtt sim.Time, multiple int) int {
	return NearestPowerOfTwo(multiple * BDPPackets(rateBps, rtt))
}
