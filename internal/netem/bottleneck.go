package netem

import (
	"fmt"

	"prudentia/internal/sim"
)

// MaxServices is the number of experiment slots a bottleneck tracks.
// Prudentia experiments are pairwise (incumbent vs contender), but solo
// calibration runs use a single slot.
const MaxServices = 2

// ServiceStats aggregates what the bottleneck observed for one slot.
type ServiceStats struct {
	// ArrivedPackets/ArrivedBytes count packets reaching the queue
	// (including ones later dropped).
	ArrivedPackets int64
	ArrivedBytes   int64
	// DroppedPackets/DroppedBytes count drop-tail losses.
	DroppedPackets int64
	DroppedBytes   int64
	// DeliveredPackets/DeliveredBytes count packets fully serialized onto
	// the downstream link.
	DeliveredPackets int64
	DeliveredBytes   int64
	// QueueDelaySum accumulates per-packet queueing delay (enqueue to
	// start of transmission) for delivered packets.
	QueueDelaySum sim.Time
}

// LossRate returns the fraction of arrived packets that were dropped,
// the quantity plotted in the paper's Fig 12.
func (s ServiceStats) LossRate() float64 {
	if s.ArrivedPackets == 0 {
		return 0
	}
	return float64(s.DroppedPackets) / float64(s.ArrivedPackets)
}

// MeanQueueDelay returns the average queueing delay of delivered packets,
// the quantity plotted in the paper's Fig 13 (Appendix B.3).
func (s ServiceStats) MeanQueueDelay() sim.Time {
	if s.DeliveredPackets == 0 {
		return 0
	}
	return s.QueueDelaySum / sim.Time(s.DeliveredPackets)
}

// OccupancySample is one entry in the queue occupancy time series
// (paper Fig 8 plots exactly this signal).
type OccupancySample struct {
	At sim.Time
	// PerService holds the number of queued packets belonging to each slot.
	PerService [MaxServices]int
	Total      int
}

// Bottleneck is the emulated access link: a drop-tail FIFO queue feeding
// a fixed-rate serializer. It reproduces BESS's role in the testbed.
type Bottleneck struct {
	eng *sim.Engine
	// RateBps is the link speed in bits per second.
	RateBps int64
	// Capacity is the queue limit in packets. Per §3.1 (footnote 6) BESS
	// only supports power-of-two queue sizes; use QueueSizePackets to
	// reproduce that sizing rule.
	Capacity int

	// Output receives packets after serialization plus downstream delay.
	Output Handler
	// DownstreamDelay is the propagation delay from the switch to the
	// client.
	DownstreamDelay sim.Time

	// queue is a fixed-capacity ring buffer: head is the index of the
	// oldest packet, qlen the current depth; highWater is the deepest the
	// queue has been (the occupancy high-water mark the obs layer
	// exports). Tracking it inline costs one compare per enqueue and
	// keeps the hot path free of telemetry branches.
	queue      []*Packet
	head, qlen int
	highWater  int
	perService [MaxServices]int // queued packet counts per slot
	busy       bool

	stats [MaxServices]ServiceStats

	// occupancy sampling
	sampleEvery sim.Time
	samples     []OccupancySample
	sampling    bool

	// Both stages after the queue are delay lines (sim.Line), so the
	// steady-state forwarding loop allocates no closures and sifts no heap
	// entry. The serializer holds one packet at a time and is re-armed from
	// its own callback (serDone starts the next transmission); the
	// downstream hop holds a propagation delay's worth of packets and is
	// FIFO because the delay is constant.
	serLine     *sim.Line
	deliverLine *sim.Line

	// memoSize/memoRate/memoSer memoize SerializationDelay for the common
	// case of back-to-back same-size packets (MTU-filled bulk flows). The
	// memo caches the exact integer-division result, so hits and misses are
	// indistinguishable to the simulation.
	memoSize int
	memoRate int64
	memoSer  sim.Time

	// release, when set, receives packets the bottleneck consumes without
	// handing to Output (drop-tail losses, and deliveries with no Output
	// wired). The owning testbed points it at its packet pool.
	release func(*Packet)

	// DropHook, when set, observes every drop-tail loss (used by traces).
	DropHook func(now sim.Time, p *Packet)
	// EnqueueHook, DequeueHook, and DeliverHook observe the remaining
	// stages of the packet lifecycle: admission to the drop-tail queue,
	// start of serialization, and hand-off to Output after the downstream
	// propagation delay. Together with DropHook they expose the complete
	// per-packet event stream the golden-trace conformance corpus
	// (internal/sim/golden) records and replays; any engine or queue
	// optimization must leave this stream byte-identical. DeliverHook only
	// fires when Output is set — without a consumer there is no delivery.
	EnqueueHook func(now sim.Time, p *Packet)
	DequeueHook func(now sim.Time, p *Packet)
	DeliverHook func(now sim.Time, p *Packet)
}

// NewBottleneck builds a bottleneck on the given engine.
func NewBottleneck(eng *sim.Engine, rateBps int64, capacityPkts int, downstream sim.Time) *Bottleneck {
	if rateBps <= 0 {
		panic(fmt.Sprintf("netem: non-positive link rate %d", rateBps))
	}
	if capacityPkts <= 0 {
		panic(fmt.Sprintf("netem: non-positive queue capacity %d", capacityPkts))
	}
	b := &Bottleneck{
		eng:             eng,
		RateBps:         rateBps,
		Capacity:        capacityPkts,
		DownstreamDelay: downstream,
		queue:           make([]*Packet, capacityPkts),
	}
	b.serLine = eng.NewLine(b.serDone)
	b.deliverLine = eng.NewLine(b.deliver)
	return b
}

// SetRate changes the link speed mid-simulation (chaos bandwidth
// fluctuation). Packets already being serialized finish at the old
// rate; subsequent transmissions use the new one.
func (b *Bottleneck) SetRate(rateBps int64) {
	if rateBps <= 0 {
		panic(fmt.Sprintf("netem: non-positive link rate %d", rateBps))
	}
	b.RateBps = rateBps
}

// SerializationDelay returns how long the link takes to put size bytes on
// the wire.
func (b *Bottleneck) SerializationDelay(size int) sim.Time {
	return sim.Time(int64(size) * 8 * int64(sim.Second) / b.RateBps)
}

// QueueLen reports the instantaneous queue depth in packets.
func (b *Bottleneck) QueueLen() int { return b.qlen }

// HighWater reports the deepest queue occupancy observed so far.
func (b *Bottleneck) HighWater() int { return b.highWater }

// QueueLenFor reports the queued packets attributed to one slot.
func (b *Bottleneck) QueueLenFor(service int) int { return b.perService[service] }

// Stats returns a snapshot of per-slot counters.
func (b *Bottleneck) Stats(service int) ServiceStats { return b.stats[service] }

// Enqueue admits a packet to the drop-tail queue, dropping it if full.
func (b *Bottleneck) Enqueue(now sim.Time, p *Packet) {
	st := &b.stats[p.Service]
	st.ArrivedPackets++
	st.ArrivedBytes += int64(p.Size)
	if b.qlen >= b.Capacity {
		st.DroppedPackets++
		st.DroppedBytes += int64(p.Size)
		if b.DropHook != nil {
			b.DropHook(now, p)
		}
		if b.release != nil {
			b.release(p)
		}
		return
	}
	p.enqueuedAt = now
	b.queue[(b.head+b.qlen)%b.Capacity] = p
	b.qlen++
	if b.qlen > b.highWater {
		b.highWater = b.qlen
	}
	b.perService[p.Service]++
	if b.EnqueueHook != nil {
		b.EnqueueHook(now, p)
	}
	if !b.busy {
		b.transmitNext(now)
	}
}

func (b *Bottleneck) transmitNext(now sim.Time) {
	if b.qlen == 0 {
		b.busy = false
		return
	}
	b.busy = true
	p := b.queue[b.head]
	b.queue[b.head] = nil
	b.head = (b.head + 1) % b.Capacity
	b.qlen--
	b.perService[p.Service]--

	st := &b.stats[p.Service]
	st.QueueDelaySum += now - p.enqueuedAt
	if b.DequeueHook != nil {
		b.DequeueHook(now, p)
	}

	ser := b.memoSer
	if p.Size != b.memoSize || b.RateBps != b.memoRate {
		ser = b.SerializationDelay(p.Size)
		b.memoSize, b.memoRate, b.memoSer = p.Size, b.RateBps, ser
	}
	b.serLine.After(ser, p)
}

// serDone fires when the serializer finishes putting p on the wire: it
// books the delivery, hands the packet downstream, and starts the next
// transmission. Delivery is scheduled before the next serialization so
// same-instant events keep their pre-optimization FIFO order (the golden
// corpus pins it).
func (b *Bottleneck) serDone(done sim.Time, arg any) {
	p := arg.(*Packet)
	st := &b.stats[p.Service]
	st.DeliveredPackets++
	st.DeliveredBytes += int64(p.Size)
	if b.Output != nil {
		b.deliverLine.After(b.DownstreamDelay, p)
	} else if b.release != nil {
		b.release(p)
	}
	b.transmitNext(done)
}

// deliver fires after the downstream propagation delay and hands the
// packet to the Output consumer, which assumes ownership.
func (b *Bottleneck) deliver(at sim.Time, arg any) {
	p := arg.(*Packet)
	if b.DeliverHook != nil {
		b.DeliverHook(at, p)
	}
	b.Output(at, p)
}

// StartSampling begins recording the queue occupancy time series with the
// given period. It must be called at most once.
func (b *Bottleneck) StartSampling(every sim.Time) {
	if b.sampling {
		panic("netem: StartSampling called twice")
	}
	if every <= 0 {
		panic("netem: non-positive sampling period")
	}
	b.sampling = true
	b.sampleEvery = every
	var tick sim.Event
	tick = func(now sim.Time) {
		s := OccupancySample{At: now, Total: b.qlen}
		s.PerService = b.perService
		b.samples = append(b.samples, s)
		b.eng.After(b.sampleEvery, tick)
	}
	b.eng.After(every, tick)
}

// Samples returns the recorded occupancy series.
func (b *Bottleneck) Samples() []OccupancySample { return b.samples }

// TotalDeliveredBytes sums delivered bytes over all slots.
func (b *Bottleneck) TotalDeliveredBytes() int64 {
	var t int64
	for i := range b.stats {
		t += b.stats[i].DeliveredBytes
	}
	return t
}
