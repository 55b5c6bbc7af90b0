package netem

import (
	"fmt"

	"prudentia/internal/sim"
)

// Config describes one emulated network setting (§3.1).
type Config struct {
	// RateBps is the bottleneck bandwidth. The paper's two standing
	// settings are 8 Mbps ("highly-constrained") and 50 Mbps
	// ("moderately-constrained").
	RateBps int64
	// RTT is the normalized round-trip propagation time; Prudentia pads
	// every service to 50 ms.
	RTT sim.Time
	// QueueCapacity is the drop-tail queue limit in packets. Leave zero
	// to apply the paper's rule: nearest power of two to BufferBDP×BDP.
	QueueCapacity int
	// BufferBDP is the BDP multiple used when QueueCapacity is zero;
	// zero means the default 4.
	BufferBDP int
	// Noise optionally enables the upstream background-noise process.
	Noise *NoiseConfig
	// NoJitter disables the default 2 ms upstream delay jitter (used by
	// ablation benchmarks; see Testbed.UpstreamJitter for why the jitter
	// exists).
	NoJitter bool
}

// HighlyConstrained returns the paper's 8 Mbps setting.
func HighlyConstrained() Config {
	return Config{RateBps: 8_000_000, RTT: 50 * sim.Millisecond}
}

// ModeratelyConstrained returns the paper's 50 Mbps setting.
func ModeratelyConstrained() Config {
	return Config{RateBps: 50_000_000, RTT: 50 * sim.Millisecond}
}

// queueCapacity resolves the effective queue size for the config.
func (c Config) queueCapacity() int {
	if c.QueueCapacity > 0 {
		return c.QueueCapacity
	}
	mult := c.BufferBDP
	if mult == 0 {
		mult = 4
	}
	return QueueSizePackets(c.RateBps, c.RTT, mult)
}

// endpoint is the registered pair of handlers for one flow.
type endpoint struct {
	service  int
	toClient Handler // delivers data packets at the client
	toServer Handler // delivers ACKs back at the server
}

// Testbed is the dumbbell: per-flow server-side ingress, an upstream
// propagation stage (with optional noise), the shared bottleneck, and the
// uncongested ACK return path. RTT normalization follows §3.1: whatever a
// service's native path delay, the switch pads the loop to Config.RTT.
type Testbed struct {
	Eng *sim.Engine
	Cfg Config

	Bneck *Bottleneck

	upstreamDelay sim.Time // server -> switch
	ackDelay      sim.Time // client -> server (returning ACKs)

	flows []endpoint
	noise *noiseInjector
	rng   *sim.RNG

	// pool recycles Packet objects through the dumbbell. The testbed owns
	// the packet lifecycle: substrates allocate with AllocPacket, and the
	// testbed releases at every terminal point (upstream drops, drop-tail
	// losses via the bottleneck, and after the receiving endpoint handler
	// returns). Handlers must not retain packets past their call.
	pool sim.Pool[Packet]

	// The upstream and ACK-return hops are delay lines (see sim.Line): one
	// per flow upstream, where lastArrival keeps each flow's arrivals
	// monotone, and one per slot on the return path, where the ACK delay
	// is constant and stallUntil only grows.
	arriveLines []*sim.Line
	ackLines    [MaxServices]*sim.Line

	// UpstreamJitter is the maximum uniform per-packet delay jitter on
	// the server→switch hop. Real Internet paths exhibit millisecond
	// jitter; without it a deterministic simulator gives the flow that
	// "owns" a full queue a perfect drop-tail lockout (each of its
	// ACK-clocked arrivals exactly claims the slot its own departure
	// freed), which starves competing traffic unrealistically. Packet
	// order within a flow is preserved.
	UpstreamJitter sim.Time

	lastArrival []sim.Time // per-flow monotonic arrival clock

	// ExternalDrops counts packets lost to upstream background noise;
	// the watchdog discards trials whose external loss exceeds 0.05 %.
	ExternalDrops int64
	upstreamSent  int64

	// ChaosDrops counts packets blackholed by injected link flaps. They
	// are kept separate from ExternalDrops so flaps stress throughput
	// and the CI escalation rather than the noise-discard gate.
	ChaosDrops int64

	// Transport event counters, incremented by transport flows on their
	// rare-event paths (never per packet). A testbed is single-threaded
	// on its engine, so plain int64 fields suffice; the obs layer scrapes
	// them into the trial's deterministic aggregate after the run.
	TransportRetransmits int64
	TransportTimeouts    int64
	TransportCwndEvents  int64
	TransportTailProbes  int64

	// Chaos episode counters, incremented by chaos.Config.Arm's fault
	// processes as each injected episode begins ("faults injected by
	// kind" in the obs exposition).
	ChaosFlaps  int64
	ChaosSags   int64
	ChaosStalls int64

	linkDownUntil sim.Time
	stallUntil    [MaxServices]sim.Time
}

// NewTestbed assembles the dumbbell for one experiment on a fresh engine.
func NewTestbed(eng *sim.Engine, cfg Config, rng *sim.RNG) *Testbed {
	if cfg.RTT <= 0 {
		panic("netem: config requires positive RTT")
	}
	// Split the propagation RTT: a short hop from servers to the switch,
	// the rest on the downstream + ACK return. The split is arbitrary for
	// dynamics as long as the loop sums to cfg.RTT; a short upstream hop
	// keeps reaction to ACKs prompt, as with nearby CDN front-ends.
	up := cfg.RTT / 10
	down := cfg.RTT * 4 / 10
	ack := cfg.RTT - up - down

	if rng == nil {
		rng = sim.NewRNG(0)
	}
	tb := &Testbed{
		Eng:            eng,
		Cfg:            cfg,
		upstreamDelay:  up,
		ackDelay:       ack,
		rng:            rng,
		UpstreamJitter: 2 * sim.Millisecond,
	}
	if cfg.NoJitter {
		tb.UpstreamJitter = 0
	}
	tb.Bneck = NewBottleneck(eng, cfg.RateBps, cfg.queueCapacity(), down)
	tb.Bneck.Output = tb.deliverToClient
	tb.Bneck.release = tb.ReleasePacket
	for i := range tb.ackLines {
		tb.ackLines[i] = eng.NewLine(tb.ackArrive)
	}
	if cfg.Noise != nil {
		tb.noise = newNoiseInjector(eng, rng, *cfg.Noise)
	}
	return tb
}

// AllocPacket returns a zeroed packet from the testbed's pool. Substrates
// on the hot path (transport flows, RTC media sources) use this instead of
// allocating, and must hand the packet back to the testbed (SendData or
// SendAck) or release it.
func (tb *Testbed) AllocPacket() *Packet { return tb.pool.Get() }

// ReleasePacket recycles a packet. Callers must not retain it afterwards.
func (tb *Testbed) ReleasePacket(p *Packet) { tb.pool.Put(p) }

// RegisterFlow adds a transport flow owned by experiment slot service.
// toClient receives data packets after the bottleneck; toServer receives
// returning ACKs. It returns the assigned FlowID.
func (tb *Testbed) RegisterFlow(service int, toClient, toServer Handler) int {
	if service < 0 || service >= MaxServices {
		panic(fmt.Sprintf("netem: service slot %d out of range", service))
	}
	tb.flows = append(tb.flows, endpoint{service: service, toClient: toClient, toServer: toServer})
	tb.lastArrival = append(tb.lastArrival, 0)
	tb.arriveLines = append(tb.arriveLines, tb.Eng.NewLine(tb.arrive))
	return len(tb.flows) - 1
}

// SendData injects a data packet at the server side of flow p.FlowID. It
// traverses the upstream hop (where background noise may drop it) and then
// the bottleneck.
func (tb *Testbed) SendData(now sim.Time, p *Packet) {
	if p.FlowID < 0 || p.FlowID >= len(tb.flows) {
		panic(fmt.Sprintf("netem: SendData for unregistered flow id %d (%d registered)", p.FlowID, len(tb.flows)))
	}
	tb.upstreamSent++
	if now < tb.linkDownUntil {
		tb.ChaosDrops++
		tb.pool.Put(p)
		return
	}
	if tb.noise != nil && tb.noise.drops(now) {
		tb.ExternalDrops++
		tb.pool.Put(p)
		return
	}
	delay := tb.upstreamDelay
	if tb.UpstreamJitter > 0 {
		delay += tb.rng.Duration(tb.UpstreamJitter)
	}
	// Keep arrivals within a flow in order despite the jitter.
	arrival := now + delay
	fid := p.FlowID
	if arrival <= tb.lastArrival[fid] {
		arrival = tb.lastArrival[fid] + sim.Nanosecond
	}
	tb.lastArrival[fid] = arrival
	tb.arriveLines[fid].Schedule(arrival, p)
}

// arrive fires when a data packet reaches the switch after the upstream
// hop; the bottleneck takes ownership.
func (tb *Testbed) arrive(at sim.Time, arg any) {
	tb.Bneck.Enqueue(at, arg.(*Packet))
}

func (tb *Testbed) deliverToClient(now sim.Time, p *Packet) {
	ep := tb.flows[p.FlowID]
	if ep.toClient != nil {
		ep.toClient(now, p)
	}
	tb.pool.Put(p)
}

// SendAck returns an acknowledgement from the client to the server of
// flow p.FlowID over the uncongested reverse path. If the owning slot is
// under an injected client stall, the ACK is held (not lost) until the
// stall window ends.
func (tb *Testbed) SendAck(now sim.Time, p *Packet) {
	ep := tb.flows[p.FlowID]
	if ep.toServer == nil {
		tb.pool.Put(p)
		return
	}
	at := now + tb.ackDelay
	if stall := tb.stallUntil[ep.service]; at < stall {
		at = stall
	}
	tb.ackLines[ep.service].Schedule(at, p)
}

// ackArrive fires when an ACK reaches the server. The endpoint is looked
// up at fire time (flows is append-only, so the lookup is equivalent to
// capture-at-send) and the packet is recycled after the handler returns.
func (tb *Testbed) ackArrive(at sim.Time, arg any) {
	p := arg.(*Packet)
	if ep := tb.flows[p.FlowID]; ep.toServer != nil {
		ep.toServer(at, p)
	}
	tb.pool.Put(p)
}

// SetLinkDown blackholes all upstream packets until the given virtual
// time (an injected link flap). Overlapping flaps extend, never shorten,
// the outage.
func (tb *Testbed) SetLinkDown(until sim.Time) {
	if until > tb.linkDownUntil {
		tb.linkDownUntil = until
	}
}

// StallService holds the given slot's ACKs until the given virtual time
// (an injected client stall — the browser-hang analogue). Held ACKs are
// released in order when the stall ends.
func (tb *Testbed) StallService(slot int, until sim.Time) {
	if slot < 0 || slot >= MaxServices {
		panic(fmt.Sprintf("netem: stall slot %d out of range", slot))
	}
	if until > tb.stallUntil[slot] {
		tb.stallUntil[slot] = until
	}
}

// UpstreamSentPackets reports how many packets servers injected upstream.
func (tb *Testbed) UpstreamSentPackets() int64 { return tb.upstreamSent }

// ExternalLossRate reports the fraction of upstream packets lost to noise.
func (tb *Testbed) ExternalLossRate() float64 {
	if tb.upstreamSent == 0 {
		return 0
	}
	return float64(tb.ExternalDrops) / float64(tb.upstreamSent)
}

// BaseRTT returns the configured propagation RTT (excluding queueing).
func (tb *Testbed) BaseRTT() sim.Time { return tb.Cfg.RTT }
