// Package transport implements the TCP/QUIC-like reliable flows that
// Prudentia's service models send their workloads over. A Flow couples a
// sender (congestion window, pacing, loss detection and recovery, RTT
// estimation, delivery-rate sampling) with a receiver (cumulative +
// selective acknowledgements) across a netem.Testbed path.
//
// The model is packet-granular: every data packet is a full-sized
// segment of netem.WirePacketSize bytes, acknowledgements are
// per-packet, and loss detection uses the modern packet-threshold rule
// (a packet is lost once three later packets have been acknowledged)
// with a retransmission timeout as backstop — close in spirit to
// RACK/QUIC loss recovery, which the services under study run in
// practice.
package transport

import (
	"prudentia/internal/cca"
	"prudentia/internal/netem"
	"prudentia/internal/sim"
)

// Options configures a Flow.
type Options struct {
	// ThrottleBps caps the send rate server-side in bits/sec (0 = none).
	// OneDrive's upstream 45 Mbps cap (Table 1) uses this.
	ThrottleBps int64
	// BurstOnIdleRestart sends up to a full congestion window unpaced
	// when transmission resumes after an idle period (pipe empty, fresh
	// application data). This models stacks that do not pace out of
	// idle — the behaviour behind Mega's batch-start bursts (Obs 4): all
	// five connections resume simultaneously with wide-open windows and
	// slam the bottleneck queue.
	BurstOnIdleRestart bool
	// FragileRecovery models classic loss-based stacks under burst loss:
	// when a single detection episode marks a large fraction of the
	// window lost, the ACK clock is effectively gone and the flow takes
	// a timeout-style collapse (cwnd to one segment) rather than a
	// surgical SACK repair. BBR-era stacks with RACK ride such episodes
	// out; NewReno/Cubic deployments of the paper's era frequently did
	// not, which is the mechanism behind Obs 4/9: Mega's synchronized
	// bursts repeatedly knock loss-based competitors into timeout
	// recovery while BBR competitors recover in stride.
	FragileRecovery bool
}

// message is an application write awaiting delivery confirmation.
type message struct {
	endSeq int64 // first seq after the message's last packet
	onDone func(now sim.Time)
}

// pktMeta is the sender's per-packet bookkeeping. seq and present are
// metaRing bookkeeping: entries live by value in the ring's slot array.
type pktMeta struct {
	seq           int64
	sentAt        sim.Time
	delivered     int64    // sender's delivered counter at send time
	deliveredTime sim.Time // timestamp of that counter
	appLimited    bool
	retransmitted bool
	acked         bool
	lost          bool
	present       bool
}

// rtxEntry is one retransmission awaiting its acknowledgement. at is when
// it was sent; the packet's sentAt only ever moves later (a tail probe of
// the same sequence refreshes it), so at is a lower bound on it.
type rtxEntry struct {
	seq int64
	at  sim.Time
}

// Flow is one reliable transport connection between a service's server
// and the testbed client.
type Flow struct {
	eng  *sim.Engine
	tb   *netem.Testbed
	opts Options
	alg  cca.Algorithm

	id      int
	service int

	// Sender state.
	nextSeq    int64
	cumAck     int64
	sent       metaRing
	inflight   int
	rtxQueue   sim.Ring[int64]
	lossScan   int64 // seqs below this have been loss-checked
	nextSendAt sim.Time
	paceTimer  *sim.Timer

	// trySendEv and onRTOEv are the flow's two timer callbacks, bound once
	// at construction so each pacing arm and RTO re-arm is allocation-free.
	trySendEv sim.Event
	onRTOEv   sim.Event

	// App data.
	bulk        bool
	pendingPkts int64
	messages    sim.Ring[message]

	// Idle-restart burst budget (see Options.BurstOnIdleRestart).
	burstBudget int

	// rtxOutstanding tracks retransmitted, not-yet-acked sequence
	// numbers. The packet-threshold detector cannot re-detect them (its
	// watermark already passed), so they get RACK-style time-based
	// detection: still unacked 1.25×SRTT after (re)transmission while
	// later data keeps being acknowledged ⇒ lost again. Entries are in
	// send order, so the first one's send time bounds them all.
	rtxOutstanding []rtxEntry

	// Delivery accounting (bytes).
	delivered     int64
	deliveredTime sim.Time

	// App-limited marking per the delivery-rate draft.
	appLimitedUntil int64

	// RTT estimation (RFC 6298).
	srtt, rttvar sim.Time
	rtoTimer     *sim.Timer
	// probePending marks that the next expiry is a tail-loss probe
	// (RACK/TLP-style): retransmit the highest outstanding packet to
	// elicit acknowledgements instead of collapsing the window. Only the
	// following expiry is a full RTO.
	probePending bool

	// Recovery state.
	recoveryEnd int64 // in recovery while cumAck < recoveryEnd
	inRecovery  bool

	// Receiver state.
	rcvExpected int64
	rcvHighest  int64
	rcvOOO      rcvSet // seqs received above rcvExpected

	// Timeouts counts this flow's RTO and fragile-recovery collapses;
	// the testbed sums every flow's retransmissions, probes and timeouts.
	Timeouts int64

	closed bool
}

// NewFlow creates a flow on the testbed attributed to experiment slot
// service, driven by congestion controller alg.
func NewFlow(tb *netem.Testbed, service int, alg cca.Algorithm, opts Options) *Flow {
	f := &Flow{
		eng:     tb.Eng,
		tb:      tb,
		opts:    opts,
		alg:     alg,
		service: service,
	}
	f.paceTimer = tb.Eng.NewTimer()
	f.rtoTimer = tb.Eng.NewTimer()
	f.trySendEv = f.trySend
	f.onRTOEv = f.onRTO
	f.id = tb.RegisterFlow(service, f.onDataAtClient, f.onAckAtServer)
	return f
}

// DeliveredBytes returns the sender's count of acknowledged bytes.
func (f *Flow) DeliveredBytes() int64 { return f.delivered }

// SetBulk puts the flow in infinite-source mode (iPerf-style).
func (f *Flow) SetBulk() {
	f.bulk = true
	f.trySend(f.eng.Now())
}

// Close stops the flow: pending data is dropped and timers cancelled.
func (f *Flow) Close() {
	f.closed = true
	f.bulk = false
	f.pendingPkts = 0
	f.messages.Clear()
	f.rtoTimer.Stop()
	f.paceTimer.Stop()
}

// Write queues size bytes for transmission; onDone (optional) fires when
// the whole write has been acknowledged by the client.
func (f *Flow) Write(size int64, onDone func(now sim.Time)) {
	if f.closed || size <= 0 {
		if onDone != nil && size <= 0 {
			onDone(f.eng.Now())
		}
		return
	}
	pkts := (size + netem.WirePacketSize - 1) / netem.WirePacketSize
	if f.opts.BurstOnIdleRestart && f.inflight == 0 && f.pendingPkts == 0 {
		// Resuming from idle: the first window's worth goes out unpaced.
		f.burstBudget = f.alg.CwndPackets()
	}
	f.pendingPkts += pkts
	end := f.nextSeq + f.pendingPkts
	if onDone != nil {
		f.messages.PushBack(message{endSeq: end, onDone: onDone})
	}
	f.trySend(f.eng.Now())
}

// hasData reports whether the application has packets to send.
func (f *Flow) hasData() bool { return f.bulk || f.pendingPkts > 0 }

// packetInterval returns the pacing interval for one packet at rate
// (bytes/sec).
func packetInterval(rateBytesPerSec int64) sim.Time {
	if rateBytesPerSec <= 0 {
		return 0
	}
	return sim.Time(netem.WirePacketSize * int64(sim.Second) / rateBytesPerSec)
}

// effectivePacingRate combines the CCA pacing rate with the server-side
// throttle, in bytes/sec. Zero means unpaced.
func (f *Flow) effectivePacingRate() int64 {
	rate := f.alg.PacingRate()
	if f.opts.ThrottleBps > 0 {
		tb := f.opts.ThrottleBps / 8
		if rate == 0 || tb < rate {
			rate = tb
		}
	}
	return rate
}

// trySend transmits as much as window, data, and pacing allow.
func (f *Flow) trySend(now sim.Time) {
	if f.closed {
		return
	}
	for {
		cwnd := f.alg.CwndPackets()
		if f.inflight >= cwnd {
			return
		}
		retransmit := f.rtxQueue.Len() > 0
		if !retransmit && !f.hasData() {
			// Application-limited: subsequent samples up to nextSeq must
			// not raise bandwidth estimates.
			if f.inflight > 0 {
				f.appLimitedUntil = f.nextSeq
			}
			return
		}
		rate := f.effectivePacingRate()
		if f.burstBudget > 0 {
			rate = 0 // idle-restart burst: pacing suspended
			f.burstBudget--
			f.nextSendAt = now
		}
		if rate > 0 && now < f.nextSendAt {
			if !f.paceTimer.Pending() {
				f.paceTimer.Reset(f.nextSendAt-now, f.trySendEv)
			}
			return
		}
		if retransmit {
			f.sendRetransmit(now)
		} else {
			f.sendNew(now)
		}
		if rate > 0 {
			next := f.nextSendAt
			if now > next {
				next = now
			}
			f.nextSendAt = next + packetInterval(rate)
		}
	}
}

func (f *Flow) sendNew(now sim.Time) {
	seq := f.nextSeq
	f.nextSeq++
	if !f.bulk {
		f.pendingPkts--
	}
	f.transmit(now, seq, false)
}

func (f *Flow) sendRetransmit(now sim.Time) {
	seq := f.rtxQueue.PopFront()
	if m := f.sent.get(seq); m == nil || m.acked {
		return // delivered in the meantime
	}
	f.tb.TransportRetransmits++
	f.rtxOutstanding = append(f.rtxOutstanding, rtxEntry{seq, now})
	f.transmit(now, seq, true)
}

func (f *Flow) transmit(now sim.Time, seq int64, retx bool) {
	throttled := f.opts.ThrottleBps > 0
	meta := f.sent.put(seq)
	meta.sentAt = now
	meta.delivered = f.delivered
	meta.deliveredTime = f.deliveredTime
	meta.appLimited = seq < f.appLimitedUntil || throttled
	meta.retransmitted = retx
	if f.deliveredTime == 0 {
		meta.deliveredTime = now
	}
	f.inflight++

	p := f.tb.AllocPacket()
	p.FlowID = f.id
	p.Service = f.service
	p.Size = netem.WirePacketSize
	p.Seq = seq
	f.tb.SendData(now, p)
	f.armRTO(now)
}

// --- Receiver side -------------------------------------------------

// onDataAtClient handles a data packet arriving at the testbed client.
func (f *Flow) onDataAtClient(now sim.Time, p *netem.Packet) {
	if p.Seq > f.rcvHighest {
		f.rcvHighest = p.Seq
	}
	switch {
	case p.Seq == f.rcvExpected:
		f.rcvExpected++
		for f.rcvOOO.take(f.rcvExpected) {
			f.rcvExpected++
		}
	case p.Seq > f.rcvExpected:
		f.rcvOOO.add(f.rcvExpected, p.Seq)
	default:
		// duplicate of already-delivered data; still acknowledge
	}
	ack := f.tb.AllocPacket()
	ack.FlowID = f.id
	ack.Service = f.service
	ack.Size = 64
	ack.AckedSeq = p.Seq
	ack.CumAck = f.rcvExpected
	ack.HighestSeq = f.rcvHighest
	f.tb.SendAck(now, ack)
}

// --- Sender ACK processing ------------------------------------------

func (f *Flow) onAckAtServer(now sim.Time, p *netem.Packet) {
	if f.closed {
		return
	}
	newly := 0
	var sampleMeta *pktMeta

	// Selective acknowledgement of the echoed packet.
	if m := f.sent.get(p.AckedSeq); m != nil && !m.acked {
		m.acked = true
		if !m.lost {
			f.inflight--
		}
		newly++
		sampleMeta = m
		if !m.retransmitted {
			f.sampleRTT(now - m.sentAt)
		}
	}

	// Cumulative advance: everything below CumAck is delivered.
	for f.cumAck < p.CumAck {
		if m := f.sent.get(f.cumAck); m != nil {
			if !m.acked {
				m.acked = true
				if !m.lost {
					f.inflight--
				}
				newly++
			}
			m.present = false
		}
		f.cumAck++
	}

	if newly > 0 {
		f.delivered += int64(newly) * netem.WirePacketSize
		f.deliveredTime = now
		f.armRTO(now)
	}

	// Exit app-limited once the limited packets are all delivered.
	if f.appLimitedUntil != 0 && f.cumAck >= f.appLimitedUntil {
		f.appLimitedUntil = 0
	}

	wasInRecovery := f.inRecovery
	if f.inRecovery && f.cumAck >= f.recoveryEnd {
		f.inRecovery = false
	}

	// Loss detection: packet-threshold 3 against the highest seq the
	// receiver has seen, plus time-based re-detection of lost
	// retransmissions.
	f.detectLosses(now, p.HighestSeq)
	if newly > 0 {
		f.detectLostRetransmits(now)
	}

	if newly > 0 {
		sample := cca.AckSample{
			AckedPackets:    newly,
			TotalDelivered:  f.delivered,
			PacketDelivered: -1,
			Inflight:        f.inflight,
			InRecovery:      f.inRecovery,
		}
		if sampleMeta != nil {
			sample.PacketDelivered = sampleMeta.delivered
			if !sampleMeta.retransmitted {
				sample.RTT = now - sampleMeta.sentAt
			}
			sample.RateAppLimited = sampleMeta.appLimited
			elapsed := now - sampleMeta.deliveredTime
			if elapsed > 0 {
				sample.DeliveryRate = (f.delivered - sampleMeta.delivered) * int64(sim.Second) / int64(elapsed)
			}
		}
		f.alg.OnAck(now, sample)
	}

	if wasInRecovery && !f.inRecovery {
		f.alg.OnExitRecovery(now)
	}

	f.checkMessageCompletion(now)
	f.trySend(now)
}

// detectLosses marks unacked packets more than the reordering threshold
// below highest as lost and schedules retransmissions.
func (f *Flow) detectLosses(now sim.Time, highest int64) {
	const reorderThreshold = 3
	limit := highest - reorderThreshold + 1 // seqs strictly below are lost
	if limit <= f.lossScan {
		return
	}
	start := f.lossScan
	if f.cumAck > start {
		start = f.cumAck
	}
	lost := 0
	for seq := start; seq < limit; seq++ {
		m := f.sent.get(seq)
		if m == nil || m.acked || m.lost {
			continue
		}
		m.lost = true
		f.inflight--
		f.rtxQueue.PushBack(seq)
		lost++
	}
	f.lossScan = limit
	if lost > 0 {
		if !f.inRecovery {
			f.inRecovery = true
			f.recoveryEnd = f.nextSeq
			f.tb.TransportCwndEvents++
			f.alg.OnCongestionEvent(now)
		}
		if f.opts.FragileRecovery {
			cwnd := f.alg.CwndPackets()
			if lost >= 8 && lost*3 >= cwnd {
				// Burst loss took out a big chunk of the window: the
				// ACK clock is gone; collapse as a timeout would.
				f.Timeouts++
				f.tb.TransportTimeouts++
				f.alg.OnTimeout(now)
			}
		}
	}
}

// detectLostRetransmits requeues retransmitted packets that are still
// unacked well past an RTT while later data is being delivered. It runs
// on every ACK that advances, so it returns before the scan while even
// the oldest entry cannot be overdue; delivered entries then stay in the
// list until the next scan that can find a loss.
func (f *Flow) detectLostRetransmits(now sim.Time) {
	if len(f.rtxOutstanding) == 0 {
		return
	}
	deadline := f.srtt + f.srtt/4
	if deadline == 0 || now-f.rtxOutstanding[0].at <= deadline {
		return
	}
	kept := f.rtxOutstanding[:0]
	for _, ent := range f.rtxOutstanding {
		seq := ent.seq
		m := f.sent.get(seq)
		if m == nil || m.acked {
			continue // delivered; drop from tracking
		}
		if now-m.sentAt <= deadline {
			kept = append(kept, ent)
			continue
		}
		if !m.lost {
			m.lost = true
			f.inflight--
		}
		f.rtxQueue.PushBack(seq)
	}
	f.rtxOutstanding = kept
}

// --- RTT / RTO -------------------------------------------------------

func (f *Flow) sampleRTT(rtt sim.Time) {
	if rtt <= 0 {
		return
	}
	if f.srtt == 0 {
		f.srtt = rtt
		f.rttvar = rtt / 2
		return
	}
	diff := f.srtt - rtt
	if diff < 0 {
		diff = -diff
	}
	f.rttvar = (3*f.rttvar + diff) / 4
	f.srtt = (7*f.srtt + rtt) / 8
}

func (f *Flow) rto() sim.Time {
	if f.srtt == 0 {
		return sim.Second
	}
	r := f.srtt + 4*f.rttvar
	if r < 200*sim.Millisecond {
		r = 200 * sim.Millisecond
	}
	return r
}

// pto returns the tail-loss-probe timeout (2×SRTT, floored).
func (f *Flow) pto() sim.Time {
	if f.srtt == 0 {
		return 500 * sim.Millisecond
	}
	p := 2 * f.srtt
	if p < 20*sim.Millisecond {
		p = 20 * sim.Millisecond
	}
	return p
}

func (f *Flow) armRTO(now sim.Time) {
	f.rtoTimer.Stop()
	if f.inflight == 0 {
		return
	}
	// First expiry is a tail probe, the next a full RTO.
	f.probePending = true
	f.rtoTimer.Reset(f.pto(), f.onRTOEv)
}

// sendTailProbe retransmits the highest outstanding packet so the
// receiver's acknowledgements expose which earlier packets were lost.
func (f *Flow) sendTailProbe(now sim.Time) {
	var highest int64 = -1
	for seq := f.nextSeq - 1; seq >= f.cumAck; seq-- {
		if m := f.sent.get(seq); m != nil && !m.acked {
			highest = seq
			break
		}
	}
	if highest < 0 {
		return
	}
	// The original copy is still nominally in flight; the probe replaces
	// its bookkeeping entry, so release its inflight slot first.
	if m := f.sent.get(highest); !m.lost {
		f.inflight--
	}
	f.tb.TransportTailProbes++
	f.tb.TransportRetransmits++
	f.rtxOutstanding = append(f.rtxOutstanding, rtxEntry{highest, now})
	f.transmit(now, highest, true)
}

func (f *Flow) onRTO(now sim.Time) {
	if f.closed || f.inflight == 0 && f.rtxQueue.Len() == 0 {
		return
	}
	if f.probePending {
		f.sendTailProbe(now)
		// transmit() re-armed a PTO; replace it with a full RTO so a
		// lost probe escalates instead of probing forever.
		f.rtoTimer.Reset(f.rto(), f.onRTOEv)
		f.probePending = false
		return
	}
	f.Timeouts++
	f.tb.TransportTimeouts++
	f.alg.OnTimeout(now)
	// Everything outstanding is presumed lost and must be retransmitted.
	f.rtxQueue.Clear()
	for seq := f.cumAck; seq < f.nextSeq; seq++ {
		m := f.sent.get(seq)
		if m == nil || m.acked {
			continue
		}
		if !m.lost {
			m.lost = true
			f.inflight--
		}
		f.rtxQueue.PushBack(seq)
	}
	f.lossScan = f.nextSeq
	f.inRecovery = true
	f.recoveryEnd = f.nextSeq
	f.nextSendAt = 0
	f.trySend(now)
	if f.inflight > 0 {
		f.armRTO(now)
	}
}

func (f *Flow) checkMessageCompletion(now sim.Time) {
	for f.messages.Len() > 0 && f.cumAck >= f.messages.Front().endSeq {
		if done := f.messages.PopFront().onDone; done != nil {
			done(now)
		}
	}
}
