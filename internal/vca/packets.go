// Package vca models the three video conferencing applications the paper
// measures — Zoom, Google Meet and Microsoft Teams — as mechanism-faithful
// compositions of the substrates: per-VCA congestion control (internal/cc),
// per-VCA encoding strategy (internal/codec: simulcast for Meet, SVC for
// Zoom, single stream for Teams), per-VCA relay-server behaviour (this
// package's Server), and receiver-side media handling (internal/media).
//
// The package deliberately implements the mechanisms the paper identifies
// rather than curve-fitting its figures; the published shapes re-emerge
// from the mechanism interplay (see DESIGN.md §4).
package vca

import (
	"time"

	"vcalab/internal/cc"
	"vcalab/internal/codec"
	"vcalab/internal/media"
	"vcalab/internal/obs"
	"vcalab/internal/rtp"
)

// Well-known ports used on every host.
const (
	PortMedia    = 5004 // RTP media
	PortFeedback = 5005 // RTCP receiver feedback
	PortSignal   = 5006 // FIR and SFU allocation signalling
)

// Wire overhead per packet: 12 B RTP + 8 B UDP + 20 B IP.
const wireOverhead = 40

// maxPayload is the media packetization MTU budget.
const maxPayload = 1200

// Rate keys give every stream of one origin a dense index, replacing the
// string-keyed per-(origin, stream) maps on the packet path: rate
// estimators and flow-label caches are slices indexed by rate key. SVC
// layers extend past rkSVC (layer L maps to rkSVC+L), so rkSVC must stay
// the last constant.
const (
	rkVideo   uint8 = iota // "video"
	rkSimLow               // "sim/low"
	rkSimHigh              // "sim/high"
	rkAudio                // "audio"
	rkPad                  // "pad"
	rkFEC                  // "fec"
	rkSVC                  // "svc", layer 0; layer L -> rkSVC+L
)

// streamRK maps a codec stream ID to its rate key, stamped once at packet
// creation so no forwarding hop re-derives it.
func streamRK(stream string) uint8 {
	switch stream {
	case "video":
		return rkVideo
	case "sim/low":
		return rkSimLow
	case "sim/high":
		return rkSimHigh
	case "svc":
		return rkSVC
	case "audio":
		return rkAudio
	case "pad":
		return rkPad
	case "fec":
		return rkFEC
	}
	return rkVideo
}

// rateKey expands a packet's stamped rate key with its SVC layer.
func (m *MediaPacket) rateKey() int {
	k := int(m.RK)
	if m.RK == rkSVC {
		k += m.Layer
	}
	return k
}

// MediaPacket is the typed payload of an RTP media packet in the emulator.
// internal/pcap can serialize it to a real RTP packet for traces.
type MediaPacket struct {
	Origin string // participant whose media this is
	// OriginID is Origin's dense call-wide registry ID, stamped at the
	// origin client (or at the SFU for server-generated padding/FEC) and
	// preserved across every forwarding hop: all per-packet routing and
	// accounting indexes by it, never by the name.
	OriginID int32
	StreamID string // "video", "sim/low", "sim/high", "svc", "audio", "pad"
	// RK is StreamID's rate key (see streamRK), stamped alongside OriginID.
	RK       uint8
	Layer    int // SVC layer
	SSRC     uint32
	Seq      uint16
	FrameSeq int
	// LayerEnd marks the last packet of this frame's layer; FrameEnd
	// marks the last packet of the whole frame (top selected layer).
	// The SFU rewrites FrameEnd when it strips SVC layers.
	LayerEnd bool
	FrameEnd bool
	Keyframe bool
	Audio    bool
	Padding  bool // FEC / probe padding

	// OriginSentAt is stamped by the origin client and survives
	// forwarding; E2E is set by a pass-through relay (Teams 2-party) to
	// tell the receiver its delay signal should span the whole path.
	OriginSentAt time.Duration
	E2E          bool

	// RTX marks a NACK-answered retransmission, so the receiver can
	// account it separately and CC can discount it. TWSeq is the
	// transport-wide sequence number the SFU stamps on every packet of
	// one downlink when recovery is on (0 = unstamped; the counter skips
	// 0), feeding the TWCC arrival reports.
	RTX   bool
	TWSeq uint16

	Params    codec.EncodeParams
	HasParams bool

	pool *mpPool // owning free list, nil for literal packets
}

// mpPool is a single-threaded free list of MediaPacket structs shared by
// every client and server of one call. The media path creates one
// MediaPacket per RTP packet at the origin plus one per forwarded copy at
// each SFU; pooling makes all of that allocation-free. Each packet has
// exactly one consumer (its netem delivery), which releases it.
type mpPool struct{ free []*MediaPacket }

func (p *mpPool) get() *MediaPacket {
	if n := len(p.free) - 1; n >= 0 {
		mp := p.free[n]
		p.free = p.free[:n]
		return mp
	}
	return &MediaPacket{pool: p}
}

func (p *mpPool) put(mp *MediaPacket) {
	*mp = MediaPacket{pool: p}
	p.free = append(p.free, mp)
}

// copyOf returns a pooled copy of mp (the SFU's per-receiver rewrite).
func (p *mpPool) copyOf(mp *MediaPacket) *MediaPacket {
	out := p.get()
	*out = *mp
	out.pool = p
	return out
}

// releaseMedia recycles a pooled media packet at its consumption point;
// it is a no-op for literal packets (tests, external builders).
func releaseMedia(mp *MediaPacket) {
	if mp.pool != nil {
		mp.pool.put(mp)
	}
}

// ReleasePayload implements netem.PayloadReleaser: when the emulator
// drops the carrying packet before delivery (queue overflow, random
// loss, unrouteable), the media packet goes back to the pool instead of
// leaking to the garbage collector — keeping loss-heavy sweeps
// allocation-free.
func (m *MediaPacket) ReleasePayload() { releaseMedia(m) }

// Info converts the packet to the receiver-side metadata structure.
// Audio shares the padding path in media.Receiver: it counts toward rate
// and loss but not toward video frame assembly.
func (m *MediaPacket) Info(wireBytes int, sentAt time.Duration) media.PacketInfo {
	return media.PacketInfo{
		Seq:       m.Seq,
		FrameSeq:  m.FrameSeq,
		FrameEnd:  m.FrameEnd,
		Keyframe:  m.Keyframe,
		Bytes:     wireBytes,
		SentAt:    sentAt,
		Padding:   m.Padding || m.Audio,
		Params:    m.Params,
		HasParams: m.HasParams,
	}
}

// FeedbackMsg is the periodic receiver report (100 ms cadence), carrying
// the aggregate interval statistics the congestion controllers consume.
type FeedbackMsg struct {
	From   string // reporting client (or downstream SFU)
	FromID int32  // From's registry ID — the SFU's leg lookup key
	Stats  media.IntervalStats
}

// statsFeedback converts a receiver report into controller feedback; RTT
// follows the repo's synthetic convention (2×queue delay + 40 ms base).
func statsFeedback(now time.Duration, st media.IntervalStats) cc.Feedback {
	return cc.Feedback{
		Now:            now,
		Interval:       st.Interval,
		RTT:            2*st.QueueDelay + 40*time.Millisecond,
		LossFraction:   st.LossFraction,
		ReceiveRateBps: st.RateBps,
		QueueDelay:     st.QueueDelay,
	}
}

// feed hands one feedback report to a controller — a client's uplink
// controller or an SFU leg's — and traces the target change, if any, as
// a CC event for (receiver, sender).
func feed(ctrl cc.Controller, fb cc.Feedback, tracer *obs.Tracer, receiver, sender string) {
	var oldBps float64
	if tracer != nil {
		oldBps = ctrl.TargetBps()
	}
	ctrl.OnFeedback(fb)
	if tracer != nil {
		if newBps := ctrl.TargetBps(); newBps != oldBps {
			tracer.CC(fb.Now, receiver, sender,
				ccReason(fb.LossFraction, fb.QueueDelay, oldBps, newBps), oldBps, newBps)
		}
	}
}

// FIRMsg requests a keyframe for Origin's stream (RTCP FIR, RFC 5104).
type FIRMsg struct {
	From   string
	Origin string
}

// AllocMsg is the Meet SFU's signal to a sender adjusting its low simulcast
// copy under receiver starvation (§3.1: Meet's downlink floor behaviour).
type AllocMsg struct {
	LowBps float64
}

// NackMsg asks the SFU to retransmit missing packets of one origin's
// per-leg sequence space (RTCP generic NACK, rtp.Nack). Immutable after
// construction: sharded runs pass it across region boundaries by
// pointer.
type NackMsg struct {
	From   string
	FromID int32 // receiver's registry ID — the SFU's leg lookup key
	Origin int32 // origin whose (leg, origin) seq space Pairs index
	Pairs  []rtp.NackPair
}

// TWCCMsg carries one transport-wide CC arrival report from a receiver
// to its SFU (rtp.TransportCC over the per-leg TWSeq space). Immutable
// after construction, like NackMsg.
type TWCCMsg struct {
	From   string
	FromID int32
	Report rtp.TransportCC
}

const (
	feedbackWire = 90
	firWire      = 60
	allocWire    = 60
	nackWireBase = 16 // RTCP NACK header; + 4 per pair
	twccWireBase = 24 // simplified TWCC header; + 4 per delta
)
