package vca

import (
	"slices"
	"time"

	"vcalab/internal/cc"
	"vcalab/internal/media"
	"vcalab/internal/netem"
	"vcalab/internal/obs"
	"vcalab/internal/rtp"
	"vcalab/internal/sim"
)

// Server is the VCA's relay/SFU. Its behaviour is what differentiates the
// three VCAs' downlink dynamics (§4.2):
//
//   - Meet: per-receiver congestion control selects one of the sender's two
//     simulcast copies, with temporal thinning between them, and can ask the
//     sender to shrink its low copy when a receiver is starved.
//   - Zoom: per-receiver congestion control forwards an SVC layer subset
//     and adds server-generated FEC (§3.1).
//   - Teams: a pure relay — every displayed stream is forwarded and the
//     receiver's RTCP is relayed to the senders, making congestion control
//     end-to-end (and slow, Fig 5b/Fig 6).
//
// In a cascaded call (NewCascadedCall) a Server additionally holds relay
// legs toward peer SFUs: each local origin's media is forwarded once per
// peer over the inter-region link, and the peer re-forwards it to its own
// local receivers. A relay leg is driven by exactly the same leg/fwdState
// machinery as a receiver leg; for Meet/Zoom it terminates congestion
// control per hop (the downstream SFU reports back like a receiver would),
// while for Teams it is a pure pass-through and RTCP stays end-to-end.
//
// Every per-participant table is a dense slice indexed by the call
// registry's IDs (see registry.go); the forward/feedback/stats ticks never
// hash a string. Iteration happens through explicit ID order lists
// (clients, legOrder, per-origin fan-outs) that preserve the exact order
// the string-keyed implementation used, so packet emission — and therefore
// experiment output — is byte-identical.
type Server struct {
	Name string

	eng  *sim.Engine
	prof *Profile
	host *netem.Host
	reg  *registry
	id   int32 // own registry ID

	clients []int32 // locally homed participant IDs, join order
	// displayed maps a receiver ID to the origin IDs it displays (layout
	// order). The receiver may be a peer SFU (the relay subscription).
	displayed [][]int32
	n         int // total participants across all regions
	// passthrough marks a pure relay that forwards packets untouched
	// (Teams in a 2-party call, §4.2): original sequence numbers and
	// origin timestamps survive, so uplink loss and queueing remain
	// visible to the far receiver's end-to-end congestion control.
	passthrough bool

	upRecv []*media.Receiver // origin ID -> uplink stats (nil: not local)
	legs   []*leg            // receiver ID -> forwarding state (nil: no leg)
	// legOrder fixes the iteration order over legs (local clients first,
	// then relay peers) so ticks emit packets deterministically even when
	// several legs share one shaped link (the cascade's inter-region hop).
	legOrder []int32
	// rates[origin][rateKey] tracks per-stream arrival rates; a nil row
	// means the origin is unknown here (e.g. relay probe padding).
	rates [][]rateEst

	// --- cascade state (all empty in a single-SFU call) ---
	relayPeers []int32 // downstream peer SFUs this server relays to
	peers      []int32 // upstream peer SFUs this server receives from
	peerSet    []bool  // ID -> is an upstream peer
	remote     []int32 // origin ID -> upstream peer SFU ID (noID: not remote)
	// relayRecv accounts arrivals per upstream peer so the per-hop
	// feedback loop (Meet/Zoom) can report loss/delay on the relay link.
	relayRecv []*media.Receiver

	// --- hot-path caches ---
	// fanVideo/fanAudio precompute, per origin ID, the legs a packet fans
	// out to (local receiver legs in join order, then relay legs), derived
	// from the displayed sets: the per-packet path walks a slice instead
	// of testing membership per receiver. Rebuilt lazily after any layout
	// or churn change.
	fanVideo [][]*leg
	fanAudio [][]*leg
	fanDirty bool

	pool *mpPool // shared per-call media packet free list
	// Precomputed accounting labels for the fixed-cadence feedback and
	// signalling flows.
	flowRtcpUp, flowRtcpHop, flowRtcpRelay string
	flowFir, flowAlloc                     string

	// rec, when non-nil, is the loss-recovery state (recovery.go): clone
	// conservation accounting and per-origin NACK/RTX counters. Nil
	// unless CallOptions.Recovery — the recovery-off packet path is
	// exactly the pre-recovery one. The RTX buffers themselves hang off
	// each receiver leg's fwdState; TWCC send history off each leg.
	rec *serverRecovery

	tickers []*sim.Ticker
	running bool

	// tracer, when set (Call.SetTracer), records per-leg CC decisions
	// and forwarding switches; fwdSwitches counts the latter
	// unconditionally (cheap, allocation-free).
	tracer      *obs.Tracer
	fwdSwitches uint64
}

// leg is the server's state toward one receiver — a local client, or a peer
// SFU when relay is set.
type leg struct {
	receiver int32
	recvName string // cached for netem addressing
	relay    bool
	ctrl     cc.Controller // nil for Teams (pure relay)
	seq      uint16        // relay legs: one sequence space across origins
	fwd      []*fwdState   // origin ID -> forwarding state
	fwdBytes uint64        // cumulative media bytes sent down this leg
	padOwed  float64
	lastPad  time.Duration
	// flows caches accounting labels per (origin ID, rate key): building
	// the label per forwarded packet would allocate on the hottest path.
	flows [][]string

	// --- loss recovery (nil / zero unless CallOptions.Recovery) ---
	// twSeq is the transport-wide sequence counter for this downlink:
	// every packet of the leg (media, FEC, probe padding) gets the next
	// value in send(), feeding the receiver's TWCC arrival reports. The
	// counter skips 0 so TWSeq==0 always means "unstamped". twHist maps
	// a TWSeq back to its send time and size when the report returns;
	// twccFilter turns report + history into cc.Feedback for ctrl.
	twSeq      uint16
	twHist     *rtp.SentHistory
	twccFilter cc.TWCCFilter
}

// fwdState is the per-(receiver, origin) forwarding state: rewritten
// sequence space, frame renumbering, stream/layer selection and thinning.
type fwdState struct {
	seq        uint16
	frameOut   int
	curInFrame int
	curKeep    bool
	selRK      uint8   // Meet: rate key of the selected simulcast copy
	maxLayer   int     // Zoom: highest forwarded SVC layer
	thinFactor float64 // fraction of frames forwarded
	thinAcc    float64
	needKey    bool // mark next forwarded frame as a keyframe (stream switch)
	fecOwed    float64
	// rtx, when recovery is on, buffers a pooled clone of every packet
	// emitted in this (receiver, origin) sequence space so NACKs can be
	// answered. Lazily created on first emission; relay legs never get
	// one (recovery is last-mile: each region's SFU re-answers locally).
	rtx *rtp.RTXBuffer
}

// newFwd builds forwarding state for one (receiver, origin) pair. At
// construction the maxLayer sentinel (1 << 10) and high-copy selection
// deliberately forward everything until the first control tick has
// measured arrival rates — receiver estimates start optimistic, and the
// first 100 ms of a call carry the keyframes every receiver needs. In a
// running call that sentinel would be stale — it blasts every SVC layer
// (or the high simulcast copy) at receivers whose estimate may not
// sustain even the base layer — so mid-call subscriptions (join, rejoin,
// cascade re-attach) start conservatively at the base layer / low copy
// and upgrade once the origin's arrival rates are measured, the way
// production SFU forwarders admit a new subscriber.
func (s *Server) newFwd() *fwdState {
	fs := &fwdState{curInFrame: -1, selRK: rkSimHigh, maxLayer: 1 << 10, thinFactor: 1}
	if s.running {
		fs.maxLayer = 0
		fs.selRK = rkSimLow
	}
	return fs
}

type rateEst struct {
	bytes int
	rate  float64 // bps, EWMA
}

// newServer builds the SFU on the given host. clients are the locally homed
// participant IDs; total is the call-wide participant count (equal to
// len(clients) in a single-SFU call). The registry must already hold every
// participant and SFU of the call, so all tables size to their final
// density here.
func newServer(eng *sim.Engine, prof *Profile, host *netem.Host, reg *registry, clients []int32, pool *mpPool, total int) *Server {
	n := reg.cap()
	s := &Server{
		Name:      host.Name,
		eng:       eng,
		prof:      prof,
		host:      host,
		reg:       reg,
		id:        reg.intern(host.Name, true),
		displayed: make([][]int32, n),
		n:         total,
		upRecv:    make([]*media.Receiver, n),
		legs:      make([]*leg, n),
		rates:     make([][]rateEst, n),
		peerSet:   make([]bool, n),
		remote:    make([]int32, n),
		relayRecv: make([]*media.Receiver, n),
		fanVideo:  make([][]*leg, n),
		fanAudio:  make([][]*leg, n),
		fanDirty:  true,

		pool:          pool,
		flowRtcpUp:    prof.Name + "/sfu/rtcp-up",
		flowRtcpHop:   prof.Name + "/relay/rtcp-hop",
		flowRtcpRelay: prof.Name + "/sfu/rtcp-relay",
		flowFir:       prof.Name + "/sfu/fir",
		flowAlloc:     prof.Name + "/sfu/alloc",
	}
	for i := range s.remote {
		s.remote[i] = noID
	}
	s.passthrough = prof.NewServerCC == nil && total == 2
	for _, c := range clients {
		s.addClient(c)
	}
	host.HandleFunc(PortMedia, s.onMedia)
	host.HandleFunc(PortFeedback, s.onFeedback)
	host.HandleFunc(PortSignal, s.onSignal)
	return s
}

func (s *Server) newLeg(receiver int32, relay bool) *leg {
	l := &leg{
		receiver: receiver,
		recvName: s.reg.name(receiver),
		relay:    relay,
		fwd:      make([]*fwdState, s.reg.cap()),
		flows:    make([][]string, s.reg.cap()),
	}
	if s.prof.NewServerCC != nil {
		l.ctrl = s.prof.NewServerCC()
	}
	return l
}

// enableRecovery attaches loss-recovery state (called once at call
// construction when CallOptions.Recovery is set, before start). RTX
// buffers and TWCC histories are created lazily on each leg's first
// emission, so mid-call churn needs no special casing here.
func (s *Server) enableRecovery(cfg RecoveryConfig) {
	s.rec = newServerRecovery(cfg, s.reg.cap())
}

// rtxStore clones an outgoing packet into its (receiver, origin) RTX
// buffer so a NACK for its seq can be answered. Relay legs are skipped:
// recovery is last-mile, the downstream SFU re-buffers in its own
// rewritten sequence space. Evicted clones return to the pool, with the
// made/freed counters keeping the conservation invariant checkable.
func (s *Server) rtxStore(l *leg, fs *fwdState, out *MediaPacket, size int) {
	if s.rec == nil || l.relay {
		return
	}
	if fs.rtx == nil {
		fs.rtx = rtp.NewRTXBuffer(s.rec.cfg.RTXBufferPkts)
	}
	clone := s.pool.copyOf(out)
	s.rec.clonesMade++
	if ev := fs.rtx.Put(out.Seq, clone, size, int64(s.eng.Now()/time.Microsecond)); ev != nil {
		releaseMedia(ev.(*MediaPacket))
		s.rec.clonesFreed++
	}
}

// drainFwd releases every RTX clone one forwarding state holds. Every
// teardown path that nils a fwdState must come through here (or
// drainLeg), or clones leak out of the pool conservation accounting.
func (s *Server) drainFwd(fs *fwdState) {
	if fs == nil || fs.rtx == nil {
		return
	}
	fs.rtx.Drain(func(p any) {
		releaseMedia(p.(*MediaPacket))
		s.rec.clonesFreed++
	})
}

// drainLeg drains every fwdState of one leg (the leg is going away).
func (s *Server) drainLeg(l *leg) {
	if l == nil || s.rec == nil {
		return
	}
	for _, fs := range l.fwd {
		s.drainFwd(fs)
	}
}

// drainRecovery releases every RTX clone on every leg (call teardown).
func (s *Server) drainRecovery() {
	if s.rec == nil {
		return
	}
	for _, rid := range s.legOrder {
		s.drainLeg(s.legs[rid])
	}
}

func (s *Server) rebuildLegOrder() {
	s.legOrder = s.legOrder[:0]
	s.legOrder = append(s.legOrder, s.clients...)
	s.legOrder = append(s.legOrder, s.relayPeers...)
	s.fanDirty = true
}

// rebuildFans recomputes the per-origin fan-out leg lists from the current
// displayed sets, preserving the emission order of the string-keyed
// implementation: local receivers in join order, then relay peers. Video
// fans out to receivers displaying the origin; audio to everyone. Remote
// origins never fan to relay legs — in a full mesh each origin's media
// crosses each inter-region link exactly once.
func (s *Server) rebuildFans() {
	s.fanDirty = false
	for o := range s.fanVideo {
		video, audio := s.fanVideo[o][:0], s.fanAudio[o][:0]
		oid := int32(o)
		local := s.upRecv[oid] != nil
		if !local && s.remote[oid] == noID {
			s.fanVideo[o], s.fanAudio[o] = video, audio
			continue
		}
		for _, rid := range s.clients {
			if rid == oid {
				continue
			}
			l := s.legs[rid]
			audio = append(audio, l)
			if s.displays(rid, oid) {
				video = append(video, l)
			}
		}
		if local {
			for _, peer := range s.relayPeers {
				l := s.legs[peer]
				audio = append(audio, l)
				if s.displays(peer, oid) {
					video = append(video, l)
				}
			}
		}
		s.fanVideo[o], s.fanAudio[o] = video, audio
	}
}

// addRelayLeg creates the forwarding leg toward a peer SFU, carrying the
// given locally homed origins. For Meet/Zoom the leg gets its own
// congestion controller (per-hop termination); for Teams it stays a pure
// pass-through.
func (s *Server) addRelayLeg(peer int32, origins []int32) {
	l := s.newLeg(peer, true)
	for _, o := range origins {
		l.fwd[o] = s.newFwd()
	}
	s.legs[peer] = l
	s.relayPeers = append(s.relayPeers, peer)
	s.rebuildLegOrder()
}

// addRemoteOrigins registers origins homed on an upstream peer SFU: their
// media arrives over the relay link and is re-forwarded to local receivers
// only.
func (s *Server) addRemoteOrigins(peer int32, origins []int32) {
	if !s.peerSet[peer] {
		s.peerSet[peer] = true
		s.peers = append(s.peers, peer)
		if s.prof.NewServerCC != nil {
			s.relayRecv[peer] = media.NewReceiver()
		}
	}
	for _, o := range origins {
		s.addRemoteOrigin(peer, o)
	}
}

// addRemoteOrigin registers one remote origin (rejoin path).
func (s *Server) addRemoteOrigin(peer, origin int32) {
	if !s.peerSet[peer] {
		s.addRemoteOrigins(peer, nil)
	}
	s.remote[origin] = peer
	if s.rates[origin] == nil {
		s.rates[origin] = []rateEst{}
	}
	for _, c := range s.clients {
		if l := s.legs[c]; l.fwd[origin] == nil {
			l.fwd[origin] = s.newFwd()
		}
	}
	s.fanDirty = true
}

// forget drops every table entry one participant ID indexes: a local
// client's roster slot, uplink receiver, receiver leg and layout; a remote
// origin's upstream peer; its rate estimators; and every other leg's
// forwarding state and flow labels for it, with their RTX clones drained.
// It runs when the participant leaves and again before a recycled ID is
// reused, so a reused ID can never inherit a departed participant's state.
func (s *Server) forget(id int32) {
	if int(id) >= len(s.legs) {
		return
	}
	if i := slices.Index(s.clients, id); i >= 0 {
		s.clients = slices.Delete(s.clients, i, i+1)
	}
	s.upRecv[id] = nil
	s.rates[id] = nil
	s.remote[id] = noID
	s.displayed[id] = nil
	s.drainLeg(s.legs[id])
	s.legs[id] = nil
	for _, rid := range s.legOrder {
		if l := s.legs[rid]; l != nil {
			s.drainFwd(l.fwd[id])
			l.fwd[id] = nil
			l.flows[id] = nil
		}
	}
	s.rebuildLegOrder()
}

// addClient attaches a local participant — at construction and on
// rejoin: fresh uplink receiver, rate row and receiver leg, plus
// forwarding state in every existing leg (local receivers and relay peers
// alike).
func (s *Server) addClient(id int32) {
	s.clients = append(s.clients, id)
	s.upRecv[id] = media.NewReceiver()
	s.rates[id] = []rateEst{}
	l := s.newLeg(id, false)
	for _, o := range s.clients {
		if o != id {
			l.fwd[o] = s.newFwd()
		}
	}
	for o := range s.remote {
		if s.remote[o] != noID {
			l.fwd[o] = s.newFwd()
		}
	}
	s.legs[id] = l
	for _, other := range s.legOrder {
		if other == id {
			continue
		}
		if ol := s.legs[other]; ol != nil && ol.fwd[id] == nil {
			ol.fwd[id] = s.newFwd()
		}
	}
	s.rebuildLegOrder()
}

// setTotal updates the call-wide participant count after churn (layout
// factors like Teams' ForwardFactor depend on it).
func (s *Server) setTotal(n int) { s.n = n }

// setDisplayedIDs installs a receiver's displayed origin set (layout) by
// registry ID — the call-internal fast path.
func (s *Server) setDisplayedIDs(receiver int32, origins []int32) {
	s.displayed[receiver] = origins
	s.fanDirty = true
}

// SetDisplayed configures which origins each receiver displays (layout).
// The receiver may be a peer SFU, in which case the set is the union of
// what that region's receivers display — the relay subscription.
func (s *Server) SetDisplayed(receiver string, origins []string) {
	rid := s.reg.id(receiver)
	if rid == noID {
		return
	}
	ids := make([]int32, 0, len(origins))
	for _, o := range origins {
		if oid := s.reg.id(o); oid != noID {
			ids = append(ids, oid)
		}
	}
	s.setDisplayedIDs(rid, ids)
}

// Displayed returns the current displayed set for one receiver as names
// (the reporting boundary).
func (s *Server) Displayed(receiver string) []string {
	rid := s.reg.id(receiver)
	if rid == noID {
		return nil
	}
	var out []string
	for _, oid := range s.displayed[rid] {
		out = append(out, s.reg.name(oid))
	}
	return out
}

// Leg exposes a receiver (or relay) leg's controller (for tests).
func (s *Server) Leg(receiver string) cc.Controller {
	rid := s.reg.id(receiver)
	if rid == noID {
		return nil
	}
	if l := s.legs[rid]; l != nil {
		return l.ctrl
	}
	return nil
}

func (s *Server) start() {
	s.running = true
	s.tickers = append(s.tickers, s.eng.EveryHandler(100*time.Millisecond, sim.HandlerFunc(s.controlTick)))
	s.tickers = append(s.tickers, s.eng.EveryHandler(20*time.Millisecond, sim.HandlerFunc(s.padTick)))
	if s.prof.Kind == KindMeet {
		s.tickers = append(s.tickers, s.eng.EveryHandler(500*time.Millisecond, sim.HandlerFunc(s.allocTick)))
	}
}

func (s *Server) stop() {
	s.running = false
	for _, t := range s.tickers {
		t.Stop()
	}
	s.tickers = nil
}

// sourcePeer identifies the upstream peer a packet was relayed by, or noID
// for local uplink traffic. Relay probe padding carries the peer's own ID
// as origin; relayed media and FEC carry the original client's.
func (s *Server) sourcePeer(origin int32) int32 {
	if p := s.remote[origin]; p != noID {
		return p
	}
	if s.peerSet[origin] {
		return origin
	}
	return noID
}

// onMedia receives an uplink or relayed packet and forwards it along the
// origin's precomputed fan-out — no string is hashed anywhere on this
// path. The inbound payload is consumed here: every forwarded copy is a
// fresh pooled packet, so the original returns to the pool on exit.
//
//vca:hotpath per-packet SFU ingress
func (s *Server) onMedia(pkt *netem.Packet) {
	mp, ok := pkt.Payload.(*MediaPacket)
	if !ok {
		return
	}
	defer releaseMedia(mp)
	if !s.running {
		return
	}
	origin := mp.OriginID
	if origin < 0 || int(origin) >= len(s.upRecv) {
		return // stranger to this call
	}
	// Arrival accounting. The server does not decode, so every packet is
	// treated as opaque payload: local uplinks feed the origin's feedback
	// loop, relay arrivals feed the per-hop loop back to the upstream SFU.
	if r := s.upRecv[origin]; r != nil {
		info := mp.Info(pkt.Size, pkt.SentAt)
		info.Padding = true
		r.OnPacket(s.eng.Now(), info)
	} else if peer := s.sourcePeer(origin); peer != noID {
		if r := s.relayRecv[peer]; r != nil {
			info := mp.Info(pkt.Size, pkt.SentAt)
			info.Padding = true
			r.OnPacket(s.eng.Now(), info)
		}
	}
	// Track per-stream arrival rates for selection decisions.
	s.trackRate(mp, pkt.Size)

	if mp.Padding {
		return // probe padding and relay FEC terminate at each hop
	}
	if s.fanDirty {
		s.rebuildFans()
	}
	fan := s.fanVideo[origin]
	if mp.Audio {
		fan = s.fanAudio[origin]
	}
	for _, l := range fan {
		s.forward(l, mp, pkt.Size)
	}
}

func (s *Server) displays(receiver, origin int32) bool {
	for _, o := range s.displayed[receiver] {
		if o == origin {
			return true
		}
	}
	return false
}

//vca:hotpath per-packet rate accounting
func (s *Server) trackRate(mp *MediaPacket, size int) {
	row := s.rates[mp.OriginID]
	if row == nil {
		return // e.g. relay probe padding carrying the peer SFU's ID
	}
	k := mp.rateKey()
	for len(row) <= k {
		row = append(row, rateEst{})
	}
	row[k].bytes += size
	s.rates[mp.OriginID] = row
}

// forward applies per-VCA selection and relays the packet.
//
//vca:hotpath per-packet per-leg forwarding decision
func (s *Server) forward(l *leg, mp *MediaPacket, size int) {
	fs := l.fwd[mp.OriginID]
	if fs == nil {
		return
	}
	if s.passthrough || (l.relay && l.ctrl == nil) {
		// Pure relay hop (Teams): original sequence numbers and origin
		// timestamps survive, keeping congestion control end-to-end even
		// across a cascade of SFUs.
		out := s.pool.copyOf(mp)
		out.E2E = true
		s.rtxStore(l, fs, out, size)
		s.send(l, out, size)
		return
	}
	if mp.Audio {
		s.emit(l, fs, mp, size, false)
		return
	}
	// Meet: the two simulcast copies have independent frame numbering, so
	// the unselected copy is filtered before any frame-gating state.
	if s.prof.Kind == KindMeet && mp.RK != fs.selRK {
		return
	}

	// Frame-boundary decision: all packets of a frame share its fate.
	if mp.FrameSeq != fs.curInFrame {
		fs.curInFrame = mp.FrameSeq
		fs.curKeep = s.keepFrame(fs, mp)
		if fs.curKeep {
			fs.frameOut++
		}
	}
	if !fs.curKeep {
		return
	}
	if s.prof.Kind == KindZoom && mp.Layer > fs.maxLayer {
		return
	}
	s.emit(l, fs, mp, size, true)
}

// keepFrame decides whether a new frame survives temporal thinning.
//
//vca:hotpath per-packet layer filter
func (s *Server) keepFrame(fs *fwdState, mp *MediaPacket) bool {
	if mp.Keyframe {
		fs.thinAcc = 0
		return true
	}
	fs.thinAcc += fs.thinFactor
	if fs.thinAcc >= 1 {
		fs.thinAcc -= 1
		return true
	}
	return false
}

// emit rewrites sequence/frame numbers and sends the packet to the leg's
// receiver, generating FEC overhead where the profile says so. Relay legs
// share one sequence space across origins so the downstream SFU can run
// loss accounting for the whole hop.
//
//vca:hotpath per-packet egress copy
func (s *Server) emit(l *leg, fs *fwdState, mp *MediaPacket, size int, isVideo bool) {
	out := s.pool.copyOf(mp)
	out.Seq = l.nextSeq(fs)
	if isVideo {
		out.FrameSeq = fs.frameOut
		if fs.needKey {
			out.Keyframe = true
			fs.needKey = false
		}
		// Rewrite the frame-end marker for layer-stripped streams.
		if s.prof.Kind == KindZoom {
			out.FrameEnd = mp.LayerEnd && (mp.Layer == fs.maxLayer || mp.FrameEnd)
		}
	}
	s.rtxStore(l, fs, out, size)
	s.send(l, out, size)

	if isVideo && s.prof.ServerFECOverhead > 0 {
		fs.fecOwed += float64(size) * s.prof.ServerFECOverhead
		for fs.fecOwed >= 600 {
			n := int(fs.fecOwed)
			if n > maxPayload {
				n = maxPayload
			}
			fs.fecOwed -= float64(n)
			fec := s.pool.get()
			fec.Origin, fec.OriginID = mp.Origin, mp.OriginID
			fec.StreamID, fec.RK = "fec", rkFEC
			fec.Seq, fec.Padding = l.nextSeq(fs), true
			s.rtxStore(l, fs, fec, n+wireOverhead)
			s.send(l, fec, n+wireOverhead)
		}
	}
}

// nextSeq allocates the next sequence number on this leg: per-origin for
// receiver legs, per-leg for relay legs.
func (l *leg) nextSeq(fs *fwdState) uint16 {
	if l.relay {
		seq := l.seq
		l.seq++
		return seq
	}
	seq := fs.seq
	fs.seq++
	return seq
}

// flowFor returns the leg's cached accounting label for the packet's
// (origin, stream), index-addressed by (origin ID, rate key).
func (s *Server) flowFor(l *leg, mp *MediaPacket) string {
	row := l.flows[mp.OriginID]
	k := mp.rateKey()
	for len(row) <= k {
		row = append(row, "")
	}
	if row[k] == "" {
		kind := "sfu"
		if l.relay {
			kind = "relay"
		}
		row[k] = s.prof.Name + "/" + kind + "/" + mp.Origin + "/" + mp.StreamID
	}
	l.flows[mp.OriginID] = row
	return row[k]
}

//vca:hotpath per-packet egress to netem
func (s *Server) send(l *leg, mp *MediaPacket, size int) {
	if s.rec != nil && !l.relay && l.ctrl != nil {
		// Transport-wide sequencing for TWCC: every packet on a
		// TWCC-capable downlink (media, FEC, probe padding, RTX) gets the
		// next number; the counter skips 0 ("unstamped"). The history
		// resolves the seq back to send time/size when the report returns.
		l.twSeq++
		if l.twSeq == 0 {
			l.twSeq++
		}
		mp.TWSeq = l.twSeq
		if l.twHist == nil {
			l.twHist = rtp.NewSentHistory(2048)
		}
		l.twHist.Record(l.twSeq, int64(s.eng.Now()/time.Microsecond), size)
	}
	l.fwdBytes += uint64(size)
	pkt := s.host.NewPacket()
	pkt.Size = size
	pkt.From = netem.Addr{Host: s.Name, Port: PortMedia}
	pkt.To = netem.Addr{Host: l.recvName, Port: PortMedia}
	pkt.Flow = s.flowFor(l, mp)
	pkt.Payload = mp
	s.host.Send(pkt)
}

// sendCtl sends one control message (report, FIR, allocation) from the
// SFU to dst's port of the same number.
func (s *Server) sendCtl(dst string, port, size int, flow string, payload any) {
	pkt := s.host.NewPacket()
	pkt.Size = size
	pkt.From = netem.Addr{Host: s.Name, Port: port}
	pkt.To = netem.Addr{Host: dst, Port: port}
	pkt.Flow = flow
	pkt.Payload = payload
	s.host.Send(pkt)
}

// onFeedback handles a receiver's (or downstream peer SFU's) aggregate
// report.
func (s *Server) onFeedback(pkt *netem.Packet) {
	if !s.running {
		return
	}
	switch m := pkt.Payload.(type) {
	case *NackMsg:
		s.onNack(m)
		return
	case *TWCCMsg:
		s.onTWCC(m)
		return
	}
	fb, ok := pkt.Payload.(*FeedbackMsg)
	if !ok {
		return
	}
	if fb.FromID < 0 || int(fb.FromID) >= len(s.legs) {
		return
	}
	l := s.legs[fb.FromID]
	if l == nil {
		return
	}
	if l.ctrl != nil {
		if s.rec != nil && !l.relay {
			// TWCC drives this leg's controller when recovery is on: the
			// per-packet arrival report sees the original losses (an RTX
			// rides a fresh transport seq, so a recovered packet does not
			// erase the hole it healed), making the aggregate report
			// redundant — and double-feeding would double the controller's
			// update cadence.
			return
		}
		feed(l.ctrl, statsFeedback(s.eng.Now(), fb.Stats), s.tracer, l.recvName, s.Name)
		return
	}
	// Teams: relay the report end-to-end to every origin the receiver
	// displays — the far sender does the congestion control (§4.2). In a
	// cascade this reaches remote origins across the inter-region link,
	// keeping the loop end-to-end. The FeedbackMsg itself is shared
	// across the relayed packets, so it is deliberately not pooled.
	for _, origin := range s.displayed[fb.FromID] {
		s.sendCtl(s.reg.name(origin), PortFeedback, feedbackWire, s.flowRtcpRelay, fb)
	}
}

// onNack answers a receiver's retransmission request from the
// (receiver, origin) RTX buffer. Every answered seq is re-sent through
// the normal leg path — shaped, droppable, TWCC-stamped — as a fresh
// pooled copy marked RTX; the buffered clone stays put so a re-NACK can
// be answered again. Seqs already evicted are silently unanswerable:
// the receiver's retry budget bounds how long it keeps asking.
func (s *Server) onNack(m *NackMsg) {
	if s.rec == nil || m.FromID < 0 || int(m.FromID) >= len(s.legs) {
		return
	}
	l := s.legs[m.FromID]
	if l == nil || l.relay || m.Origin < 0 || int(m.Origin) >= len(l.fwd) {
		return
	}
	fs := l.fwd[m.Origin]
	if fs == nil || fs.rtx == nil {
		return
	}
	s.rec.grow(m.Origin)
	requested, answered := 0, 0
	for _, p := range m.Pairs {
		seq := p.PacketID
		for i := 0; i <= 16; i++ {
			if i > 0 {
				if p.Bitmask&(1<<(i-1)) == 0 {
					continue
				}
				seq = p.PacketID + uint16(i)
			}
			requested++
			if payload, size, _, ok := fs.rtx.Get(seq); ok {
				out := s.pool.copyOf(payload.(*MediaPacket))
				out.RTX = true
				s.send(l, out, size)
				answered++
			}
		}
	}
	s.rec.nackRecv[m.Origin] += uint64(requested)
	s.rec.nackTotal += uint64(requested)
	s.rec.rtxSent[m.Origin] += uint64(answered)
	s.rec.rtxTotal += uint64(answered)
	if s.tracer != nil && answered > 0 {
		s.tracer.Recovery(obs.EvNackAnswer, s.eng.Now(), l.recvName, s.reg.name(m.Origin), answered)
	}
}

// onTWCC folds a receiver's transport-wide arrival report into the
// leg's controller. The filter reconstructs per-packet one-way delay
// against the leg's send history; RTT follows the repo's synthetic
// convention (2×queue delay + 40 ms base).
func (s *Server) onTWCC(m *TWCCMsg) {
	if s.rec == nil || m.FromID < 0 || int(m.FromID) >= len(s.legs) {
		return
	}
	l := s.legs[m.FromID]
	if l == nil || l.ctrl == nil || l.twHist == nil {
		return
	}
	fb, ok := l.twccFilter.Process(s.eng.Now(), 0, &m.Report, l.twHist.Lookup)
	if !ok {
		return
	}
	fb.RTT = 2*fb.QueueDelay + 40*time.Millisecond
	feed(l.ctrl, fb, s.tracer, l.recvName, s.Name)
}

// onSignal relays FIRs to the origin sender.
func (s *Server) onSignal(pkt *netem.Packet) {
	if !s.running {
		return
	}
	fir, ok := pkt.Payload.(*FIRMsg)
	if !ok {
		return
	}
	s.sendCtl(fir.Origin, PortSignal, firWire, s.flowFir, fir)
}

// controlTick runs every 100 ms: refresh rate estimates, send uplink and
// relay-hop feedback, and update every leg's selection state.
func (s *Server) controlTick(now time.Duration) {
	if !s.running {
		return
	}
	// Rate estimator EWMA update (order-free: entries are independent).
	for i := range s.rates {
		row := s.rates[i]
		for j := range row {
			inst := float64(row[j].bytes) * 8 / 0.1
			row[j].rate = 0.5*row[j].rate + 0.5*inst
			row[j].bytes = 0
		}
	}
	// Uplink feedback toward each sender — only when the server owns the
	// downlink congestion control (Meet/Zoom). Teams relies on e2e RTCP.
	if s.prof.NewServerCC != nil {
		for _, origin := range s.clients {
			s.report(now, s.upRecv[origin], origin, s.flowRtcpUp)
		}
		// Per-hop feedback to each upstream peer SFU: the downstream end
		// of a relay leg reports exactly like a receiver would, so the
		// peer's relay controller sees loss and queueing on the
		// inter-region link.
		for _, peer := range s.peers {
			if r := s.relayRecv[peer]; r != nil {
				s.report(now, r, peer, s.flowRtcpHop)
			}
		}
	}
	s.refreshSelection()
}

// report sends dst a receiver report of r's arrivals since the last one.
func (s *Server) report(now time.Duration, r *media.Receiver, dst int32, flow string) {
	st := r.Take(now)
	if st.Interval == 0 {
		st.Interval = 100 * time.Millisecond
	}
	s.sendCtl(s.reg.name(dst), PortFeedback, feedbackWire, flow, &FeedbackMsg{From: s.Name, FromID: s.id, Stats: st})
}

// refreshSelection recomputes every leg's selection state, local
// receivers first, then relay legs. controlTick runs it every 100 ms; the
// call also invokes it immediately after mid-call churn or a layout
// reshape: forwarding state created mid-call starts from the
// build-time "forward everything" sentinel (maxLayer 1<<10, high simulcast
// copy), and letting that sentinel live until the next 100 ms control tick
// forwarded every SVC layer to receivers whose estimate could not even
// sustain the base layer. No-op before the server starts, so call
// construction keeps its deliberate first-tick sentinel behaviour.
func (s *Server) refreshSelection() {
	if !s.running {
		return
	}
	for _, receiver := range s.legOrder {
		s.updateSelection(s.legs[receiver])
	}
}

// updateSelection recomputes stream/layer/thinning choices for one leg.
func (s *Server) updateSelection(l *leg) {
	if l.relay && l.ctrl == nil {
		return // Teams relay legs are pass-through; nothing to select
	}
	displayed := s.displayed[l.receiver]
	numVideo := len(displayed)
	if numVideo == 0 {
		return
	}
	var est float64
	if l.ctrl != nil {
		est = l.ctrl.TargetBps()
	}
	for _, origin := range displayed {
		fs := l.fwd[origin]
		if fs == nil {
			continue
		}
		share := 0.0
		if l.ctrl != nil {
			share = (est - s.prof.AudioBps*float64(numVideo)) / float64(numVideo)
		}
		switch s.prof.Kind {
		case KindMeet:
			highRate := s.rate(origin, int(rkSimHigh))
			lowRate := s.rate(origin, int(rkSimLow))
			prev := fs.selRK
			switch {
			case highRate < 30_000:
				// The high copy is not actually flowing (the sender
				// disabled it); selecting it would forward nothing.
				fs.selRK = rkSimLow
				fs.thinFactor = 1
			case share >= s.prof.ThinZoneHigh*highRate:
				fs.selRK = rkSimHigh
				fs.thinFactor = 1
			case share >= s.prof.ThinZoneLow*highRate:
				// Temporal-thinning zone (§3.2: FPS-first downlink
				// adaptation): keep the high copy, drop frames.
				fs.selRK = rkSimHigh
				fs.thinFactor = share / highRate
			default:
				fs.selRK = rkSimLow
				fs.thinFactor = 1
				if lowRate > 0 && share < 0.9*lowRate {
					// Even the low copy exceeds the estimate; thin it
					// rather than starve (keeps Fig 1b's 39-70%
					// utilization floor behaviour).
					fs.thinFactor = max(0.4, share/lowRate)
				}
				if s.remote[origin] != noID && lowRate < 30_000 && highRate >= 30_000 {
					// Cascade: the upstream relay narrowed the simulcast
					// to the high copy only, so thin that instead of
					// switching to a copy that never arrives.
					fs.selRK = rkSimHigh
					fs.thinFactor = max(0.35, share/highRate)
				}
			}
			if fs.selRK != prev {
				fs.needKey = true
				s.fwdSwitches++
				if s.tracer != nil {
					s.tracer.Switch(s.eng.Now(), l.recvName, s.reg.name(origin),
						"sim-copy", int(prev), int(fs.selRK))
				}
			}
		case KindZoom:
			base := s.rate(origin, int(rkSVC))
			if base <= 0 {
				// No measured arrivals for this origin yet — its rate row
				// is fresh (call construction, or a mid-call (re)join).
				// Keep the current selection rather than promoting
				// unmeasured layers on credit: at construction that is
				// the optimistic forward-everything sentinel; for a
				// subscription created in a running call it is the
				// conservative base-only default (see newFwd). The old
				// walk advanced past zero-rate layers for free here, so
				// a rejoined origin was forwarded at every layer even to
				// a receiver whose estimate sat below the base layer.
				fs.thinFactor = 1
				continue
			}
			// Select the highest layer whose cumulative (FEC-inclusive)
			// arrival rate fits the receiver's share, floored at the base
			// layer. A not-yet-measured upper layer (zero rate) adds
			// nothing to cum, so the walk stays optimistic about layers
			// it has no evidence against — bounded to one 100 ms tick,
			// and never past a share the measured layers already exceed.
			var cum float64
			sel := 0
			for layer := 0; layer < len(s.prof.SVCSplit); layer++ {
				cum += s.rate(origin, int(rkSVC)+layer) * (1 + s.prof.ServerFECOverhead)
				if layer > 0 && cum <= share {
					sel = layer
				}
			}
			if prev := fs.maxLayer; sel != prev {
				s.fwdSwitches++
				if s.tracer != nil {
					s.tracer.Switch(s.eng.Now(), l.recvName, s.reg.name(origin),
						"svc-layer", prev, sel)
				}
			}
			fs.maxLayer = sel
			fs.thinFactor = 1
			// Base layer still above the estimate: thin temporally.
			if fecBase := base * (1 + s.prof.ServerFECOverhead); sel == 0 && share < fecBase {
				fs.thinFactor = max(0.35, share/fecBase)
			}
		case KindTeams:
			fs.thinFactor = s.prof.ForwardFactor(s.n)
		}
	}
}

func (s *Server) rate(origin int32, key int) float64 {
	if row := s.rates[origin]; key < len(row) {
		return row[key].rate
	}
	return 0
}

// padTick emits server-side probe padding per leg (GCC recovery probes on
// the Meet/Zoom downlink, Fig 5b's fast recovery). Relay legs probe their
// inter-region hop the same way.
func (s *Server) padTick(now time.Duration) {
	if !s.running {
		return
	}
	for _, receiver := range s.legOrder {
		l := s.legs[receiver]
		if l.ctrl == nil {
			continue
		}
		dt := (now - l.lastPad).Seconds()
		if l.lastPad == 0 {
			dt = 0.02
		}
		l.lastPad = now
		l.padOwed += l.ctrl.PadRateBps(now) / 8 * dt
		for l.padOwed >= maxPayload {
			l.padOwed -= maxPayload
			mp := s.pool.get()
			mp.Origin, mp.OriginID = s.Name, s.id
			mp.StreamID, mp.RK, mp.Padding = "pad", rkPad, true
			s.send(l, mp, maxPayload+wireOverhead)
		}
	}
}

// allocTick (Meet only): ask senders to shrink their low simulcast copy
// when some receiver cannot even sustain it (§3.1 downlink floor). Only
// local receivers are consulted; remote starvation is absorbed by the
// relay leg's own selection.
func (s *Server) allocTick(time.Duration) {
	if !s.running {
		return
	}
	for _, origin := range s.clients {
		// Find the minimum share across receivers displaying this origin.
		minShare := -1.0
		for _, receiver := range s.clients {
			if receiver == origin || !s.displays(receiver, origin) {
				continue
			}
			l := s.legs[receiver]
			if l.ctrl == nil {
				continue
			}
			numVideo := len(s.displayed[receiver])
			if numVideo == 0 {
				continue
			}
			share := (l.ctrl.TargetBps() - s.prof.AudioBps*float64(numVideo)) / float64(numVideo)
			if minShare < 0 || share < minShare {
				minShare = share
			}
		}
		if minShare < 0 {
			continue
		}
		var alloc float64
		if minShare < 0.9*s.prof.SimLowCapBps {
			alloc = minShare * 0.9
			if alloc < 100_000 {
				alloc = 100_000
			}
		}
		s.sendCtl(s.reg.name(origin), PortSignal, allocWire, s.flowAlloc, &AllocMsg{LowBps: alloc})
	}
}
