package vca

import (
	"fmt"

	"vcalab/internal/netem"
	"vcalab/internal/obs"
	"vcalab/internal/sim"
)

// ViewMode is the call's viewing modality (§6).
type ViewMode int

// Viewing modes common to all three VCAs (§6).
const (
	// Gallery shows all participants in a tiled grid (the default).
	Gallery ViewMode = iota
	// Speaker pins the first client's video on every other participant's
	// screen (§6.2: only one client pinning suffices to change the
	// pinned sender's uplink; we pin on all, as the paper's experiment).
	Speaker
)

// CallOptions configure a call beyond its participants.
type CallOptions struct {
	Mode ViewMode
	Seed int64
	// Recovery enables packet-level loss recovery (DESIGN.md §13):
	// receiver jitter buffers with NACK/RTX and, for profiles with
	// server-side congestion control, TWCC-style per-packet feedback.
	// Off, the packet path is byte-identical to a build without it.
	Recovery bool
}

// CascadePlacement homes a group of clients on one SFU host — one region
// of a cascaded call.
type CascadePlacement struct {
	Server  *netem.Host
	Clients []*netem.Host
	// Eng, when set, is the engine this region's protocol machinery
	// schedules on — a shard of a region-sharded run. Nil means the
	// call-wide engine (the sequential default). The region's hosts and
	// links must live on the same engine.
	Eng *sim.Engine
}

// Call wires N clients and one or more SFUs into a conference and manages
// its lifecycle. Topology (hosts, links, shaping) is owned by the caller;
// the Call only attaches protocol machinery to hosts.
//
// The Call owns the participant identity registry: every client and SFU
// name is interned to a dense ID at build time, and all layout and churn
// bookkeeping below runs on those IDs.
type Call struct {
	Prof    *Profile
	Clients []*Client
	// Server is the region-0 SFU — the only one in a single-SFU call.
	Server *Server
	// Servers holds every region's SFU (length 1 for NewCall).
	Servers []*Server

	eng     *sim.Engine
	reg     *registry
	tracer  *obs.Tracer // churn events; set via SetTracer
	pools   []*mpPool   // per-region media-packet free lists
	mode    ViewMode
	home    []int32         // participant ID -> region index
	left    map[string]bool // by name: a left participant's ID is recycled
	started bool

	// want/wantIDs are the relay-subscription scratch set, hoisted onto
	// the call and cleared in place per use so applyRelayLayout allocates
	// nothing per region pair.
	want    []bool
	wantIDs []int32

	// displayedScratch backs the per-receiver displayed sets built by
	// applyLayout; one flat slab, resliced per layout pass.
	displayedScratch []int32
}

// NewCall creates a call between the given client hosts through the server
// host. Client 0 is "C1" in the paper's terms: the instrumented client
// (and the pinned participant in Speaker mode).
func NewCall(eng *sim.Engine, prof *Profile, server *netem.Host, clientHosts []*netem.Host, opt CallOptions) *Call {
	return NewCascadedCall(eng, prof, []CascadePlacement{{Server: server, Clients: clientHosts}}, opt)
}

// NewCascadedCall creates a call whose participants are spread across
// regions, each homed on its region's SFU. The SFUs form a full relay
// mesh: every locally homed origin's media crosses each inter-region link
// once, and the remote SFU fans it out to its own receivers. Client 0 of
// region 0 is C1. Congestion control on the relay hops follows the
// profile: Meet/Zoom terminate per hop, Teams stays end-to-end.
func NewCascadedCall(eng *sim.Engine, prof *Profile, regions []CascadePlacement, opt CallOptions) *Call {
	total := 0
	for _, r := range regions {
		total += len(r.Clients)
	}
	if total < 2 {
		panic("vca: a call needs at least two clients")
	}
	c := &Call{
		Prof: prof, eng: eng, mode: opt.Mode,
		reg: newRegistry(), left: map[string]bool{},
	}
	// Intern every participant, then every SFU: participant IDs come out
	// dense in join order, and all tables size to their final density at
	// construction.
	localIDs := make([][]int32, len(regions))
	for ri, r := range regions {
		ids := make([]int32, len(r.Clients))
		for i, h := range r.Clients {
			ids[i] = c.reg.intern(h.Name, false)
		}
		localIDs[ri] = ids
	}
	for _, r := range regions {
		c.reg.intern(r.Server.Name, true)
	}
	c.home = make([]int32, c.reg.cap())
	for ri, ids := range localIDs {
		for _, id := range ids {
			c.home[id] = int32(ri)
		}
	}
	// One media-packet free list per region: a region's clients and SFU
	// always share one engine, so the pool stays single-threaded whether
	// that engine is the call-wide one or a shard. Pool identity never
	// affects event order, so splitting it is output-invisible.
	c.pools = make([]*mpPool, len(regions))
	for ri := range regions {
		c.pools[ri] = &mpPool{}
	}
	for ri, r := range regions {
		s := newServer(regionEngine(r, eng), prof, r.Server, c.reg, localIDs[ri], c.pools[ri], total)
		c.home[s.id] = int32(ri)
		c.Servers = append(c.Servers, s)
	}
	c.Server = c.Servers[0]
	// Wire the relay mesh: each server forwards its local origins to every
	// peer, and registers every peer's origins as remote arrivals.
	for i, si := range c.Servers {
		for j, sj := range c.Servers {
			if i == j {
				continue
			}
			si.addRelayLeg(sj.id, localIDs[i])
			sj.addRemoteOrigins(si.id, localIDs[i])
		}
	}
	i := 0
	for ri, r := range regions {
		for _, h := range r.Clients {
			// The seed is derived from the flattened global index, never
			// from an engine, so a client's RNG stream is identical
			// whether its region runs sharded or sequential.
			cl := newClient(regionEngine(r, eng), prof, h.Name, h, c.reg, regions[ri].Server.Name, ri, c.pools[ri], opt.Seed+int64(i)*7919)
			c.Clients = append(c.Clients, cl)
			i++
		}
	}
	if opt.Recovery {
		rcfg := prof.Recovery.withDefaults()
		for _, s := range c.Servers {
			s.enableRecovery(rcfg)
		}
		for _, cl := range c.Clients {
			cl.enableRecovery(rcfg)
			cl.homeSrv = c.Servers[cl.region]
		}
	}
	c.applyLayout(opt.Mode)
	return c
}

// regionEngine picks the engine one region's machinery schedules on.
func regionEngine(r CascadePlacement, callEng *sim.Engine) *sim.Engine {
	if r.Eng != nil {
		return r.Eng
	}
	return callEng
}

// PayloadTransfer returns the boundary-link payload re-homing hook for
// packets delivered into dstRegion (netem.Link.SetHandoffPayload). Media
// packets are cloned into the destination region's pool and the source
// copy released; signalling messages (feedback, FIR, alloc, NACK, TWCC)
// are immutable after construction and pass through by pointer. It runs at window
// barriers with both shards parked, so touching both pools is safe.
func (c *Call) PayloadTransfer(dstRegion int) func(any) any {
	pool := c.pools[dstRegion]
	return func(p any) any {
		if mp, ok := p.(*MediaPacket); ok {
			dup := pool.copyOf(mp)
			releaseMedia(mp)
			return dup
		}
		return p
	}
}

// active returns the clients currently in the call, in join order.
func (c *Call) active() []*Client {
	if len(c.left) == 0 {
		return c.Clients
	}
	out := make([]*Client, 0, len(c.Clients))
	for _, cl := range c.Clients {
		if !c.left[cl.Name] {
			out = append(out, cl)
		}
	}
	return out
}

func (c *Call) clientByName(name string) *Client {
	for _, cl := range c.Clients {
		if cl.Name == name {
			return cl
		}
	}
	return nil
}

// applyLayout computes displayed sets and per-sender budgets (§6), plus
// the relay subscriptions between regions.
func (c *Call) applyLayout(mode ViewMode) {
	active := c.active()
	n := len(active)
	scratch := c.displayedScratch[:0]
	if cap(scratch) < n*n {
		scratch = make([]int32, 0, n*n)
	}
	for i, cl := range active {
		start := len(scratch)
		tiles := c.Prof.VisibleTiles(n)
		for j, other := range active {
			if j == i {
				continue
			}
			if mode == Speaker {
				// Pinned participant always displayed; others as thumbs.
				scratch = append(scratch, other.id)
				continue
			}
			if len(scratch)-start < tiles {
				scratch = append(scratch, other.id)
			}
		}
		c.Servers[cl.region].setDisplayedIDs(cl.id, scratch[start:len(scratch):len(scratch)])
	}
	c.displayedScratch = scratch
	for i, cl := range active {
		cl.SetTierBps(c.senderBudget(mode, n, i == 0))
	}
	c.applyRelayLayout(active)
}

// applyRelayLayout subscribes each region pair: the origins homed in i
// that at least one receiver homed in j displays travel the i→j relay
// leg. Audio always flows; this set gates video only.
func (c *Call) applyRelayLayout(active []*Client) {
	if len(c.Servers) < 2 {
		return
	}
	if len(c.want) < c.reg.cap() {
		c.want = make([]bool, c.reg.cap())
	}
	for i, si := range c.Servers {
		for j, sj := range c.Servers {
			if i == j {
				continue
			}
			for _, id := range c.wantIDs {
				c.want[id] = false
			}
			c.wantIDs = c.wantIDs[:0]
			for _, cl := range active {
				if cl.region != j {
					continue
				}
				for _, o := range sj.displayed[cl.id] {
					if c.home[o] == int32(i) && !c.want[o] {
						c.want[o] = true
						c.wantIDs = append(c.wantIDs, o)
					}
				}
			}
			var origins []int32
			for _, cl := range c.Clients {
				if cl.id != noID && c.want[cl.id] {
					origins = append(origins, cl.id)
				}
			}
			si.setDisplayedIDs(sj.id, origins)
		}
	}
}

// senderBudget is the layout-imposed video budget for one sender.
func (c *Call) senderBudget(mode ViewMode, n int, pinnedClient bool) float64 {
	p := c.Prof
	var tierRate float64
	switch {
	case mode == Speaker && pinnedClient:
		if p.SpeakerUplinkBps != nil {
			tierRate = p.SpeakerUplinkBps(n)
		} else {
			tierRate = p.TierBps[TierSpeaker]
		}
	case mode == Speaker:
		tierRate = p.TierBps[TierThumb]
	default:
		tierRate = p.TierBps[p.GalleryTier(n)]
	}
	if p.MediaMode == ModeSimulcast {
		// The budget covers both simulcast copies; a TierLow request
		// means "low copy only".
		if tierRate <= p.TierBps[TierLow] {
			return p.SimLowCapBps * 1.3
		}
		return tierRate + p.SimLowCapBps
	}
	return tierRate
}

// Start begins the call: all servers and clients go live.
func (c *Call) Start() {
	c.started = true
	for _, s := range c.Servers {
		s.start()
	}
	for _, cl := range c.active() {
		cl.start(cl.TierBps())
	}
}

// Stop tears the call down.
func (c *Call) Stop() {
	c.started = false
	for _, cl := range c.active() {
		cl.stop()
	}
	for _, s := range c.Servers {
		s.stop()
	}
}

// DrainRecovery releases every RTX clone held in server-side
// retransmission buffers. Call after Stop when inspecting a
// recovery-enabled call: the scenario harness asserts RTXClonesLive()
// is zero afterwards (clone conservation).
func (c *Call) DrainRecovery() {
	for _, s := range c.Servers {
		s.drainRecovery()
	}
}

// RTXClonesLive reports the number of RTX payload clones currently held
// in server buffers across the call (zero after DrainRecovery, and
// always zero with recovery off).
func (c *Call) RTXClonesLive() uint64 {
	var n uint64
	for _, s := range c.Servers {
		if s.rec != nil {
			n += s.rec.clonesLive()
		}
	}
	return n
}

// PendingNacks sums every client's outstanding NACK-queue depth. Client
// stop flushes its jitter buffers, so a stopped call reports zero.
func (c *Call) PendingNacks() int {
	n := 0
	for _, cl := range c.Clients {
		if cl.rec != nil {
			n += cl.rec.pendingNacks()
		}
	}
	return n
}

// Leave removes the named client from the call mid-flight. Every server
// drops its per-client state (uplink receiver, rate estimators, legs,
// forwarding entries), every remaining client releases its receiver slot,
// the layout re-flows for the remaining participants, and the host stays
// wired for a later Rejoin. The departing participant's ID goes back to
// the registry's free list, keeping the tables dense under churn.
func (c *Call) Leave(name string) {
	cl := c.clientByName(name)
	if cl == nil || c.left[name] {
		return
	}
	if c.tracer != nil {
		c.tracer.Churn(c.eng.Now(), name, "leave", "")
	}
	c.left[name] = true
	if c.started {
		cl.stop()
	}
	c.resetSlot(cl.id)
	n := len(c.active())
	for _, s := range c.Servers {
		s.setTotal(n)
	}
	cl.clearRecv()
	c.reg.release(name)
	cl.id = noID
	c.applyLayout(c.mode)
	c.refreshSelection()
}

// Rejoin re-attaches a client that previously left. The client draws a
// (possibly recycled) ID from the registry; every table slot that ID
// indexes is reset first, so it can never inherit a departed
// participant's state. Server state is recreated from scratch, the layout
// re-flows, and the client restarts its media if the call is live.
func (c *Call) Rejoin(name string) {
	cl := c.clientByName(name)
	if cl == nil || !c.left[name] {
		return
	}
	if c.tracer != nil {
		c.tracer.Churn(c.eng.Now(), name, "rejoin", "")
	}
	delete(c.left, name)
	id := c.reg.intern(name, false)
	c.resetSlot(id)
	cl.id = id
	for int(id) >= len(c.home) {
		c.home = append(c.home, 0)
	}
	c.home[id] = int32(cl.region)
	n := len(c.active())
	for i, s := range c.Servers {
		if i == cl.region {
			s.addClient(id)
		} else {
			s.addRemoteOrigin(c.Servers[cl.region].id, id)
		}
		s.setTotal(n)
	}
	c.applyLayout(c.mode)
	c.refreshSelection()
	if c.started {
		cl.start(cl.TierBps())
	}
}

// SetMode switches the call's viewing modality mid-flight (every
// participant pinning the speaker, or un-pinning back to gallery): the
// layout re-flows, sender budgets update, and every server's selection
// state refreshes immediately rather than waiting for the next control
// tick.
func (c *Call) SetMode(mode ViewMode) {
	if c.mode == mode {
		return
	}
	if c.tracer != nil {
		detail := "gallery"
		if mode == Speaker {
			detail = "speaker"
		}
		c.tracer.Churn(c.eng.Now(), "", "mode", detail)
	}
	c.mode = mode
	c.applyLayout(mode)
	c.refreshSelection()
}

// refreshSelection re-runs selection on every server after a mid-call
// layout or membership change (no-op while the call is not started).
func (c *Call) refreshSelection() {
	for _, s := range c.Servers {
		s.refreshSelection()
	}
}

// resetSlot clears every table entry one participant ID indexes across
// all servers and the other clients: when the participant leaves, and
// again before its recycled ID is reused.
func (c *Call) resetSlot(id int32) {
	for _, s := range c.Servers {
		s.forget(id)
	}
	for _, cl := range c.Clients {
		if cl.id != id {
			cl.dropOrigin(id)
		}
	}
}

// IDSpace reports the size of the call's participant-ID space — the
// density ceiling of every ID-indexed routing table. Leave/Rejoin recycle
// IDs through the registry free list, so it must never grow past the
// call's peak population; churn tests assert exactly that.
func (c *Call) IDSpace() int { return c.reg.cap() }

// Active reports whether the named client is currently in the call.
func (c *Call) Active(name string) bool {
	return c.clientByName(name) != nil && !c.left[name]
}

// C1 returns the instrumented client (client 0).
func (c *Call) C1() *Client { return c.Clients[0] }

// HomeServer returns the SFU the named client is homed on (region 0's
// for unknown names, matching the old map-default behaviour).
func (c *Call) HomeServer(name string) *Server {
	if cl := c.clientByName(name); cl != nil {
		return c.Servers[cl.region]
	}
	return c.Servers[0]
}

// String identifies the call.
func (c *Call) String() string {
	if len(c.Servers) > 1 {
		return fmt.Sprintf("%s call, %d clients, %d regions", c.Prof.Name, len(c.Clients), len(c.Servers))
	}
	return fmt.Sprintf("%s call, %d clients", c.Prof.Name, len(c.Clients))
}
