// Region sharding: partitioning a cascade topology across parallel
// engine shards for conservative-window PDES (sim.Group).
//
// The partition unit is the region — a region's clients, SFU, router and
// access links share one engine, so everything that was single-threaded
// stays single-threaded. The only traffic between regions rides the
// directed inter-region links, and those have a fixed propagation-delay
// floor (a continental WAN hop): that floor is the conservative
// lookahead. A topology whose cross-shard links have no positive delay
// provides no lookahead, so PlanShards falls back to a single shard —
// NewTrial then builds on one engine.
package cascade

import (
	"math"
	"time"

	"vcalab/internal/netem"
	"vcalab/internal/obs"
	"vcalab/internal/sim"
	"vcalab/internal/vca"
)

// ShardPlan is the regions→shards partition PlanShards computes.
type ShardPlan struct {
	// NumShards is the number of engine shards to run; 1 means "run
	// sequential" (requested shards <= 1, fewer than 2 regions, or no
	// positive cross-shard delay floor).
	NumShards int
	// ShardOf maps region index -> shard index, round-robin. Valid only
	// when NumShards > 1.
	ShardOf []int
	// Lookahead is the static conservative window: the minimum
	// cross-shard inter-region propagation delay at build time. The
	// running Group re-derives it from live link state every window, so
	// mid-run delay reshaping is honored (as long as it stays positive).
	Lookahead time.Duration
}

// PlanShards partitions a topology's regions round-robin across up to
// `shards` shards and derives the conservative lookahead. It falls back
// to NumShards == 1 whenever the topology cannot support conservative
// windows: fewer shards than 2 requested, fewer regions than shards
// would split, or some cross-shard inter link with a zero delay floor.
func PlanShards(topo Topology, shards int) ShardPlan {
	if shards > len(topo.Regions) {
		shards = len(topo.Regions)
	}
	if shards <= 1 || len(topo.Regions) < 2 {
		return ShardPlan{NumShards: 1}
	}
	shardOf := make([]int, len(topo.Regions))
	for ri := range topo.Regions {
		shardOf[ri] = ri % shards
	}
	look := time.Duration(math.MaxInt64)
	for i := range topo.Regions {
		for j := range topo.Regions {
			if i == j || shardOf[i] == shardOf[j] {
				continue
			}
			d := interConfig(topo, i, j).Delay
			if d <= 0 {
				// A zero-delay boundary link admits no lookahead window.
				return ShardPlan{NumShards: 1}
			}
			if d < look {
				look = d
			}
		}
	}
	if look == math.MaxInt64 {
		// No cross-shard links at all (single region per shard is
		// guaranteed above, so this cannot happen — defensive).
		return ShardPlan{NumShards: 1}
	}
	return ShardPlan{NumShards: shards, ShardOf: shardOf, Lookahead: look}
}

// ShardedMesh is a mesh built across engine shards. Mesh.Eng is the
// control engine — schedule calls, timelines, warmup snapshots and
// samplers there; the per-region machinery lives on ShardEngines. Drive
// the run through Group (RunUntil / Run) and release the shard
// goroutines with Group.Close when the trial ends.
type ShardedMesh struct {
	*Mesh
	Group *sim.Group
	// ShardEngines are the shard engines in domain order (Group.Shards).
	ShardEngines []*sim.Engine
	Plan         ShardPlan

	boundary []*netem.Link // cross-shard inter links, pair order
	dstOf    []int         // boundary[i]'s destination region
}

// BuildSharded wires the topology across NumShards engine shards plus a
// control engine, converts every cross-shard inter link into a mailbox
// boundary, and assembles the sim.Group. Engine seeds derive
// deterministically from seed; note per-link RNG streams (fractional
// loss, jitter) differ from the sequential layout's single stream, so
// only draw-free workloads are byte-identical across shard counts.
// plan.NumShards must be > 1 — NewTrial uses Build for the sequential
// fallback.
func BuildSharded(seed int64, topo Topology, plan ShardPlan) *ShardedMesh {
	if plan.NumShards <= 1 {
		panic("cascade: BuildSharded needs a plan with NumShards > 1")
	}
	ctrl := sim.New(seed)
	engines := make([]*sim.Engine, plan.NumShards)
	for k := range engines {
		engines[k] = sim.New(seed + int64(k+1)*104729)
	}
	engOf := func(ri int) *sim.Engine { return engines[plan.ShardOf[ri]] }
	sm := &ShardedMesh{
		Mesh:         build(ctrl, topo, engOf),
		ShardEngines: engines,
		Plan:         plan,
	}
	for _, p := range sm.pairs {
		i, j := p[0], p[1]
		if plan.ShardOf[i] == plan.ShardOf[j] {
			continue
		}
		sm.boundary = append(sm.boundary, sm.inter[i][j])
		sm.dstOf = append(sm.dstOf, j)
	}
	sm.Group = sim.NewGroup(ctrl, engines, sm.currentLookahead)
	for bi, l := range sm.boundary {
		sm.Group.Register(l.Handoff(engOf(sm.dstOf[bi])))
	}
	return sm
}

// currentLookahead is the Group's per-window lookahead: the minimum live
// propagation delay across the boundary links, so a timeline that
// reshapes an inter-region delay mid-run narrows (or widens) the window
// from the next barrier on. Jitter only adds delay, so it never
// undercuts the floor.
func (m *ShardedMesh) currentLookahead() time.Duration {
	look := time.Duration(math.MaxInt64)
	for _, l := range m.boundary {
		if d := l.Delay(); d < look {
			look = d
		}
	}
	return look
}

// BoundaryLinks returns the cross-shard inter links in deterministic
// (ascending pair) order.
func (m *ShardedMesh) BoundaryLinks() []*netem.Link { return m.boundary }

// ShardTracers attaches per-shard tracers: every link records its
// send-side events into its own shard's tracer, every boundary link's
// deliver event goes to the destination shard's tracer, and each
// region's call machinery records into its shard's tracer. trs must hold
// one tracer per shard. Churn and timeline events are the caller's to
// wire (they run on the control engine).
func (m *ShardedMesh) ShardTracers(call *vca.Call, trs []*obs.Tracer) {
	engTr := map[*sim.Engine]*obs.Tracer{}
	for k, se := range m.ShardEngines {
		engTr[se] = trs[k]
	}
	for _, l := range m.Links() {
		l.SetTracer(engTr[l.Engine()])
	}
	for bi, l := range m.boundary {
		l.SetDeliverTracer(trs[m.Plan.ShardOf[m.dstOf[bi]]])
	}
	for r := 0; r < m.Regions(); r++ {
		call.SetRegionTracer(r, trs[m.Plan.ShardOf[r]])
	}
}

// NewCall attaches a cascaded call with each region's machinery homed on
// its shard engine, and wires every boundary link's payload re-homing
// hook to the destination region's media pool.
func (m *ShardedMesh) NewCall(prof *vca.Profile, opt vca.CallOptions) *vca.Call {
	pl := m.Placements()
	for ri := range pl {
		pl[ri].Eng = m.ShardEngines[m.Plan.ShardOf[ri]]
	}
	call := vca.NewCascadedCall(m.Eng, prof, pl, opt)
	for bi, l := range m.boundary {
		l.SetHandoffPayload(call.PayloadTransfer(m.dstOf[bi]))
	}
	return call
}
