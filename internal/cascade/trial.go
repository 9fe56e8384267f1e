package cascade

import (
	"time"

	"vcalab/internal/netem"
	"vcalab/internal/obs"
	"vcalab/internal/sim"
	"vcalab/internal/vca"
)

// Trial is one cascaded call ready to run: the topology built on one
// engine or region-sharded across engine shards, and the call attached.
// It is the single trial entry point — the scale, dynamic, fuzz and
// bench runners all build, run, trace and drain through it — so the
// choice between the sequential engine and the shard group is made once,
// here, and callers never name the shard machinery.
type Trial struct {
	Mesh *Mesh
	// Eng is the control engine: schedule warmup snapshots, timelines and
	// samplers here. On one engine it is the only engine.
	Eng  *sim.Engine
	Call *vca.Call

	sm *ShardedMesh // nil when the trial runs on one engine
}

// NewTrial plans shards for topo (shards <= 1, or a topology without a
// positive cross-shard delay floor, keeps one engine), builds the mesh
// and attaches prof's call with opt. Release it with Close.
func NewTrial(seed int64, topo Topology, shards int, prof *vca.Profile, opt vca.CallOptions) *Trial {
	if plan := PlanShards(topo, shards); plan.NumShards > 1 {
		sm := BuildSharded(seed, topo, plan)
		return &Trial{Mesh: sm.Mesh, Eng: sm.Eng, Call: sm.NewCall(prof, opt), sm: sm}
	}
	eng := sim.New(seed)
	mesh := Build(eng, topo)
	return &Trial{Mesh: mesh, Eng: eng, Call: mesh.NewCall(prof, opt)}
}

// RunUntil executes every event with at <= d on every engine.
func (t *Trial) RunUntil(d time.Duration) {
	if t.sm != nil {
		t.sm.Group.RunUntil(d)
	} else {
		t.Eng.RunUntil(d)
	}
}

// Drain runs every engine until its queue is empty.
func (t *Trial) Drain() {
	if t.sm != nil {
		t.sm.Group.Run()
	} else {
		t.Eng.Run()
	}
}

// Close releases the shard goroutines; a no-op on one engine.
func (t *Trial) Close() {
	if t.sm != nil {
		t.sm.Group.Close()
	}
}

// Engines returns the control engine first, then the shard engines in
// domain order.
func (t *Trial) Engines() []*sim.Engine {
	out := []*sim.Engine{t.Eng}
	if t.sm != nil {
		out = append(out, t.sm.ShardEngines...)
	}
	return out
}

// Shards reports how many engine shards the trial runs on (1 on one
// engine).
func (t *Trial) Shards() int {
	if t.sm == nil {
		return 1
	}
	return t.sm.Plan.NumShards
}

// BoundaryLinks returns the cross-shard inter links in ascending pair
// order; nil on one engine.
func (t *Trial) BoundaryLinks() []*netem.Link {
	if t.sm == nil {
		return nil
	}
	return t.sm.BoundaryLinks()
}

// Stats reports the shard group's window and per-shard accounting; the
// zero value on one engine.
func (t *Trial) Stats() sim.GroupStats {
	if t.sm == nil {
		return sim.GroupStats{}
	}
	return t.sm.Group.Stats()
}

// Trace attaches ring-buffer tracers of the given capacity and returns
// them, the control tracer first. On one engine that single tracer
// records every link and the call. Sharded, each shard records its links
// and regions into its own tracer and the control tracer takes churn;
// merge them with obs.Merge after the run. Timeline events run on the
// control engine, so the caller points its timeline at the first tracer.
func (t *Trial) Trace(capacity int) []*obs.Tracer {
	ctrl := obs.NewTracer(capacity)
	if t.sm == nil {
		for _, l := range t.Mesh.Links() {
			l.SetTracer(ctrl)
		}
		t.Call.SetTracer(ctrl)
		return []*obs.Tracer{ctrl}
	}
	trs := []*obs.Tracer{ctrl}
	for range t.sm.ShardEngines {
		trs = append(trs, obs.NewTracer(capacity))
	}
	t.sm.ShardTracers(t.Call, trs[1:])
	t.Call.SetChurnTracer(ctrl)
	return trs
}
