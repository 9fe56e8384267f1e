package scenario

import (
	"fmt"
	"time"

	"vcalab/internal/cascade"
	"vcalab/internal/netem"
	"vcalab/internal/obs"
	"vcalab/internal/vca"
)

// The invariant harness: replay any scenario — canned, hand-written or
// generated — against a fresh cascaded call and assert the structural
// invariants that every vcalab simulation owes, whatever the workload:
//
//   - the timeline finished (no event was scheduled past the run);
//   - every drained engine holds zero live pooled events and zero pending
//     events (sim.Engine.Live, the PR-3 leak detector);
//   - the participant-ID space never grew past its build-time density and
//     no receiver aliases a recycled ID (the PR-4 registry guarantees);
//   - freeze and recovery accounting stays inside sanity bounds (ratios
//     in [0,1], freeze time no longer than the call);
//   - netem packet-pool conservation: once drained, every host pool reads
//     zero outstanding packets — a drop path that forgets Release is a
//     violation, not a silent slow leak;
//   - drop conservation: replay runs with tracing enabled, and the
//     tracer's cumulative drop-event count must equal the sum of every
//     link's drop counter.
//
// The harness is what the fuzz smoke (vcabench -fuzz, CI) and the
// generator tests replay seeds through.

// HarnessConfig describes the call a scenario replays against. The
// topology fields must cover the scenario (participants it churns,
// regions it partitions).
type HarnessConfig struct {
	// Profile is the VCA under test (default Meet).
	Profile *vca.Profile
	// Participants is the roster size (default 8).
	Participants int
	// Regions is the number of SFU sites (default 2).
	Regions int
	// InterBps is the inter-region link capacity (default 10e6).
	InterBps float64
	// InterDelay is the one-way inter-region delay (default 30 ms).
	InterDelay time.Duration
	// Dur is the call duration (default 60s).
	Dur time.Duration
	// Seed seeds the engine and call.
	Seed int64
	// Shards selects region-sharded parallel execution (<= 1 runs the
	// sequential engine; values above the region count are capped, and a
	// topology with no positive cross-shard delay floor falls back to
	// sequential). Every invariant below is asserted per shard.
	Shards int
	// Recovery enables packet-level loss recovery on the replayed call,
	// adding its conservation invariants: every RTX clone released, NACK
	// queues empty after the drain, and no more retransmissions traced
	// as delivered than NACKs were sent.
	Recovery bool
}

func (c *HarnessConfig) defaults() {
	if c.Profile == nil {
		c.Profile = vca.Meet()
	}
	if c.Participants == 0 {
		c.Participants = 8
	}
	if c.Regions == 0 {
		c.Regions = 2
	}
	if c.InterBps == 0 {
		c.InterBps = 10e6
	}
	if c.InterDelay == 0 {
		c.InterDelay = 30 * time.Millisecond
	}
	if c.Dur == 0 {
		c.Dur = 60 * time.Second
	}
}

// Violation is one failed invariant, with enough detail to debug the
// offending replay.
type Violation struct {
	Invariant string // short id: "event-pool", "id-aliasing", ...
	Detail    string
}

func (v Violation) String() string { return v.Invariant + ": " + v.Detail }

func violationf(out []Violation, inv, format string, args ...any) []Violation {
	return append(out, Violation{Invariant: inv, Detail: fmt.Sprintf(format, args...)})
}

// Replay runs sc against a fresh cascaded call per cfg and returns every
// invariant violation observed (nil on a clean replay).
func Replay(sc Scenario, cfg HarnessConfig) []Violation {
	cfg.defaults()
	var out []Violation
	if err := sc.Validate(); err != nil {
		// An invalid scenario is a generator bug, not a sim bug; report
		// it as a violation so fuzz runs surface it with the seed.
		return violationf(out, "validate", "%v", err)
	}

	topo := cascade.EvenTopology(cfg.Participants, cfg.Regions,
		netem.LinkConfig{RateBps: cfg.InterBps, Delay: cfg.InterDelay})
	tr := cascade.NewTrial(cfg.Seed, topo, cfg.Shards, cfg.Profile,
		vca.CallOptions{Seed: cfg.Seed, Recovery: cfg.Recovery})
	defer tr.Close()
	mesh, call := tr.Mesh, tr.Call
	tl := New(tr.Eng, call, MeshLinks(mesh), sc)
	// Replay always runs traced: it both exercises the instrumented paths
	// under fuzz and feeds the drop-conservation cross-check below. The
	// ring may wrap on a loss-heavy scenario — that is fine, because the
	// per-kind counts are cumulative. A sharded replay gets one tracer
	// per shard plus the control tracer (churn + timeline), exactly the
	// sharded experiment wiring.
	tracers := tr.Trace(1 << 12)
	tl.SetTracer(tracers[0])
	tl.Start()
	call.Start()
	tr.RunUntil(cfg.Dur)
	call.Stop()

	if !tl.Done() {
		out = violationf(out, "timeline",
			"scenario %s: %d of %d events unapplied at t=%v", sc.Name, len(sc.Events)-tl.Applied(), len(sc.Events), cfg.Dur)
	}

	// Drain: with the call stopped, every in-flight packet, model event
	// and cancelled ticker must come home — on every engine (the control
	// engine is engine 0, shards follow).
	tr.Drain()
	for k, e := range tr.Engines() {
		if n := e.Live(); n != 0 {
			out = violationf(out, "event-pool", "engine %d: %d pooled engine events live after drain", k, n)
		}
		if n := e.Pending(); n != 0 {
			out = violationf(out, "event-pool", "engine %d: %d events still pending after drain", k, n)
		}
	}
	for _, l := range tr.BoundaryLinks() {
		if n := l.BoundaryPoolLive(); n != 0 {
			out = violationf(out, "packet-pool", "boundary link %s leaks %d envelopes", l.Name(), n)
		}
	}

	// Registry density and recycled-ID aliasing.
	if got, want := call.IDSpace(), cfg.Participants+cfg.Regions; got != want {
		out = violationf(out, "id-space",
			"ID space %d, want %d (%d clients + %d SFUs): churn grew the registry", got, want, cfg.Participants, cfg.Regions)
	}
	for i, cl := range call.Clients {
		seen := map[string]bool{}
		for _, origin := range cl.Origins() {
			if origin == "" {
				out = violationf(out, "id-aliasing", "client %d holds a receiver bound to a freed ID", i)
				continue
			}
			if seen[origin] {
				out = violationf(out, "id-aliasing", "client %d holds duplicate receivers for %q", i, origin)
			}
			seen[origin] = true
		}

		// Freeze and recovery accounting sanity.
		for _, origin := range cl.Origins() {
			r := cl.Receiver(origin)
			if fr := r.FreezeRatio(); fr < 0 || fr > 1 {
				out = violationf(out, "freeze-accounting",
					"client %d receiver %s freeze ratio %v outside [0,1]", i, origin, fr)
			}
			if ft := r.FreezeTime(); ft < 0 || ft > cfg.Dur {
				out = violationf(out, "freeze-accounting",
					"client %d receiver %s freeze time %v outside [0, %v]", i, origin, ft, cfg.Dur)
			}
			if r.FreezeCount() < 0 {
				out = violationf(out, "freeze-accounting",
					"client %d receiver %s negative freeze count", i, origin)
			}
		}
	}

	// Loss-recovery conservation (recovery-enabled replays only; with
	// recovery off every quantity below is structurally zero).
	if cfg.Recovery {
		// Client stop flushed every jitter buffer, so no NACK may still
		// be pending anywhere.
		if n := call.PendingNacks(); n != 0 {
			out = violationf(out, "nack-queue", "%d NACKs pending after Stop", n)
		}
		// The SFUs never answer more retransmissions than seqs were
		// NACKed at them...
		nacks, rtx := call.NackRTXTotals()
		if rtx > nacks {
			out = violationf(out, "rtx-conservation",
				"SFUs answered %d retransmissions for %d NACKed seqs", rtx, nacks)
		}
		// ...and no client can see more RTX deliveries than NACKs it
		// sent (EvNackSent fires per seq per retry, EvRTXDeliver per
		// retransmission that healed a gap). Counts are cumulative
		// across ring wraparound, so this holds on loss-heavy replays.
		var nackEv, rtxEv uint64
		for _, tr := range tracers {
			nackEv += tr.Count(obs.EvNackSent)
			rtxEv += tr.Count(obs.EvRTXDeliver)
		}
		if rtxEv > nackEv {
			out = violationf(out, "rtx-conservation",
				"traced %d RTX deliveries for %d NACKs sent", rtxEv, nackEv)
		}
		// Clone conservation: draining the RTX buffers returns every
		// payload clone the SFUs ever made to its pool.
		call.DrainRecovery()
		if n := call.RTXClonesLive(); n != 0 {
			out = violationf(out, "rtx-conservation",
				"%d RTX payload clones live after DrainRecovery", n)
		}
	}

	// Drop conservation: every packet the links counted as dropped must
	// have produced exactly one traced drop event, and vice versa. A
	// drop path that bypasses the instrumented Link.drop (or a tracer
	// hook that double-fires) shows up here.
	var linkDrops uint64
	for _, l := range mesh.Links() {
		linkDrops += l.Drops
	}
	var traced uint64
	for _, tr := range tracers {
		traced += tr.Count(obs.EvDrop)
	}
	if traced != linkDrops {
		out = violationf(out, "drop-conservation",
			"tracers recorded %d drop events, link counters total %d", traced, linkDrops)
	}

	// Packet-pool conservation across every host of the topology.
	for _, h := range mesh.SFUs {
		if n := h.PoolLive(); n != 0 {
			out = violationf(out, "packet-pool", "host %s leaks %d pooled packets", h.Name, n)
		}
	}
	for _, region := range mesh.Clients {
		for _, h := range region {
			if n := h.PoolLive(); n != 0 {
				out = violationf(out, "packet-pool", "host %s leaks %d pooled packets", h.Name, n)
			}
		}
	}
	return out
}

// FuzzOne generates seed's scenario for the harness topology and replays
// it, returning the scenario alongside any violations: the single-seed
// reproduction path behind `vcabench -fuzz`.
func FuzzOne(seed int64, cfg HarnessConfig) (Scenario, []Violation) {
	cfg.defaults()
	sc := Generate(seed, GenConfig{
		Participants: cfg.Participants,
		Regions:      cfg.Regions,
		InterBps:     cfg.InterBps,
		Dur:          cfg.Dur,
	})
	return sc, Replay(sc, cfg)
}
