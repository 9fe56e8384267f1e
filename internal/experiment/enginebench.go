//vcalint:file-ignore determinism benchmark harness: wall-clock timing is the measurement, not simulation state

package experiment

import (
	"fmt"
	"runtime"
	"sort"
	"time"

	"vcalab/internal/cascade"
	"vcalab/internal/netem"
	"vcalab/internal/sim"
	"vcalab/internal/vca"
)

// EngineBenchConfig drives the engine benchmark: a full cascaded call
// measured on a single engine (the macro workload, dominated by the
// packet path), a bare-scheduler microbenchmark (one-shot event chains
// and periodic tickers with no protocol work), and a routing
// micro-workload (a dense single-SFU call on unconstrained links, so the
// SFU's per-packet fan-out — the participant-ID routing tables — is the
// entire profile).
type EngineBenchConfig struct {
	Profile      *vca.Profile
	Participants int           // default 24
	Regions      int           // default 3
	InterMbps    float64       // default 20
	Dur          time.Duration // simulated call length, default 30s
	Seed         int64
	// MicroEvents is the number of one-shot chain events driven through
	// the bare engine in the microbenchmark (default 2,000,000).
	MicroEvents int
	// RouteParticipants sizes the routing micro-workload's single-SFU
	// call (default 16); RouteDur is its simulated length (default 10s).
	RouteParticipants int
	RouteDur          time.Duration
	// Shards > 1 adds the sharded macro section: a ShardParticipants-
	// party cascaded call timed on one engine and region-sharded Shards
	// ways, in Runs alternating pairs, reporting the median speedup and
	// the conservative-window accounting behind it. Off by default — the
	// headline macro numbers stay single-threaded.
	Shards int
	// ShardParticipants sizes the sharded macro call (default 48,
	// spread over Regions: the scale workload the shards exist for).
	ShardParticipants int
	// Recovery adds the loss-recovery macro section: the same cascaded
	// call re-run with packet-level recovery enabled and 1% random loss
	// on every link, so the NACK/RTX/TWCC path is hot in the profile.
	// Off by default — the headline macro numbers stay recovery-free.
	Recovery bool
	// Runs is how many times the macro and the scheduler micro are timed,
	// interleaved, and how many sequential/sharded pairs the sharded
	// section times (default 5). Each reports its median run, so a
	// single noisy run cannot move a gated figure.
	Runs int
}

func (c *EngineBenchConfig) defaults() {
	if c.Participants == 0 {
		c.Participants = 24
	}
	if c.Regions == 0 {
		c.Regions = 3
	}
	if c.InterMbps == 0 {
		c.InterMbps = 20
	}
	if c.Dur == 0 {
		c.Dur = 30 * time.Second
	}
	if c.MicroEvents == 0 {
		c.MicroEvents = 2_000_000
	}
	if c.RouteParticipants == 0 {
		c.RouteParticipants = 16
	}
	if c.RouteDur == 0 {
		c.RouteDur = 10 * time.Second
	}
	if c.ShardParticipants == 0 {
		c.ShardParticipants = 48
	}
	if c.Runs == 0 {
		c.Runs = 5
	}
}

// EngineBenchResult reports the engine's throughput and allocation
// behaviour. Macro figures come from the cascaded-call workload; micro
// figures isolate the scheduler itself. Both are the median of the
// configured runs: the macro's figures are all taken from its median run
// by events/s, and MacroEventsPerSecondRuns lists every run's.
type EngineBenchResult struct {
	Events                  uint64  `json:"events"`
	WallSeconds             float64 `json:"wall_seconds"`
	EventsPerSecond         float64 `json:"events_per_second"`
	AllocsPerEvent          float64 `json:"allocs_per_event"`
	BytesPerEvent           float64 `json:"bytes_per_event"`
	SimSecondsPerWallSecond float64 `json:"sim_seconds_per_wall_second"`

	MacroEventsPerSecondRuns []float64 `json:"macro_events_per_second_runs,omitempty"`

	MicroEventsPerSecond float64 `json:"micro_events_per_second"`
	MicroAllocsPerEvent  float64 `json:"micro_allocs_per_event"`

	RouteEventsPerSecond float64 `json:"route_events_per_second"`
	RouteAllocsPerEvent  float64 `json:"route_allocs_per_event"`

	// Previously-buried internals of the macro run, surfaced for the
	// observability layer: the scheduler's pooled-event high-water mark,
	// the ready heap's own high-water mark (events waiting in the timer
	// wheel or behind a delay lane's head count toward the first but not
	// the second), the share of insertions the timer wheel absorbed, and
	// the deepest queue / total drops across the topology's links.
	EventHighWater        int     `json:"event_high_water"`
	HeapHighWater         int     `json:"heap_high_water"`
	WheelInsertRatio      float64 `json:"wheel_insert_ratio"`
	MaxLinkQueueHighWater int     `json:"max_link_queue_high_water_bytes"`
	LinkDrops             uint64  `json:"link_drops"`

	// Sharded reports the region-sharded macro section (nil unless the
	// bench ran with Shards > 1): the ShardParticipants-party cascaded
	// call on one engine vs region-sharded, with per-shard accounting.
	Sharded *ShardedBenchResult `json:"sharded,omitempty"`

	// Recovery reports the loss-recovery macro section (nil unless the
	// bench ran with Recovery): the macro call with NACK/RTX, jitter
	// buffers and TWCC enabled under 1% per-link random loss. Its alloc
	// figure is informational — the 0.1 allocs/event -check budget gates
	// the recovery-off macro above, since RTX clone copies are pooled
	// but NACK/TWCC control traffic is not on the zero-alloc path.
	Recovery *RecoveryBenchResult `json:"recovery,omitempty"`
}

// RecoveryBenchResult is the recovery-enabled macro workload: the event
// throughput cost of the loss-recovery machinery, plus the NACK/RTX
// counters that prove the path was actually exercised.
type RecoveryBenchResult struct {
	LossPct         float64 `json:"loss_pct"`
	Events          uint64  `json:"events"`
	WallSeconds     float64 `json:"wall_seconds"`
	EventsPerSecond float64 `json:"events_per_second"`
	AllocsPerEvent  float64 `json:"allocs_per_event"`
	NackedSeqs      uint64  `json:"nacked_seqs"`
	Retransmissions uint64  `json:"retransmissions"`
}

// ShardedBenchResult compares one cascaded-call workload executed
// sequentially and region-sharded, and surfaces the conservative-window
// engine's per-shard counters.
type ShardedBenchResult struct {
	Shards       int `json:"shards"`
	Participants int `json:"participants"`
	// GOMAXPROCS records the cores the shard goroutines could actually
	// spread over — on a single-core host the sharded run measures pure
	// synchronization overhead, not speedup, and must be read as such.
	GOMAXPROCS int `json:"gomaxprocs"`

	SeqEvents          uint64  `json:"seq_events"`
	SeqWallSeconds     float64 `json:"seq_wall_seconds"`
	SeqEventsPerSecond float64 `json:"seq_events_per_second"`

	// Events sums the control and shard engines' executed events; it
	// must equal SeqEvents — the sharded run executes the same event
	// set — and OutputMatches additionally compares the topologies'
	// delivered/dropped byte counters between the two runs.
	Events          uint64  `json:"events"`
	WallSeconds     float64 `json:"wall_seconds"`
	EventsPerSecond float64 `json:"events_per_second"`
	// Speedup is the median over the timed pairs of the sequential wall
	// time over the sharded one; the wall times and the per-shard figures
	// below come from that median pair, and SpeedupPairs lists every
	// pair's ratio. OutputMatches holds only if every pair matched.
	Speedup       float64   `json:"speedup"`
	SpeedupPairs  []float64 `json:"speedup_pairs,omitempty"`
	OutputMatches bool      `json:"output_matches_sequential"`

	// Windows is the number of conservative synchronization windows;
	// ShardEventsPerSecond is each shard's throughput over its busy
	// time; ShardBarrierWaitFrac is the share of the run each shard
	// spent parked at window barriers; MailboxHighWater is the deepest
	// cross-shard mailbox backlog observed between drains.
	Windows              uint64    `json:"windows"`
	ShardEventsPerSecond []float64 `json:"shard_events_per_second"`
	ShardBarrierWaitFrac []float64 `json:"shard_barrier_wait_frac"`
	MailboxHighWater     int       `json:"mailbox_high_water"`
}

// RunEngineBench measures the simulation engine on one cascaded call plus
// a scheduler microbenchmark. It is single-threaded by design: the numbers
// characterize one engine/core, independent of sweep parallelism.
func RunEngineBench(cfg EngineBenchConfig) EngineBenchResult {
	cfg.defaults()

	// --- macro and bare-scheduler micro, interleaved so that host drift
	// moves both alike (the -check gate normalizes one by the other) ---
	macros := make([]EngineBenchResult, cfg.Runs)
	macroEPS := make([]float64, cfg.Runs)
	microEPS := make([]float64, cfg.Runs)
	microAllocs := make([]float64, cfg.Runs)
	for i := range macros {
		macros[i] = runMacroBench(&cfg)
		macroEPS[i] = macros[i].EventsPerSecond
		microEPS[i], microAllocs[i] = runMicroBench(&cfg)
	}
	res := macros[medianRun(macroEPS)]
	res.MacroEventsPerSecondRuns = macroEPS
	m := medianRun(microEPS)
	res.MicroEventsPerSecond, res.MicroAllocsPerEvent = microEPS[m], microAllocs[m]

	// --- routing micro: dense single-SFU fan-out, unconstrained links ---
	// With no serialization or queueing, almost every event is a packet
	// arrival or departure, and the SFU's forward path (participant-ID
	// table lookups, fan-out, per-leg rewrite) dominates the profile —
	// the workload the dense routing tables exist for. Meet exercises the
	// richest path (simulcast selection + rate tracking + allocation).
	re := sim.New(cfg.Seed)
	rt := netem.NewRouter("rt")
	sfuHost := netem.NewHost(re, "sfu")
	netem.Attach(re, sfuHost, rt, netem.LinkConfig{Delay: time.Millisecond})
	var hosts []*netem.Host
	for i := 0; i < cfg.RouteParticipants; i++ {
		h := netem.NewHost(re, fmt.Sprintf("c%d", i+1))
		netem.Attach(re, h, rt, netem.LinkConfig{Delay: time.Millisecond})
		hosts = append(hosts, h)
	}
	routeCall := vca.NewCall(re, vca.Meet(), sfuHost, hosts, vca.CallOptions{Seed: cfg.Seed})
	routeWall, routeMallocs, _ := measure(func() {
		routeCall.Start()
		re.RunUntil(cfg.RouteDur)
		routeCall.Stop()
	})
	if ev := re.Processed(); ev > 0 {
		res.RouteEventsPerSecond = float64(ev) / routeWall.Seconds()
		res.RouteAllocsPerEvent = float64(routeMallocs) / float64(ev)
	}

	if cfg.Shards > 1 {
		res.Sharded = runShardedBench(cfg)
	}
	if cfg.Recovery {
		res.Recovery = runRecoveryBench(cfg)
	}
	return res
}

// runMacroBench times one macro run: the cascaded call on one engine.
func runMacroBench(cfg *EngineBenchConfig) EngineBenchResult {
	var res EngineBenchResult
	tr := newBenchTrial(cfg, cfg.Participants, 1, false)
	defer tr.Close()
	wall, mallocs, bytes := timeCall(tr, cfg.Dur)

	eng := tr.Eng
	res.Events = eng.Processed()
	res.WallSeconds = wall.Seconds()
	if wall > 0 {
		res.EventsPerSecond = float64(res.Events) / wall.Seconds()
		res.SimSecondsPerWallSecond = cfg.Dur.Seconds() / wall.Seconds()
	}
	if res.Events > 0 {
		res.AllocsPerEvent = float64(mallocs) / float64(res.Events)
		res.BytesPerEvent = float64(bytes) / float64(res.Events)
	}
	res.EventHighWater = eng.LiveHighWater()
	res.HeapHighWater = eng.HeapHighWater()
	if wheel, heap := eng.SchedulerInserts(); wheel+heap > 0 {
		res.WheelInsertRatio = float64(wheel) / float64(wheel+heap)
	}
	for _, l := range tr.Mesh.Links() {
		if hw := l.QueueHighWater(); hw > res.MaxLinkQueueHighWater {
			res.MaxLinkQueueHighWater = hw
		}
		res.LinkDrops += l.Drops
	}
	return res
}

// newBenchTrial builds the n-participant cascade the bench workloads
// share, on one engine or region-sharded `shards` ways.
func newBenchTrial(cfg *EngineBenchConfig, n, shards int, recovery bool) *cascade.Trial {
	topo := cascade.EvenTopology(n, cfg.Regions,
		netem.LinkConfig{RateBps: cfg.InterMbps * 1e6, Delay: cascade.DefaultInterDelay})
	return cascade.NewTrial(cfg.Seed, topo, shards, cfg.Profile,
		vca.CallOptions{Seed: cfg.Seed, Recovery: recovery})
}

// timeCall times the trial's call running for dur (see measure).
func timeCall(tr *cascade.Trial, dur time.Duration) (wall time.Duration, mallocs, bytes uint64) {
	return measure(func() {
		tr.Call.Start()
		tr.RunUntil(dur)
		tr.Call.Stop()
	})
}

// measure runs fn from a freshly collected heap and returns its wall
// time and the heap allocations (count, bytes) it made.
func measure(fn func()) (wall time.Duration, mallocs, bytes uint64) {
	var m0, m1 runtime.MemStats
	runtime.GC()
	runtime.ReadMemStats(&m0)
	start := time.Now()
	fn()
	wall = time.Since(start)
	runtime.ReadMemStats(&m1)
	return wall, m1.Mallocs - m0.Mallocs, m1.TotalAlloc - m0.TotalAlloc
}

// runMicroBench times one run of the bare scheduler, with no protocol
// machinery, and returns its events/s and allocs/event.
func runMicroBench(cfg *EngineBenchConfig) (eventsPerSecond, allocsPerEvent float64) {
	me := sim.New(cfg.Seed)
	remaining := cfg.MicroEvents
	var chain func()
	chain = func() {
		if remaining <= 0 {
			return
		}
		remaining--
		me.Schedule(time.Duration(remaining%977)*time.Microsecond, chain)
	}
	// 64 concurrent chains emulate in-flight packets; 16 tickers emulate
	// the periodic media/feedback loops.
	for i := 0; i < 64; i++ {
		me.Schedule(time.Duration(i)*time.Microsecond, chain)
	}
	for i := 0; i < 16; i++ {
		me.Every(time.Duration(i+1)*10*time.Millisecond, func() {})
	}
	wall, mallocs, _ := measure(func() {
		for remaining > 0 && me.Step() {
		}
	})
	ev := me.Processed()
	if ev == 0 {
		return 0, 0
	}
	return float64(ev) / wall.Seconds(), float64(mallocs) / float64(ev)
}

// medianRun returns the index of the median of vs (the upper median for
// an even count).
func medianRun(vs []float64) int {
	idx := make([]int, len(vs))
	for i := range idx {
		idx[i] = i
	}
	sort.SliceStable(idx, func(a, b int) bool { return vs[idx[a]] < vs[idx[b]] })
	return idx[len(idx)/2]
}

// runRecoveryBench times the macro cascaded call with loss recovery
// enabled and 1% random loss on every link of the topology, so the
// jitter-buffer, NACK and retransmission paths dominate alongside the
// regular packet path.
func runRecoveryBench(cfg EngineBenchConfig) *RecoveryBenchResult {
	const lossPct = 1.0
	tr := newBenchTrial(&cfg, cfg.Participants, 1, true)
	defer tr.Close()
	for _, l := range tr.Mesh.Links() {
		l.SetImpairment(lossPct/100, 0)
	}
	wall, mallocs, _ := timeCall(tr, cfg.Dur)

	rb := &RecoveryBenchResult{LossPct: lossPct, Events: tr.Eng.Processed(), WallSeconds: wall.Seconds()}
	if wall > 0 {
		rb.EventsPerSecond = float64(rb.Events) / wall.Seconds()
	}
	if rb.Events > 0 {
		rb.AllocsPerEvent = float64(mallocs) / float64(rb.Events)
	}
	rb.NackedSeqs, rb.Retransmissions = tr.Call.NackRTXTotals()
	return rb
}

// benchFingerprint reduces a finished trial's observable outcome to the
// topology-wide delivery counters — enough to flag a sharded run that
// diverged from the sequential one (the byte-level identity is pinned by
// the package tests; the bench cross-checks every run it times).
func benchFingerprint(mesh *cascade.Mesh) (delivered, dropped uint64) {
	for _, l := range mesh.Links() {
		delivered += l.DeliveredBytes
		dropped += l.Drops
	}
	return delivered, dropped
}

// runShardedBench times the ShardParticipants-party cascaded call
// sequentially and region-sharded, on identical seeds, in cfg.Runs
// alternating pairs, and reports the median pair.
func runShardedBench(cfg EngineBenchConfig) *ShardedBenchResult {
	pairs := make([]*ShardedBenchResult, cfg.Runs)
	speedups := make([]float64, cfg.Runs)
	matches := true
	for i := range pairs {
		if pairs[i] = runShardedPair(&cfg); pairs[i] == nil {
			return nil // no positive cross-shard delay floor: nothing to time
		}
		speedups[i] = pairs[i].Speedup
		matches = matches && pairs[i].OutputMatches
	}
	sb := pairs[medianRun(speedups)]
	sb.SpeedupPairs = speedups
	sb.OutputMatches = matches
	return sb
}

// runShardedPair times the call once on one engine, then once sharded.
// It returns nil when the topology cannot be sharded.
func runShardedPair(cfg *EngineBenchConfig) *ShardedBenchResult {
	sh := newBenchTrial(cfg, cfg.ShardParticipants, cfg.Shards, false)
	defer sh.Close()
	if sh.Shards() <= 1 {
		return nil
	}
	sb := &ShardedBenchResult{
		Shards: sh.Shards(), Participants: cfg.ShardParticipants,
		GOMAXPROCS: runtime.GOMAXPROCS(0),
	}

	seq := newBenchTrial(cfg, cfg.ShardParticipants, 1, false)
	defer seq.Close()
	seqWall, _, _ := timeCall(seq, cfg.Dur)
	sb.SeqEvents = seq.Eng.Processed()
	sb.SeqWallSeconds = seqWall.Seconds()
	if seqWall > 0 {
		sb.SeqEventsPerSecond = float64(sb.SeqEvents) / seqWall.Seconds()
	}
	seqDelivered, seqDropped := benchFingerprint(seq.Mesh)

	wall, _, _ := timeCall(sh, cfg.Dur)
	for _, e := range sh.Engines() {
		sb.Events += e.Processed()
	}
	sb.WallSeconds = wall.Seconds()
	if wall > 0 {
		sb.EventsPerSecond = float64(sb.Events) / wall.Seconds()
	}
	if sb.WallSeconds > 0 && sb.SeqWallSeconds > 0 {
		sb.Speedup = sb.SeqWallSeconds / sb.WallSeconds
	}
	delivered, dropped := benchFingerprint(sh.Mesh)
	sb.OutputMatches = sb.Events == sb.SeqEvents &&
		delivered == seqDelivered && dropped == seqDropped

	st := sh.Stats()
	sb.Windows = st.Windows
	sb.MailboxHighWater = st.MailboxHighWater
	sb.ShardBarrierWaitFrac = st.ShardBarrierWaitFrac
	for k, n := range st.ShardProcessed {
		eps := 0.0
		if k < len(st.ShardBusySeconds) && st.ShardBusySeconds[k] > 0 {
			eps = float64(n) / st.ShardBusySeconds[k]
		}
		sb.ShardEventsPerSecond = append(sb.ShardEventsPerSecond, eps)
	}
	return sb
}
