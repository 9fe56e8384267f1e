package main

import (
	"bytes"
	"crypto/sha256"
	"encoding/hex"
	"fmt"
	"runtime"
	"sync"
	"time"

	"vcalab/internal/cascade"
	"vcalab/internal/experiment"
	"vcalab/internal/netem"
	"vcalab/internal/obs"
	"vcalab/internal/scenario"
	"vcalab/internal/sim"
	"vcalab/internal/vca"
)

// iteration is one measured repetition of a workload. Simulated time
// (simSeconds) and host time (setup, wall, cpu, total) are kept apart.
type iteration struct {
	simSeconds float64       // simulated call-seconds completed
	setup      time.Duration // construction before the first simulated event (0: inside the sweep)
	wall       time.Duration // host wall time of the simulated part
	cpu        time.Duration // process user+sys CPU over the same interval
	total      time.Duration // the whole iteration: setup, simulation and output check
	digest     string        // hash of the simulated outcome
	problems   []string      // failed output checks
	counters   map[string]float64
}

// env is what an iteration needs from the run: the seed, where to record
// spans, and the sweep pool size.
type env struct {
	seed    int64
	spans   *spanLog
	workers int
}

// workload is one benchmark input set. iterate runs one checked
// repetition (traced: with the program's own obs tracers attached);
// setupSample times one construction that is then discarded; probe, when
// set, reads layer counters that iterate cannot reach.
type workload struct {
	name        string
	iterate     func(e *env, parent int, trial string, traced bool) iteration
	setupSample func(e *env, parent, i int) time.Duration
	probe       func(e *env) (map[string]float64, []string)
}

func workloads() []workload {
	return []workload{
		callWorkload("cascade-steady", steadySpec(60*time.Second)),
		callWorkload("cascade-recovery", callSpec{
			profile: vca.Teams, participants: 24, regions: 3, interBps: 20e6,
			dur: 60 * time.Second, lossProb: 0.01,
		}),
		paperSweepWorkload(),
		callWorkload("churn-sharded", callSpec{
			profile: vca.Meet, participants: 24, regions: 3, interBps: 20e6,
			dur: 60 * time.Second, churn: true, shards: 2,
		}),
	}
}

// steadySpec is the engine macro's call: Teams, 24 participants over 3
// regions, 20 Mbps inter-region links, one engine, recovery off.
func steadySpec(dur time.Duration) callSpec {
	return callSpec{profile: vca.Teams, participants: 24, regions: 3, interBps: 20e6, dur: dur}
}

// callSpec describes the cascaded call one iteration of a call workload
// runs.
type callSpec struct {
	profile      func() *vca.Profile
	participants int
	regions      int
	interBps     float64
	dur          time.Duration
	// lossProb > 0 enables packet-level recovery and sets that random
	// loss on every link of the topology.
	lossProb float64
	// churn drives the canned churn-storm timeline over the roster.
	churn bool
	// shards > 1 splits the call across region shards.
	shards int
}

func (c callSpec) topology() cascade.Topology {
	assign := cascade.Assign(c.participants, c.regions)
	topo := cascade.Topology{
		Default: netem.LinkConfig{RateBps: c.interBps, Delay: cascade.DefaultInterDelay},
	}
	for r := 0; r < c.regions; r++ {
		topo.Regions = append(topo.Regions, cascade.Region{Name: fmt.Sprintf("r%d", r), Clients: assign[r]})
	}
	return topo
}

// callRun is one built call: its engines, topology, call and timeline.
type callRun struct {
	spec    callSpec
	eng     *sim.Engine // the engine, or the control engine of a sharded run
	mesh    *cascade.Mesh
	sm      *cascade.ShardedMesh
	call    *vca.Call
	tl      *scenario.Timeline
	tracers []*obs.Tracer
	// runEvents is the event count at the end of the simulated call,
	// before stop and drain: the count the engine macro reports.
	runEvents uint64
}

// build constructs the topology, call, timeline and shard group, with a
// span around each layer's constructor.
func (c callSpec) build(seed int64, sp *spanLog, parent int, trial string) (*callRun, map[string]time.Duration) {
	r := &callRun{spec: c}
	took := map[string]time.Duration{}
	id := sp.begin("build/cascade", parent, trial)
	topo := c.topology()
	if plan := cascade.PlanShards(topo, c.shards); plan.NumShards > 1 {
		r.sm = cascade.BuildSharded(seed, topo, plan)
		r.mesh, r.eng = r.sm.Mesh, r.sm.Eng
	} else {
		r.eng = sim.New(seed)
		r.mesh = cascade.Build(r.eng, topo)
	}
	took["cascade.build_s"] = sp.end(id)

	id = sp.begin("build/call", parent, trial)
	opt := vca.CallOptions{Seed: seed, Recovery: c.lossProb > 0}
	if r.sm != nil {
		r.call = r.sm.NewCall(c.profile(), opt)
	} else {
		r.call = r.mesh.NewCall(c.profile(), opt)
	}
	for _, l := range r.mesh.Links() {
		if c.lossProb > 0 {
			l.SetImpairment(c.lossProb, 0)
		}
	}
	took["vca.new_call_s"] = sp.end(id)

	if c.churn {
		id = sp.begin("build/timeline", parent, trial)
		r.tl = scenario.New(r.eng, r.call, scenario.MeshLinks(r.mesh), scenario.ChurnStorm(c.participants))
		sp.end(id)
	}
	return r, took
}

// close releases the shard goroutines of a sharded run.
func (r *callRun) close() {
	if r.sm != nil {
		r.sm.Group.Close()
	}
}

// attachTracers wires the program's own obs tracers wherever the public
// API allows, as the scenario harness does: every link and the call on
// one engine; per-shard tracers plus a control tracer for churn and the
// timeline on a sharded run.
func (r *callRun) attachTracers() {
	ctrl := obs.NewTracer(1 << 12)
	r.tracers = []*obs.Tracer{ctrl}
	if r.sm != nil {
		shard := make([]*obs.Tracer, len(r.sm.ShardEngines))
		for k := range shard {
			shard[k] = obs.NewTracer(1 << 12)
		}
		r.tracers = append(r.tracers, shard...)
		r.sm.ShardTracers(r.call, shard)
		r.call.SetChurnTracer(ctrl)
	} else {
		for _, l := range r.mesh.Links() {
			l.SetTracer(ctrl)
		}
		r.call.SetTracer(ctrl)
	}
	if r.tl != nil {
		r.tl.SetTracer(ctrl)
	}
}

func (r *callRun) engines() []*sim.Engine {
	if r.sm != nil {
		return append([]*sim.Engine{r.eng}, r.sm.ShardEngines...)
	}
	return []*sim.Engine{r.eng}
}

func (r *callRun) run() {
	if r.tl != nil {
		r.tl.Start()
	}
	r.call.Start()
	if r.sm != nil {
		r.sm.Group.RunUntil(r.spec.dur)
	} else {
		r.eng.RunUntil(r.spec.dur)
	}
	r.runEvents = r.processed()
}

func (r *callRun) processed() uint64 {
	var n uint64
	for _, e := range r.engines() {
		n += e.Processed()
	}
	return n
}

// stopDrain stops the call, runs every in-flight event to completion and
// returns the RTX clones to their pools.
func (r *callRun) stopDrain() {
	r.call.Stop()
	if r.sm != nil {
		r.sm.Group.Run()
	} else {
		r.eng.Run()
	}
	if r.spec.lossProb > 0 {
		r.call.DrainRecovery()
	}
}

// check asserts the drained call's conservation invariants, as the
// scenario harness does: no live or pending engine events, no leaked
// pooled packets, boundary envelopes or RTX clones, the timeline fully
// applied and the participant-ID space still dense.
func (r *callRun) check() []string {
	var bad []string
	for k, e := range r.engines() {
		if n := e.Live(); n != 0 {
			bad = append(bad, fmt.Sprintf("engine %d: %d pooled events live after drain", k, n))
		}
		if n := e.Pending(); n != 0 {
			bad = append(bad, fmt.Sprintf("engine %d: %d events pending after drain", k, n))
		}
	}
	if r.sm != nil {
		for _, l := range r.sm.BoundaryLinks() {
			if n := l.BoundaryPoolLive(); n != 0 {
				bad = append(bad, fmt.Sprintf("boundary link %s leaks %d envelopes", l.Name(), n))
			}
		}
	}
	hosts := append([]*netem.Host{}, r.mesh.SFUs...)
	for _, region := range r.mesh.Clients {
		hosts = append(hosts, region...)
	}
	for _, h := range hosts {
		if n := h.PoolLive(); n != 0 {
			bad = append(bad, fmt.Sprintf("host %s leaks %d pooled packets", h.Name, n))
		}
	}
	if n := r.call.PendingNacks(); n != 0 {
		bad = append(bad, fmt.Sprintf("%d NACKs pending after stop", n))
	}
	if n := r.call.RTXClonesLive(); n != 0 {
		bad = append(bad, fmt.Sprintf("%d RTX clones live after DrainRecovery", n))
	}
	if nacks, rtx := r.call.NackRTXTotals(); rtx > nacks {
		bad = append(bad, fmt.Sprintf("%d retransmissions for %d NACKed seqs", rtx, nacks))
	}
	if r.tl != nil && !r.tl.Done() {
		bad = append(bad, fmt.Sprintf("timeline applied %d events and is not done", r.tl.Applied()))
	}
	if got, want := r.call.IDSpace(), r.spec.participants+r.spec.regions; got != want {
		bad = append(bad, fmt.Sprintf("ID space %d, want %d", got, want))
	}
	return bad
}

// digest hashes the call's outcome: the executed event counts at the
// end of the call and after the drain, and every link's delivered and
// dropped packets and bytes.
func (r *callRun) digest() string {
	h := sha256.New()
	fmt.Fprintf(h, "events %d %d\n", r.runEvents, r.processed())
	for _, l := range r.mesh.Links() {
		fmt.Fprintf(h, "%s %d %d %d %d\n", l.Name(), l.Delivered, l.DeliveredBytes, l.Drops, l.DroppedBytes)
	}
	return hex.EncodeToString(h.Sum(nil))
}

// counters reads the layers' public counters after a run.
func (r *callRun) counters(runWall time.Duration) map[string]float64 {
	c := map[string]float64{"sim.events": float64(r.runEvents)}
	if r.runEvents > 0 {
		c["sim.ns_per_event"] = float64(runWall.Nanoseconds()) / float64(r.runEvents)
	}
	var wheel, heap uint64
	hw := 0
	for _, e := range r.engines() {
		hw = max(hw, e.LiveHighWater())
		w, h := e.SchedulerInserts()
		wheel, heap = wheel+w, heap+h
	}
	c["sim.live_high_water"] = float64(hw)
	if wheel+heap > 0 {
		c["sim.wheel_insert_ratio"] = float64(wheel) / float64(wheel+heap)
	}
	if r.sm != nil {
		st := r.sm.Group.Stats()
		c["sim.group.windows"] = float64(st.Windows)
		c["sim.group.mailbox_high_water"] = float64(st.MailboxHighWater)
		var sum, mx float64
		for _, f := range st.ShardBarrierWaitFrac {
			sum += f
			mx = max(mx, f)
		}
		c["sim.group.barrier_wait_frac_max"] = mx
		if n := len(st.ShardBarrierWaitFrac); n > 0 {
			c["sim.group.barrier_wait_frac_mean"] = sum / float64(n)
		}
	}
	linkCounters(c, r.mesh.Links())
	c["vca.id_space"] = float64(r.call.IDSpace())
	nacks, rtx := r.call.NackRTXTotals()
	c["vca.recovery.nacked_seqs"] = float64(nacks)
	c["vca.recovery.retransmissions"] = float64(rtx)
	if nacks > 0 {
		c["vca.recovery.rtx_per_nack"] = float64(rtx) / float64(nacks)
	}
	if r.tl != nil {
		c["scenario.events_applied"] = float64(r.tl.Applied())
	}
	for _, tr := range r.tracers {
		for _, k := range tracedKinds {
			c["obs.events."+k.String()] += float64(tr.Count(k))
		}
	}
	return c
}

// tracedKinds are the obs event kinds reported as per-layer counts.
var tracedKinds = []obs.EventKind{obs.EvEnqueue, obs.EvDrop, obs.EvDeliver, obs.EvCC, obs.EvSwitch, obs.EvChurn}

func linkCounters(c map[string]float64, links []*netem.Link) {
	var delivered, drops uint64
	qhw := 0
	for _, l := range links {
		delivered += l.Delivered
		drops += l.Drops
		qhw = max(qhw, l.QueueHighWater())
	}
	c["netem.delivered_pkts"] = float64(delivered)
	c["netem.drops"] = float64(drops)
	if delivered+drops > 0 {
		c["netem.delivered_frac"] = float64(delivered) / float64(delivered+drops)
	}
	c["netem.queue_high_water_bytes"] = float64(qhw)
}

// measure runs fn and returns its wall time, the process CPU time it
// used, and the allocator counters that moved meanwhile.
func measure(fn func()) (wall, cpu time.Duration, mallocs, allocBytes uint64, gcs uint32) {
	var m0, m1 runtime.MemStats
	runtime.ReadMemStats(&m0)
	c0 := cpuTime()
	t0 := time.Now()
	fn()
	wall = time.Since(t0)
	cpu = cpuTime() - c0
	runtime.ReadMemStats(&m1)
	return wall, cpu, m1.Mallocs - m0.Mallocs, m1.TotalAlloc - m0.TotalAlloc, m1.NumGC - m0.NumGC
}

func runtimeCounters(c map[string]float64, simSeconds float64, mallocs, allocBytes uint64, gcs uint32) {
	c["runtime.mallocs_per_sim_s"] = float64(mallocs) / simSeconds
	c["runtime.alloc_mb"] = float64(allocBytes) / (1 << 20)
	c["runtime.gc_cycles"] = float64(gcs)
}

func callWorkload(name string, spec callSpec) workload {
	return workload{
		name:    name,
		iterate: spec.iterate,
		setupSample: func(e *env, parent, i int) time.Duration {
			trial := fmt.Sprintf("setup%d", i+1)
			id := e.spans.begin("build", parent, trial)
			r, _ := spec.build(e.seed, e.spans, id, trial)
			d := e.spans.end(id)
			r.close()
			return d
		},
	}
}

// iterate runs one checked repetition of the call: build, run, stop and
// drain, check.
func (c callSpec) iterate(e *env, parent int, trial string, traced bool) iteration {
	var it iteration
	t0 := time.Now()
	id := e.spans.begin("build", parent, trial)
	r, took := c.build(e.seed, e.spans, id, trial)
	it.setup = e.spans.end(id)
	defer r.close()
	if traced {
		r.attachTracers()
	}

	var runWall time.Duration
	wall, cpu, mallocs, allocBytes, gcs := measure(func() {
		id := e.spans.begin("run", parent, trial)
		r.run()
		runWall = e.spans.end(id)
		id = e.spans.begin("stop+drain", parent, trial)
		r.stopDrain()
		e.spans.end(id)
	})
	it.simSeconds, it.wall, it.cpu = c.dur.Seconds(), wall, cpu

	id = e.spans.begin("check", parent, trial)
	it.problems = r.check()
	it.digest = r.digest()
	it.counters = r.counters(runWall)
	for k, v := range took {
		it.counters[k] = v.Seconds()
	}
	runtimeCounters(it.counters, it.simSeconds, mallocs, allocBytes, gcs)
	it.counters["bench.check_s"] = e.spans.end(id).Seconds()
	it.total = time.Since(t0)
	return it
}

// The paper-sweep slice: §3 uplink shaping at three capacities, and §5
// competition against iPerf/TCP at 2 Mbps and against a Zoom call at
// 0.5 Mbps, each with Meet, Teams and Zoom as the incumbent, at the
// paper's call lengths.
var (
	sweepProfiles   = []func() *vca.Profile{vca.Meet, vca.Teams, vca.Zoom}
	sweepCaps       = []float64{0.5, 1, 2}
	staticDur       = 150 * time.Second
	competitionReps = 2
	competitionDur  = 210 * time.Second
)

// sweepTrials is the number of trials one paper-sweep iteration runs.
func sweepTrials() int {
	return len(sweepProfiles) * (len(sweepCaps) + 2*competitionReps)
}

// sweepTracker turns the runner's progress hook into trial spans and the
// runner's tail time. The hook reports only completions, so a trial's
// start is taken as the completion that freed its worker: the
// (k-workers)th completion, or the sweep's start for the first wave.
type sweepTracker struct {
	mu      sync.Mutex
	label   string
	done    []time.Time
	trials  int
	tail    time.Duration
	workers int
}

func (t *sweepTracker) progress(label string, _, _ int) {
	t.mu.Lock()
	defer t.mu.Unlock()
	t.label = label
	t.done = append(t.done, time.Now())
}

// sweep runs one Run* call inside a span and records its trials.
func (t *sweepTracker) sweep(sp *spanLog, parent int, trial string, fn func()) {
	t.mu.Lock()
	t.label, t.done = "", t.done[:0]
	t.mu.Unlock()
	start := time.Now()
	id := sp.begin("sweep", parent, trial)
	fn()
	sp.end(id)

	t.mu.Lock()
	defer t.mu.Unlock()
	sp.spans[id-1].Name = "sweep " + t.label
	n := len(t.done)
	for k, end := range t.done {
		begin := start
		if k >= t.workers {
			begin = t.done[k-t.workers]
		}
		sp.add("trial", id, fmt.Sprintf("%s/%s#%d", trial, t.label, k+1), begin, end)
	}
	t.trials += n
	// The tail starts once fewer trials remain than there are workers.
	if n > 0 {
		tailStart := start
		if n >= t.workers {
			tailStart = t.done[n-t.workers]
		}
		t.tail += t.done[n-1].Sub(tailStart)
	}
}

// runPaperSweep runs the slice through the experiment runners on a pool
// of the given size and returns the printed results.
func runPaperSweep(seed int64, workers int, track func(func())) (out string, simSeconds float64) {
	var buf bytes.Buffer
	for _, p := range sweepProfiles {
		track(func() {
			rs := experiment.RunStatic(experiment.StaticConfig{
				Profile: p(), Dir: experiment.Uplink, CapsMbps: sweepCaps, Reps: 1,
				Dur: staticDur, Seed: seed, Parallel: workers,
			})
			experiment.PrintStatic(&buf, rs)
		})
		simSeconds += float64(len(sweepCaps)) * staticDur.Seconds()
	}
	for _, comp := range []experiment.CompetitionConfig{
		{Kind: experiment.CompIPerf, LinkMbps: 2},
		{Kind: experiment.CompVCA, CompProfile: vca.Zoom(), LinkMbps: 0.5},
	} {
		for _, p := range sweepProfiles {
			cfg := comp
			cfg.Incumbent, cfg.Reps, cfg.CallDur = p(), competitionReps, competitionDur
			cfg.Seed, cfg.Parallel = seed, workers
			track(func() { experiment.PrintCompetition(&buf, experiment.RunCompetition(cfg)) })
			simSeconds += float64(competitionReps) * competitionDur.Seconds()
		}
	}
	return buf.String(), simSeconds
}

// staticProbe is one static-sweep trial rebuilt from the public
// constructors the sweep itself uses (lab, hosts, call), so the engine
// and bottleneck-link counters the sweep runners keep private can be
// read, and per-trial construction can be timed.
type staticProbe struct {
	eng   *sim.Engine
	lab   *experiment.Lab
	hosts []*netem.Host
	call  *vca.Call
}

func newStaticProbe(seed int64, prof *vca.Profile, capMbps float64) *staticProbe {
	p := &staticProbe{eng: sim.New(seed)}
	p.lab = experiment.NewLab(p.eng, capMbps*1e6, 0)
	c1 := p.lab.ClientHost("c1")
	c2 := p.lab.RemoteHost("c2", experiment.RemoteDelay)
	sfu := p.lab.RemoteHost("sfu", experiment.SFUDelay)
	p.hosts = []*netem.Host{c1, c2, sfu}
	p.call = vca.NewCall(p.eng, prof, sfu, []*netem.Host{c1, c2}, vca.CallOptions{Seed: seed})
	return p
}

// probeSweep runs every static trial of the slice once through
// staticProbe and returns their summed counters and any leaks.
func probeSweep(seed int64) (map[string]float64, []string) {
	c := map[string]float64{}
	var bad []string
	var links []*netem.Link
	var events, wheel, heap uint64
	var runWall time.Duration
	for _, mk := range sweepProfiles {
		for _, capMbps := range sweepCaps {
			p := newStaticProbe(seed, mk(), capMbps)
			t0 := time.Now()
			p.call.Start()
			p.eng.RunUntil(staticDur)
			p.call.Stop()
			p.eng.Run()
			runWall += time.Since(t0)
			events += p.eng.Processed()
			w, h := p.eng.SchedulerInserts()
			wheel, heap = wheel+w, heap+h
			c["sim.live_high_water"] = max(c["sim.live_high_water"], float64(p.eng.LiveHighWater()))
			links = append(links, p.lab.Uplink(), p.lab.Downlink())
			if n := p.eng.Live(); n != 0 {
				bad = append(bad, fmt.Sprintf("probe %s@%g: %d pooled events live after drain", p.call.Prof.Name, capMbps, n))
			}
			for _, h := range p.hosts {
				if n := h.PoolLive(); n != 0 {
					bad = append(bad, fmt.Sprintf("probe %s@%g: host %s leaks %d pooled packets", p.call.Prof.Name, capMbps, h.Name, n))
				}
			}
		}
	}
	c["sim.events"] = float64(events)
	if events > 0 {
		c["sim.ns_per_event"] = float64(runWall.Nanoseconds()) / float64(events)
	}
	if wheel+heap > 0 {
		c["sim.wheel_insert_ratio"] = float64(wheel) / float64(wheel+heap)
	}
	linkCounters(c, links)
	return c, bad
}

func paperSweepWorkload() workload {
	return workload{
		name: "paper-sweep",
		iterate: func(e *env, parent int, trial string, traced bool) iteration {
			var it iteration
			t0 := time.Now()
			tr := &sweepTracker{workers: e.workers}
			experiment.SetProgress(tr.progress)
			defer experiment.SetProgress(nil)
			var out string
			wall, cpu, mallocs, allocBytes, gcs := measure(func() {
				out, it.simSeconds = runPaperSweep(e.seed, e.workers, func(fn func()) {
					tr.sweep(e.spans, parent, trial, fn)
				})
			})
			it.wall, it.cpu = wall, cpu
			id := e.spans.begin("check", parent, trial)
			sum := sha256.Sum256([]byte(out))
			it.digest = hex.EncodeToString(sum[:])
			if tr.trials != sweepTrials() {
				it.problems = append(it.problems, fmt.Sprintf("runner completed %d trials, want %d", tr.trials, sweepTrials()))
			}
			it.counters = map[string]float64{
				"runner.trials": float64(tr.trials),
				"runner.tail_s": tr.tail.Seconds(),
			}
			runtimeCounters(it.counters, it.simSeconds, mallocs, allocBytes, gcs)
			it.counters["bench.check_s"] = e.spans.end(id).Seconds()
			it.total = time.Since(t0)
			return it
		},
		// One sample builds the lab and call of every static trial in
		// the slice, as the sweep does before their first events.
		setupSample: func(e *env, parent, i int) time.Duration {
			id := e.spans.begin("build", parent, fmt.Sprintf("setup%d", i+1))
			for _, mk := range sweepProfiles {
				for _, capMbps := range sweepCaps {
					newStaticProbe(e.seed, mk(), capMbps)
				}
			}
			return e.spans.end(id)
		},
		probe: func(e *env) (map[string]float64, []string) { return probeSweep(e.seed) },
	}
}
