package experiment

import (
	"time"

	"vcalab/internal/cascade"
	"vcalab/internal/netem"
	"vcalab/internal/runner"
	"vcalab/internal/stats"
	"vcalab/internal/vca"
)

// ScaleConfig describes the large-call cascade sweep: participants spread
// round-robin across regions, one SFU per region, a full relay mesh
// between them, and the inter-region capacity as the swept constraint.
// This is the workload the paper's two-laptop lab could not reach (§8):
// dozens of participants exercising the §4.2 server behaviours across
// geo-distributed relays.
type ScaleConfig struct {
	Profile *vca.Profile
	// Participants are the call sizes to sweep (total across regions).
	Participants []int
	// Regions is the number of SFU sites (default 3).
	Regions int
	// InterMbps sweeps the capacity of every directed inter-region link.
	InterMbps []float64
	// InterDelay is the one-way inter-region delay (default 40 ms).
	InterDelay time.Duration
	Reps       int
	Dur        time.Duration
	Warmup     time.Duration
	Seed       int64
	// Parallel is the trial parallelism; 0 = package default, 1 =
	// sequential. Output is identical for every value.
	Parallel int
	// Shards selects intra-trial region-sharded parallel execution
	// (<= 1 runs each trial on one engine). Output is identical for
	// every value: the sharded engine reproduces the sequential event
	// order exactly. Compounds with Parallel.
	Shards int
	// Recovery enables packet-level loss recovery (NACK/RTX, jitter
	// buffer, TWCC feedback) on every call; see DESIGN.md §13.
	Recovery bool
}

func (c *ScaleConfig) defaults() {
	if len(c.Participants) == 0 {
		c.Participants = []int{12, 24, 48}
	}
	if c.Regions == 0 {
		c.Regions = 3
	}
	if len(c.InterMbps) == 0 {
		c.InterMbps = []float64{20}
	}
	if c.InterDelay == 0 {
		c.InterDelay = cascade.DefaultInterDelay
	}
	if c.Reps == 0 {
		c.Reps = 3
	}
	if c.Dur == 0 {
		c.Dur = 60 * time.Second
	}
	if c.Warmup == 0 {
		c.Warmup = 20 * time.Second
	}
}

// ScaleResult is one (participants, inter-region capacity) cell of the
// cascade sweep.
type ScaleResult struct {
	Profile   string
	N         int
	Regions   int
	InterMbps float64

	// RegionDownMbps is the per-region mean received bitrate per client.
	RegionDownMbps []stats.Summary
	// FreezeRatio is the mean freeze ratio across every (receiver,
	// displayed origin) pair.
	FreezeRatio stats.Summary
	// RelayUtilMean / RelayUtilMax summarize delivered-byte utilization
	// across the directed inter-region links (post-warmup).
	RelayUtilMean, RelayUtilMax stats.Summary
	// LatP50Ms/LatP95Ms/LatP99Ms are end-to-end frame latency percentiles
	// (origin capture to receiver arrival, across all clients) in ms.
	LatP50Ms, LatP95Ms, LatP99Ms stats.Summary
}

// scaleTrial is one repetition's raw measurements.
type scaleTrial struct {
	regionDown []float64
	callQoE
	utilMean, utilMax float64
}

// runTrial executes one (n, capacity, repetition) cell on a fresh engine.
func (cfg *ScaleConfig) runTrial(n int, interMbps float64, rep int) scaleTrial {
	seed := cfg.Seed + int64(rep)*86243 + int64(n)*613 + int64(interMbps*1000)
	topo := cascade.EvenTopology(n, cfg.Regions,
		netem.LinkConfig{RateBps: interMbps * 1e6, Delay: cfg.InterDelay})
	tr := cascade.NewTrial(seed, topo, cfg.Shards, cfg.Profile,
		vca.CallOptions{Seed: seed, Recovery: cfg.Recovery})
	defer tr.Close()

	// Snapshot inter-link counters at warmup so utilization covers the
	// steady state only. In a sharded run this is a control-engine
	// global: it executes at a window barrier with every shard parked and
	// advanced to the snapshot instant, so the counters it reads are
	// exactly the sequential run's.
	links := tr.Mesh.InterLinks()
	startBytes := make([]uint64, len(links))
	tr.Eng.Schedule(cfg.Warmup, func() {
		for i, l := range links {
			startBytes[i] = l.DeliveredBytes
		}
	})

	tr.Call.Start()
	tr.RunUntil(cfg.Dur)
	tr.Call.Stop()

	var t scaleTrial
	span := (cfg.Dur - cfg.Warmup).Seconds()
	var utilSum float64
	for i, l := range links {
		util := 0.0
		if l.Rate() > 0 && span > 0 {
			util = float64(l.DeliveredBytes-startBytes[i]) * 8 / (l.Rate() * span)
		}
		utilSum += util
		if util > t.utilMax {
			t.utilMax = util
		}
	}
	if len(links) > 0 {
		t.utilMean = utilSum / float64(len(links))
	}

	flat := 0 // call.Clients is flattened in mesh.Clients order
	for _, hosts := range tr.Mesh.Clients {
		var down float64
		for range hosts {
			down += tr.Call.Clients[flat].DownMeter.MeanRateMbps(cfg.Warmup, cfg.Dur)
			flat++
		}
		if len(hosts) > 0 {
			down /= float64(len(hosts))
		}
		t.regionDown = append(t.regionDown, down)
	}
	t.callQoE = measureQoE(tr.Call, cfg.Warmup)
	return t
}

// callQoE is one trial's receive-side quality: the mean freeze ratio
// over every (receiver, displayed origin) pair and the end-to-end frame
// latency percentiles across all clients, in ms.
type callQoE struct {
	freeze              float64
	p50Ms, p95Ms, p99Ms float64
}

// measureQoE reads a finished call's freeze ratios and the frame
// latencies observed from warmup on, clients in call order.
func measureQoE(call *vca.Call, warmup time.Duration) callQoE {
	var q callQoE
	var freezeSum float64
	var freezeN int
	var lats []float64
	for _, cl := range call.Clients {
		for _, origin := range cl.Origins() {
			r := cl.Receiver(origin)
			if r.DisplayedFrames() > 0 {
				freezeSum += r.FreezeRatio()
				freezeN++
			}
		}
		for _, d := range cl.FrameLatencies(warmup) {
			lats = append(lats, d.Seconds()*1000)
		}
	}
	if freezeN > 0 {
		q.freeze = freezeSum / float64(freezeN)
	}
	if lp := stats.SortedPercentiles(lats, 50, 95, 99); lp != nil {
		q.p50Ms, q.p95Ms, q.p99Ms = lp[0], lp[1], lp[2]
	}
	return q
}

// summarizeQoE summarizes repetitions' QoE into the freeze-ratio and
// p50/p95/p99 latency summaries, in repetition order.
func summarizeQoE(qs []callQoE) (freeze, p50, p95, p99 stats.Summary) {
	var freezes, p50s, p95s, p99s []float64
	for _, q := range qs {
		freezes = append(freezes, q.freeze)
		p50s = append(p50s, q.p50Ms)
		p95s = append(p95s, q.p95Ms)
		p99s = append(p99s, q.p99Ms)
	}
	return stats.Summarize(freezes), stats.Summarize(p50s), stats.Summarize(p95s), stats.Summarize(p99s)
}

// RunScale executes the cascade sweep and returns one result per
// (participants, inter-capacity) condition. Trials fan out through the
// parallel sweep engine; aggregation happens over the ordered results, so
// output does not depend on cfg.Parallel.
func RunScale(cfg ScaleConfig) []ScaleResult {
	cfg.defaults()
	type cond struct {
		n     int
		inter float64
	}
	var conds []cond
	for _, n := range cfg.Participants {
		for _, c := range cfg.InterMbps {
			conds = append(conds, cond{n, c})
		}
	}
	trials := runner.Map(pool(cfg.Parallel, "scale "+cfg.Profile.Name),
		len(conds)*cfg.Reps, func(i int) scaleTrial {
			cd := conds[i/cfg.Reps]
			return cfg.runTrial(cd.n, cd.inter, i%cfg.Reps)
		})

	var out []ScaleResult
	for ci, cd := range conds {
		res := ScaleResult{
			Profile: cfg.Profile.Name, N: cd.n, Regions: cfg.Regions, InterMbps: cd.inter,
		}
		perRegion := make([][]float64, cfg.Regions)
		var qs []callQoE
		var utilMeans, utilMaxes []float64
		for rep := 0; rep < cfg.Reps; rep++ {
			t := trials[ci*cfg.Reps+rep]
			for r, d := range t.regionDown {
				perRegion[r] = append(perRegion[r], d)
			}
			qs = append(qs, t.callQoE)
			utilMeans = append(utilMeans, t.utilMean)
			utilMaxes = append(utilMaxes, t.utilMax)
		}
		for r := 0; r < cfg.Regions; r++ {
			res.RegionDownMbps = append(res.RegionDownMbps, stats.Summarize(perRegion[r]))
		}
		res.FreezeRatio, res.LatP50Ms, res.LatP95Ms, res.LatP99Ms = summarizeQoE(qs)
		res.RelayUtilMean = stats.Summarize(utilMeans)
		res.RelayUtilMax = stats.Summarize(utilMaxes)
		out = append(out, res)
	}
	return out
}
