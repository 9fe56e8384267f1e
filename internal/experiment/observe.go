package experiment

// Observability wiring for the dynamic experiment: per-trial tracer and
// metrics capture, assembled here so the sim layers stay ignorant of
// experiment structure. Each repetition owns its tracer and metrics log
// (one engine, one tracer — nothing is shared across trials), and
// RunDynamic flushes the captures in repetition order after the sweep,
// so the trace and metrics files are byte-identical at any -parallel.
//
// The sampler tick is an extra scheduled event, which shifts engine
// sequence numbers relative to an unobserved run — harmless, because
// every callback it fires is a pure read (gauges poll accessors, the
// getStats path never calls Receiver.Take, nothing draws from the
// engine RNG), so the relative order and content of all other events,
// and therefore the experiment's stdout, are unchanged.

import (
	"fmt"
	"time"

	"vcalab/internal/cascade"
	"vcalab/internal/netem"
	"vcalab/internal/obs"
	"vcalab/internal/scenario"
	"vcalab/internal/sim"
	"vcalab/internal/vca"
)

// ObsConfig enables per-trial observability capture on a dynamic run.
// The zero value (and a nil pointer) disables everything.
type ObsConfig struct {
	// Trace attaches a ring-buffer tracer to every link, the call, and
	// the timeline.
	Trace bool
	// Metrics samples the metrics registry and per-client getStats
	// snapshots every Interval.
	Metrics bool
	// Interval is the metrics sampling period (default 1s).
	Interval time.Duration
	// TraceCap overrides the tracer ring capacity (default
	// obs.DefaultTraceCap).
	TraceCap int
}

// trialObs is one repetition's captured observability state. The trial
// records into parts (the control tracer first, then any shards in
// index order); finish() folds them into tracer via obs.Merge.
type trialObs struct {
	tracer *obs.Tracer
	parts  []*obs.Tracer
	log    *obs.MetricsLog
}

// finish resolves the per-shard capture into the single tracer flushObs
// writes. Call once, after the trial's run completes. Nil-safe, returns
// its receiver so callers can assign through it.
func (to *trialObs) finish() *trialObs {
	if to != nil && len(to.parts) > 0 {
		to.tracer = obs.Merge(to.parts...)
		to.parts = nil
	}
	return to
}

// instrumentTrial attaches tracing and metrics sampling to a freshly
// built trial. Call before the timeline starts so t<=0 scenario events
// are captured. Returns nil when observability is off.
//
// On a sharded trial each shard records into its own tracer — the
// control tracer takes churn, timeline and trial-level events — and
// finish() merges them in (time, control-then-shard-index) order. The
// metrics sampler stays a control-engine global: it fires at window
// barriers with every shard parked at the sample instant, so link, call
// and getStats lines read exactly the state the sequential run would
// have sampled. Engine-internal gauges aggregate over all engines and
// remain deterministic, but scheduler internals (wheel ratio, live
// high-water) legitimately differ across shard counts.
func instrumentTrial(o *ObsConfig, tr *cascade.Trial, tl *scenario.Timeline) *trialObs {
	if o == nil || (!o.Trace && !o.Metrics) {
		return nil
	}
	call := tr.Call
	to := &trialObs{}
	if o.Trace {
		to.parts = tr.Trace(o.TraceCap)
		tl.SetTracer(to.parts[0])
	}
	if o.Metrics {
		interval := o.Interval
		if interval <= 0 {
			interval = time.Second
		}
		to.log = &obs.MetricsLog{}
		reg := obs.NewRegistry()
		registerEngineMetrics(reg, tr.Engines())
		registerLinkMetrics(reg, tr.Mesh)
		registerCallMetrics(reg, call)
		rtt := reg.Histogram("vca/feedback_rtt_ms")
		tr.Eng.EveryHandler(interval, sim.HandlerFunc(func(now time.Duration) {
			for _, cl := range call.Clients {
				if call.Active(cl.Name) && cl.LastRTT() > 0 {
					rtt.Observe(cl.LastRTT().Seconds() * 1000)
				}
			}
			reg.Sample(now, to.log)
			for _, cl := range call.Clients {
				if !call.Active(cl.Name) {
					continue
				}
				rep := cl.StatsReport(now)
				for _, e := range rep.Entries() {
					to.log.Append(e)
				}
			}
		}))
	}
	return to
}

// registerEngineMetrics aggregates the scheduler gauges over every
// engine of the trial: one entry sequentially, control plus shards on a
// sharded run. Sums of processed/live match the sequential run at every
// sample instant (the same event set precedes each barrier); high-water
// and wheel-ratio are per-engine properties whose aggregate is
// deterministic but shard-count-dependent.
func registerEngineMetrics(reg *obs.Registry, engines []*sim.Engine) {
	reg.Gauge("eng/processed", func() float64 {
		var n uint64
		for _, e := range engines {
			n += e.Processed()
		}
		return float64(n)
	})
	reg.Gauge("eng/live", func() float64 {
		n := 0
		for _, e := range engines {
			n += e.Live()
		}
		return float64(n)
	})
	reg.Gauge("eng/live_high_water", func() float64 {
		n := 0
		for _, e := range engines {
			n += e.LiveHighWater()
		}
		return float64(n)
	})
	reg.Gauge("eng/wheel_insert_ratio", func() float64 {
		var w, h uint64
		for _, e := range engines {
			ew, eh := e.SchedulerInserts()
			w += ew
			h += eh
		}
		if w+h == 0 {
			return 0
		}
		return float64(w) / float64(w+h)
	})
}

func registerLinkMetrics(reg *obs.Registry, mesh *cascade.Mesh) {
	for _, l := range mesh.Links() {
		l := l
		prefix := "link/" + l.Name() + "/"
		reg.Gauge(prefix+"queue_bytes", func() float64 { return float64(l.QueuedBytes()) })
		reg.Gauge(prefix+"queue_high_water_bytes", func() float64 { return float64(l.QueueHighWater()) })
		reg.Gauge(prefix+"drops", func() float64 { return float64(l.Drops) })
		reg.Gauge(prefix+"aqm_drops", func() float64 { return float64(l.AQMDrops) })
		reg.Gauge(prefix+"paused_ms", func() float64 {
			return float64(l.PausedTotal()) / float64(time.Millisecond)
		})
		// Loss models install mid-run (timeline shape events), so the
		// GE burst-state occupancy re-checks the model on every sample.
		reg.Gauge(prefix+"ge_bad_share", func() float64 {
			if ge, ok := l.LossModel().(*netem.GilbertElliott); ok && ge.Offered > 0 {
				return float64(ge.BadOffered) / float64(ge.Offered)
			}
			return 0
		})
	}
}

func registerCallMetrics(reg *obs.Registry, call *vca.Call) {
	for _, s := range call.Servers {
		s := s
		reg.Gauge("vca/"+s.Name+"/fwd_switches", func() float64 { return float64(s.FwdSwitches()) })
		for _, legName := range s.LegNames() {
			legName := legName
			reg.Gauge("vca/"+s.Name+"/leg/"+legName+"/fwd_bytes", func() float64 {
				return float64(s.LegFwdBytes(legName))
			})
		}
	}
	for _, cl := range call.Clients {
		cl := cl
		reg.Gauge("vca/"+cl.Name+"/target_bps", func() float64 {
			if cc := cl.CC(); cc != nil {
				return cc.TargetBps()
			}
			return 0
		})
	}
}

// flushObs writes every repetition's capture in rep order, each preceded
// by a trial-header line carrying the (profile, scenario, rep) identity
// and the tracer's retention accounting, so a multi-rep (or multi-
// condition) file remains self-describing. Write errors surface on the
// returned error; the experiment's own stdout is unaffected.
func flushObs(cfg *DynamicConfig, trials []dynamicTrial) error {
	for rep, t := range trials {
		if t.obs == nil {
			continue
		}
		if cfg.TraceW != nil && t.obs.tracer != nil {
			tr := t.obs.tracer
			if _, err := fmt.Fprintf(cfg.TraceW,
				"{\"kind\":\"trial\",\"profile\":%q,\"scenario\":%q,\"rep\":%d,\"trace_events\":%d,\"trace_dropped\":%d}\n",
				cfg.Profile.Name, cfg.Scenario.Name, rep, tr.Total(), tr.Dropped()); err != nil {
				return err
			}
			if err := tr.WriteJSONL(cfg.TraceW); err != nil {
				return err
			}
		}
		if cfg.MetricsW != nil && t.obs.log != nil {
			if err := t.obs.log.Err(); err != nil {
				return err
			}
			if _, err := fmt.Fprintf(cfg.MetricsW,
				"{\"kind\":\"trial\",\"profile\":%q,\"scenario\":%q,\"rep\":%d}\n",
				cfg.Profile.Name, cfg.Scenario.Name, rep); err != nil {
				return err
			}
			if _, err := t.obs.log.WriteTo(cfg.MetricsW); err != nil {
				return err
			}
		}
	}
	return nil
}
