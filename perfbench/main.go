// Command perfbench is the repository's benchmark: it runs one simulator
// workload for a fixed host-time budget, checks every repetition's
// output, and prints each metric by name with its unit. The last line of
// standard output is one JSON object:
//
//	{"correct": true, "attempted": N, "failed": 0, "metrics": {...}}
//
// With --trace 0 the metrics are the end-to-end ones (host time, tracing
// off); with --trace 1 they are the per-layer ones, taken from an
// untraced half of the budget (counters, timings) and a traced half
// (the program's obs tracers attached, a CPU profile attributed to
// modules, benchmark spans written at exit).
//
// Run it from the repository root through run.sh, which builds it:
//
//	bash perfbench/run.sh --workload cascade-steady --seed 1 --seconds 20 --trace 0
package main

import (
	"bytes"
	_ "embed"
	"encoding/json"
	"flag"
	"fmt"
	"os"
	"path/filepath"
	"runtime"
	"runtime/pprof"
	"slices"
	"syscall"
	"time"
)

// reference.json records the default seed's output digests (the golden
// check) and the layer -> end-to-end metric -> workload map.
//
//go:embed reference.json
var referenceJSON []byte

type reference struct {
	DefaultSeed int64             `json:"default_seed"`
	Digests     map[string]string `json:"digests"`
}

// metricDef is one reported metric.
type metricDef struct{ name, unit string }

var endToEnd = []metricDef{
	{"sim_s_per_wall_s", "sim-s/s"},
	{"cpu_s_per_sim_s", "s/sim-s"},
	{"setup_s", "s"},
	{"peak_rss_mb", "MB"},
}

// selfFracModules are the modules a CPU sample's leaf frame can land in
// (see moduleOf); each gets a <module>.self_frac metric.
var selfFracModules = []string{
	"sim", "netem", "vca", "rtp", "cc", "codec", "media", "tcp", "quic", "apps",
	"stats", "obs", "scenario", "cascade", "runner", "experiment", "webrtcstats",
	"vcalab", "runtime", "stdlib", "bench",
}

func perLayer() []metricDef {
	defs := []metricDef{
		{"sim.events", "count"},
		{"sim.ns_per_event", "ns"},
		{"sim.live_high_water", "count"},
		{"sim.wheel_insert_ratio", "ratio"},
		{"sim.group.windows", "count"},
		{"sim.group.barrier_wait_frac_max", "frac"},
		{"sim.group.barrier_wait_frac_mean", "frac"},
		{"sim.group.mailbox_high_water", "count"},
		{"netem.delivered_pkts", "count"},
		{"netem.drops", "count"},
		{"netem.delivered_frac", "frac"},
		{"netem.queue_high_water_bytes", "bytes"},
		{"vca.id_space", "count"},
		{"vca.recovery.nacked_seqs", "count"},
		{"vca.recovery.retransmissions", "count"},
		{"vca.recovery.rtx_per_nack", "ratio"},
		{"cascade.build_s", "s"},
		{"vca.new_call_s", "s"},
		{"scenario.events_applied", "count"},
		{"runner.trials", "count"},
		{"runner.tail_s", "s"},
		{"runtime.mallocs_per_sim_s", "1/sim-s"},
		{"runtime.alloc_mb", "MB"},
		{"runtime.gc_cycles", "count"},
		{"runtime.gc_self_frac", "frac"},
	}
	for _, k := range tracedKinds {
		defs = append(defs, metricDef{"obs.events." + k.String(), "count"})
	}
	defs = append(defs,
		metricDef{"obs.overhead_frac", "ratio"},
		metricDef{"obs.overhead_s", "s"},
		metricDef{"bench.check_s", "s"},
	)
	for _, m := range selfFracModules {
		defs = append(defs, metricDef{m + ".self_frac", "frac"})
	}
	return defs
}

type metricValue struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

type result struct {
	Correct   bool                   `json:"correct"`
	Attempted int                    `json:"attempted"`
	Failed    int                    `json:"failed"`
	Metrics   map[string]metricValue `json:"metrics"`
}

// setupSamples is how many extra constructions a run times for setup_s,
// besides the one each iteration makes.
const setupSamples = 100

func main() {
	name := flag.String("workload", "", "workload to run")
	seed := flag.Int64("seed", 1, "input seed")
	seconds := flag.Int("seconds", 20, "host-time budget of the measurement, in seconds")
	trace := flag.Int("trace", 0, "1: report per-layer metrics from an untraced and a traced pass")
	flag.Parse()

	var w *workload
	for _, c := range workloads() {
		if c.name == *name {
			w = &c
		}
	}
	if w == nil || *seconds < 1 || (*trace != 0 && *trace != 1) {
		fmt.Fprintf(os.Stderr, "usage: perfbench --workload <name> --seed <n> --seconds <n> --trace <0|1>\n")
		os.Exit(2)
	}
	var ref reference
	if err := json.Unmarshal(referenceJSON, &ref); err != nil {
		fmt.Fprintf(os.Stderr, "perfbench: reference.json: %v\n", err)
		os.Exit(2)
	}
	outDir := filepath.Join(".bench_build", "perfbench")
	if *trace == 1 {
		if err := os.MkdirAll(outDir, 0o755); err != nil {
			fmt.Fprintf(os.Stderr, "perfbench: %v\n", err)
			os.Exit(1)
		}
	}

	b := &bench{
		w:       *w,
		e:       &env{seed: *seed, spans: newSpanLog(), workers: runtime.GOMAXPROCS(0)},
		ref:     ref,
		budget:  time.Duration(*seconds) * time.Second,
		traced:  *trace == 1,
		outBase: filepath.Join(outDir, fmt.Sprintf("%s-seed%d", w.name, *seed)),
	}
	res, err := b.run()
	if err != nil {
		fmt.Fprintf(os.Stderr, "perfbench: %v\n", err)
		os.Exit(1)
	}
	line, err := json.Marshal(res)
	if err != nil {
		fmt.Fprintf(os.Stderr, "perfbench: %v\n", err)
		os.Exit(1)
	}
	fmt.Println(string(line))
	if !res.Correct {
		os.Exit(1)
	}
}

// bench is one run of one workload.
type bench struct {
	w       workload
	e       *env
	ref     reference
	budget  time.Duration
	traced  bool
	outBase string // path prefix of the spans and profile files

	root       int // the run's span
	iterations int
	firstHash  string
	failed     int
}

// loop runs iterations until the next one would overrun budget (always at
// least one) and checks each.
func (b *bench) loop(budget time.Duration, traced bool) []iteration {
	var its []iteration
	start := time.Now()
	for {
		b.iterations++
		trial := fmt.Sprintf("it%d", b.iterations)
		runtime.GC()
		id := b.e.spans.begin("iteration", b.root, trial)
		it := b.w.iterate(b.e, id, trial, traced)
		b.e.spans.end(id)
		b.check(trial, &it)
		its = append(its, it)
		el := time.Since(start)
		if el+el/time.Duration(len(its)) > budget {
			return its
		}
	}
}

// check compares an iteration's digest with the run's first and, at the
// default seed, with the recorded one; any mismatch or failed invariant
// fails the iteration.
func (b *bench) check(trial string, it *iteration) {
	if b.firstHash == "" {
		b.firstHash = it.digest
		fmt.Printf("digest %s seed %d: %s\n", b.w.name, b.e.seed, it.digest)
		if want := b.ref.Digests[b.w.name]; b.e.seed == b.ref.DefaultSeed && it.digest != want {
			it.problems = append(it.problems, fmt.Sprintf("digest %s, recorded %s", it.digest, want))
		}
	} else if it.digest != b.firstHash {
		it.problems = append(it.problems, fmt.Sprintf("digest %s differs from the first iteration's %s", it.digest, b.firstHash))
	}
	if len(it.problems) > 0 {
		b.failed++
		for _, p := range it.problems {
			fmt.Fprintf(os.Stderr, "perfbench: %s %s: %s\n", b.w.name, trial, p)
		}
	}
}

func (b *bench) run() (result, error) {
	b.root = b.e.spans.begin("workload "+b.w.name, 0, "")
	setups := b.setupTimes()
	res := result{Metrics: map[string]metricValue{}}
	if !b.traced {
		its := b.loop(b.budget, false)
		var simRate, cpuRate []float64
		for _, it := range its {
			simRate = append(simRate, it.simSeconds/it.wall.Seconds())
			cpuRate = append(cpuRate, it.cpu.Seconds()/it.simSeconds)
			if it.setup > 0 {
				setups = append(setups, it.setup.Seconds())
			}
		}
		var ru syscall.Rusage
		if err := syscall.Getrusage(syscall.RUSAGE_SELF, &ru); err != nil {
			return res, fmt.Errorf("getrusage: %w", err)
		}
		samples := map[string][]float64{
			"sim_s_per_wall_s": simRate,
			"cpu_s_per_sim_s":  cpuRate,
			"setup_s":          setups,
			"peak_rss_mb":      {float64(ru.Maxrss) / 1024}, // Linux reports KiB
		}
		fmt.Printf("%-18s %12s %12s %12s %4s\n", "metric", "median", "q1", "q3", "n")
		for _, m := range endToEnd {
			v := samples[m.name]
			q1, med, q3 := quartiles(v)
			fmt.Printf("%-18s %12.6g %12.6g %12.6g %4d  %s\n", m.name, med, q1, q3, len(v), m.unit)
			res.Metrics[m.name] = metricValue{med, m.unit}
		}
	} else if err := b.traceRun(res.Metrics); err != nil {
		return res, err
	}
	res.Attempted, res.Failed = b.iterations, b.failed
	res.Correct = b.failed == 0
	return res, nil
}

// setupTimes times setupSamples discarded constructions.
func (b *bench) setupTimes() []float64 {
	var out []float64
	for i := 0; i < setupSamples; i++ {
		runtime.GC()
		out = append(out, b.w.setupSample(b.e, b.root, i).Seconds())
	}
	return out
}

// traceRun fills the per-layer metrics: counters and timings from an
// untraced pass over half the budget, self fractions and obs counts from
// a traced pass under a CPU profile over the other half.
func (b *bench) traceRun(metrics map[string]metricValue) error {
	start := time.Now()
	var probed map[string]float64
	if b.w.probe != nil {
		id := b.e.spans.begin("probe", b.root, "probe")
		var bad []string
		probed, bad = b.w.probe(b.e)
		b.e.spans.end(id)
		b.iterations++
		if len(bad) > 0 {
			b.failed++
			for _, p := range bad {
				fmt.Fprintf(os.Stderr, "perfbench: %s probe: %s\n", b.w.name, p)
			}
		}
	}
	plain := b.loop(b.budget/2-time.Since(start), false)
	counters := medians(plain)
	for k, v := range probed {
		counters[k] = v
	}

	var prof bytes.Buffer
	if err := pprof.StartCPUProfile(&prof); err != nil {
		return fmt.Errorf("cpu profile: %w", err)
	}
	traced := b.loop(b.budget-b.budget/2, true)
	pprof.StopCPUProfile()
	tc := medians(traced)
	for _, k := range tracedKinds {
		name := "obs.events." + k.String()
		counters[name] = tc[name]
	}

	p, err := parseProfile(prof.Bytes())
	if err != nil {
		return err
	}
	att := p.attribute()
	for _, m := range selfFracModules {
		counters[m+".self_frac"] = att.frac(m)
	}
	counters["runtime.gc_self_frac"] = att.gcFrac()

	untracedS := median(totals(plain))
	tracedS := median(totals(traced))
	counters["obs.overhead_s"] = tracedS - untracedS
	counters["obs.overhead_frac"] = tracedS / untracedS
	fmt.Printf("tracing overhead: traced %.4fs - untraced %.4fs = %+.4fs per iteration (%d untraced, %d traced)\n",
		tracedS, untracedS, tracedS-untracedS, len(plain), len(traced))
	fmt.Printf("cpu samples: %d; largest modules:", att.total)
	for _, m := range att.top(5) {
		fmt.Printf(" %s %.3f", m, att.frac(m))
	}
	fmt.Println()

	for _, m := range perLayer() {
		metrics[m.name] = metricValue{counters[m.name], m.unit}
		fmt.Printf("%-34s %14.6g %s\n", m.name, counters[m.name], m.unit)
	}
	b.e.spans.end(b.root)
	if err := os.WriteFile(b.outBase+".cpu.pprof", prof.Bytes(), 0o644); err != nil {
		return fmt.Errorf("write profile: %w", err)
	}
	return b.e.spans.write(b.outBase + ".spans.jsonl")
}

func totals(its []iteration) []float64 {
	var v []float64
	for _, it := range its {
		v = append(v, it.total.Seconds())
	}
	return v
}

// medians reduces each counter to its median over the iterations.
func medians(its []iteration) map[string]float64 {
	vals := map[string][]float64{}
	for _, it := range its {
		for k, v := range it.counters {
			vals[k] = append(vals[k], v)
		}
	}
	out := map[string]float64{}
	for k, v := range vals {
		out[k] = median(v)
	}
	return out
}

func median(v []float64) float64 {
	_, m, _ := quartiles(v)
	return m
}

// quartiles returns the first quartile, median and third quartile of v
// by the method of Python's statistics.quantiles(v, n=4) (exclusive).
func quartiles(v []float64) (q1, med, q3 float64) {
	d := slices.Clone(v)
	slices.Sort(d)
	switch len(d) {
	case 0:
		return 0, 0, 0
	case 1:
		return d[0], d[0], d[0]
	}
	n := len(d)
	q := func(i int) float64 {
		j := i * (n + 1) / 4
		j = max(1, min(j, n-1))
		delta := i*(n+1) - j*4
		return (d[j-1]*float64(4-delta) + d[j]*float64(delta)) / 4
	}
	return q(1), q(2), q(3)
}

// cpuTime is the process's user plus system CPU time so far.
func cpuTime() time.Duration {
	var ru syscall.Rusage
	if err := syscall.Getrusage(syscall.RUSAGE_SELF, &ru); err != nil {
		return 0
	}
	return time.Duration(ru.Utime.Nano() + ru.Stime.Nano())
}
