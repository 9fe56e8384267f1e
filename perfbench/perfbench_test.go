package main

import (
	"bytes"
	"compress/gzip"
	"encoding/binary"
	"encoding/json"
	"math"
	"os"
	"runtime"
	"runtime/pprof"
	"slices"
	"testing"
	"time"
)

func TestModuleOf(t *testing.T) {
	for fn, want := range map[string]string{
		"vcalab/internal/sim.(*Engine).siftDown":              "sim",
		"vcalab/internal/sim.(*Engine).less":                  "sim",
		"runtime.mallocgc":                                    "runtime",
		"runtime.gcBgMarkWorker":                              "runtime",
		"internal/runtime/maps.(*Map).getWithKeySmall":        "runtime",
		"runtime/pprof.(*profileBuilder).addCPUData":          "runtime",
		"vcalab/internal/netem.(*Link).OnEvent-fm":            "netem", // method value
		"vcalab/internal/vca.(*Call).Start.func1":             "vca",   // closure
		"vcalab/internal/runner.Map[...].func1":               "runner",
		"vcalab/internal/analysis/hotpath.run":                "analysis",
		"vcalab.NewEngine":                                    "vcalab",
		"main.main":                                           "bench",
		"vcalab/perfbench.(*bench).loop":                      "bench",
		"sort.Slice":                                          "stdlib",
		"container/heap.Fix":                                  "stdlib",
		"vcalab/internal/experiment.(*StaticConfig).runTrial": "experiment",
	} {
		if got := moduleOf(fn); got != want {
			t.Errorf("moduleOf(%q) = %q, want %q", fn, got, want)
		}
	}
}

// protoBuf is a minimal protobuf encoder for building test profiles.
type protoBuf struct{ b []byte }

func (p *protoBuf) varint(field int, v uint64) {
	p.b = binary.AppendUvarint(p.b, uint64(field)<<3)
	p.b = binary.AppendUvarint(p.b, v)
}

func (p *protoBuf) bytes(field int, b []byte) {
	p.b = binary.AppendUvarint(p.b, uint64(field)<<3|2)
	p.b = binary.AppendUvarint(p.b, uint64(len(b)))
	p.b = append(p.b, b...)
}

func (p *protoBuf) packed(field int, vs ...uint64) {
	var q []byte
	for _, v := range vs {
		q = binary.AppendUvarint(q, v)
	}
	p.bytes(field, q)
}

// TestAttributeKnownFrames feeds the decoder a hand-built gzipped profile
// whose leaf frames are known: a scheduler method, an allocator frame, a
// method value, an inlined frame (a location holding two functions) and
// a garbage-collector stack.
func TestAttributeKnownFrames(t *testing.T) {
	names := []string{"",
		"vcalab/internal/sim.(*Engine).siftDown",
		"runtime.mallocgc",
		"vcalab/internal/netem.(*Link).OnEvent-fm",
		"vcalab/internal/rtp.(*RTXBuffer).Put",
		"vcalab/internal/vca.(*Server).forward",
		"runtime.scanobject",
		"runtime.gcBgMarkWorker",
	}
	var prof protoBuf
	sample := func(value uint64, packed bool, locs ...uint64) {
		var s protoBuf
		if packed {
			s.packed(1, locs...)
		} else {
			for _, l := range locs {
				s.varint(1, l)
			}
		}
		s.packed(2, value, value*10_000_000)
		prof.bytes(2, s.b)
	}
	sample(3, true, 1, 5)    // siftDown, called from forward
	sample(2, false, 2, 5)   // mallocgc
	sample(1, false, 3)      // method value
	sample(4, true, 4, 1)    // RTXBuffer.Put inlined into forward
	sample(1, true, 6, 7, 5) // GC mark work
	location := func(id uint64, fns ...uint64) {
		var l protoBuf
		l.varint(1, id)
		for _, f := range fns {
			var line protoBuf
			line.varint(1, f)
			line.varint(2, 42)
			l.bytes(4, line.b)
		}
		prof.bytes(4, l.b)
	}
	location(1, 1)
	location(2, 2)
	location(3, 3)
	location(4, 4, 5) // innermost inlined function first
	location(5, 5)
	location(6, 6)
	location(7, 7)
	for id := 1; id < len(names); id++ {
		var f protoBuf
		f.varint(1, uint64(id))
		f.varint(2, uint64(id))
		prof.bytes(5, f.b)
	}
	for _, s := range names {
		prof.bytes(6, []byte(s))
	}
	var gz bytes.Buffer
	zw := gzip.NewWriter(&gz)
	zw.Write(prof.b)
	zw.Close()

	p, err := parseProfile(gz.Bytes())
	if err != nil {
		t.Fatal(err)
	}
	a := p.attribute()
	if a.total != 11 {
		t.Fatalf("total %d samples, want 11", a.total)
	}
	for mod, want := range map[string]int64{"sim": 3, "runtime": 3, "netem": 1, "rtp": 4, "vca": 0} {
		if got := a.self[mod]; got != want {
			t.Errorf("%s: %d samples, want %d", mod, got, want)
		}
	}
	if a.gc != 1 {
		t.Errorf("gc samples %d, want 1", a.gc)
	}
}

//go:noinline
func spin(d time.Duration) int {
	n := 0
	for end := time.Now().Add(d); time.Now().Before(end); n++ {
	}
	return n
}

// TestAttributeRuntimeProfile decodes a real CPU profile of this test.
func TestAttributeRuntimeProfile(t *testing.T) {
	var buf bytes.Buffer
	if err := pprof.StartCPUProfile(&buf); err != nil {
		t.Skip("CPU profiling unavailable:", err)
	}
	spin(300 * time.Millisecond)
	pprof.StopCPUProfile()
	p, err := parseProfile(buf.Bytes())
	if err != nil {
		t.Fatal(err)
	}
	a := p.attribute()
	if a.total == 0 {
		t.Skip("no CPU samples taken")
	}
	if a.self["bench"] == 0 && a.self["stdlib"] == 0 && a.self["runtime"] == 0 {
		t.Errorf("spin samples not attributed: %v", a.self)
	}
}

func TestQuartilesMatchPython(t *testing.T) {
	for _, c := range []struct {
		in   []float64
		want [3]float64 // statistics.quantiles(in, n=4)
	}{
		{[]float64{1, 2}, [3]float64{0.75, 1.5, 2.25}},
		{[]float64{3, 1, 2}, [3]float64{1, 2, 3}},
		{[]float64{1, 2, 3, 4, 5, 6, 7, 8, 9, 10}, [3]float64{2.75, 5.5, 8.25}},
		{[]float64{5, 1, 4, 2, 3}, [3]float64{1.5, 3, 4.5}},
	} {
		q1, m, q3 := quartiles(c.in)
		got := [3]float64{q1, m, q3}
		for i := range got {
			if math.Abs(got[i]-c.want[i]) > 1e-12 {
				t.Errorf("quartiles(%v) = %v, want %v", c.in, got, c.want)
				break
			}
		}
	}
}

func TestSpanSelfTime(t *testing.T) {
	l := &spanLog{spans: []span{
		{ID: 1, Name: "iteration", Start: 0, End: 10},
		{ID: 2, Parent: 1, Name: "run", Start: 1, End: 5},
		{ID: 3, Parent: 1, Name: "check", Start: 4, End: 7}, // overlaps run
		{ID: 4, Parent: 2, Name: "inner", Start: 2, End: 3},
	}}
	l.selfTimes()
	for i, want := range []float64{4, 3, 3, 1} {
		if got := l.spans[i].Self; math.Abs(got-want) > 1e-12 {
			t.Errorf("span %s self %v, want %v", l.spans[i].Name, got, want)
		}
	}
}

func newTestEnv(seed int64, workers int) *env {
	return &env{seed: seed, spans: newSpanLog(), workers: workers}
}

func workloadByName(t *testing.T, name string) workload {
	for _, w := range workloads() {
		if w.name == name {
			return w
		}
	}
	t.Fatalf("no workload %q", name)
	return workload{}
}

// TestSteadyMatchesEngineMacro ties cascade-steady to the engine macro of
// `vcabench -bench engine`: at 30 s simulated and seed 1 it executes
// exactly the event count BENCH_engine.json records.
func TestSteadyMatchesEngineMacro(t *testing.T) {
	it := steadySpec(30*time.Second).iterate(newTestEnv(1, 1), 0, "t", false)
	if len(it.problems) > 0 {
		t.Fatal(it.problems)
	}
	if got := it.counters["sim.events"]; got != 2821228 {
		t.Errorf("events %v, want 2821228", got)
	}
}

// TestSameSeedSameDigest runs each call workload twice on one seed,
// untraced and then traced: tracing must not change the outcome.
func TestSameSeedSameDigest(t *testing.T) {
	for _, spec := range []struct {
		name string
		spec callSpec
	}{
		{"steady", steadySpec(10 * time.Second)},
		{"recovery", callSpec{profile: steadySpec(0).profile, participants: 24, regions: 3, interBps: 20e6, dur: 10 * time.Second, lossProb: 0.01}},
	} {
		a := spec.spec.iterate(newTestEnv(7, 1), 0, "a", false)
		b := spec.spec.iterate(newTestEnv(7, 1), 0, "b", true)
		if len(a.problems)+len(b.problems) > 0 {
			t.Fatal(spec.name, a.problems, b.problems)
		}
		if a.digest != b.digest {
			t.Errorf("%s: digests differ: %s vs %s", spec.name, a.digest, b.digest)
		}
		if c := b.counters["obs.events.deliver"]; c == 0 {
			t.Errorf("%s: traced run recorded no deliver events", spec.name)
		}
	}
	w := workloadByName(t, "churn-sharded")
	a := w.iterate(newTestEnv(7, 1), 0, "a", false)
	b := w.iterate(newTestEnv(7, 1), 0, "b", true)
	if len(a.problems)+len(b.problems) > 0 {
		t.Fatal(a.problems, b.problems)
	}
	if a.digest != b.digest {
		t.Errorf("churn-sharded: digests differ: %s vs %s", a.digest, b.digest)
	}
	if a.counters["sim.group.windows"] == 0 || a.counters["scenario.events_applied"] == 0 {
		t.Errorf("churn-sharded: no shard windows or timeline events: %v", a.counters)
	}
}

// TestPaperSweepWorkerInvariant: the sweep's printed results do not
// depend on the pool size.
func TestPaperSweepWorkerInvariant(t *testing.T) {
	var outs []string
	for _, workers := range []int{1, runtime.NumCPU()} {
		out, sim := runPaperSweep(3, workers, func(fn func()) { fn() })
		if sim <= 0 || out == "" {
			t.Fatalf("workers %d: empty sweep", workers)
		}
		outs = append(outs, out)
	}
	if outs[0] != outs[1] {
		t.Errorf("sweep output differs between 1 and %d workers:\n%s\n---\n%s", runtime.NumCPU(), outs[0], outs[1])
	}
}

// TestDeclaredMetrics checks BENCHMARK.json and reference.json against
// what the benchmark reports: the same workloads and metrics with the
// same units, a recorded digest for every workload, and a layer map that
// names only reported metrics and workloads.
func TestDeclaredMetrics(t *testing.T) {
	data, err := os.ReadFile("../BENCHMARK.json")
	if err != nil {
		t.Fatal(err)
	}
	type metric struct{ Name, Unit string }
	var decl struct {
		Workloads []struct{ Name string }
		EndToEnd  []metric `json:"end_to_end"`
		PerLayer  []metric `json:"per_layer"`
	}
	if err := json.Unmarshal(data, &decl); err != nil {
		t.Fatal(err)
	}
	var ref struct {
		Digests map[string]string
		Layers  []struct {
			Metrics, Moves, Workloads []string
		}
	}
	if err := json.Unmarshal(referenceJSON, &ref); err != nil {
		t.Fatal(err)
	}

	var names, declNames []string
	for _, w := range workloads() {
		names = append(names, w.name)
		if ref.Digests[w.name] == "" {
			t.Errorf("no recorded digest for %s", w.name)
		}
	}
	for _, w := range decl.Workloads {
		declNames = append(declNames, w.Name)
	}
	if !slices.Equal(names, declNames) {
		t.Errorf("workloads %v, BENCHMARK.json declares %v", names, declNames)
	}
	same := func(kind string, have []metricDef, declared []metric) map[string]bool {
		set := map[string]bool{}
		var got []metric
		for _, m := range have {
			got = append(got, metric{m.name, m.unit})
			set[m.name] = true
		}
		if !slices.Equal(got, declared) {
			t.Errorf("%s metrics %v, BENCHMARK.json declares %v", kind, got, declared)
		}
		return set
	}
	e2e := same("end-to-end", endToEnd, decl.EndToEnd)
	layer := same("per-layer", perLayer(), decl.PerLayer)
	for _, l := range ref.Layers {
		for _, m := range l.Metrics {
			if !layer[m] {
				t.Errorf("layer map names unreported metric %s", m)
			}
		}
		for _, m := range l.Moves {
			if !e2e[m] {
				t.Errorf("layer map names unknown end-to-end metric %s", m)
			}
		}
		for _, w := range l.Workloads {
			if !slices.Contains(names, w) {
				t.Errorf("layer map names unknown workload %s", w)
			}
		}
	}
}
