package experiment

import (
	"crypto/sha256"
	"encoding/hex"
	"fmt"
	"hash"
	"io"
	"testing"
	"time"

	"vcalab/internal/scenario"
	"vcalab/internal/stats"
	"vcalab/internal/vca"
)

// goldenDigests pins the SHA-256 of the cascaded-trial outputs at the
// `vcabench -quick` configurations (seed 1, 3 repetitions): the scale
// sweep, every canned dynamic scenario with recovery off and on, the
// 50-seed fuzz verdict at 1 and 2 shards, and the trace and metrics
// files of a traced capacity-cliff run at 1 and 2 shards. The "paper/"
// entries pin the paper-figure runners (static sweeps and Table 2,
// disruption, competition, modality, impairment with recovery off and
// on, bandwidth traces) at small one-repetition configurations. A
// refactor must leave every digest unchanged; a deliberate behaviour
// change updates the entry and says why in CHANGES.md.
var goldenDigests = map[string]string{
	"scale":                                   "f02d26ca29b6f0a2c0811c892134462c99214369a0dcade09464f94902506f0c",
	"dynamic/churn-storm/recovery=false":      "3fdccef072d6cebe75305c4998b7abdd69d1679a973859da2360fad71225b74e",
	"dynamic/capacity-cliff/recovery=false":   "ac9e7d1d48e64972575a0d40470c6826033366aedc15ec8bd1248ec26b690284",
	"dynamic/region-partition/recovery=false": "71f7312b22fda52f77e28f5fe100374d9bfddb24425773cea4a352a7ededfddb",
	"dynamic/trace-replay/recovery=false":     "262fce0425c6dda8b6e830dda98f441d75faa7f3b778ba68524961ac6671a311",
	"dynamic/speaker-flip/recovery=false":     "103ca600e716275154b648ff387cc0804a4a4e607d7e941f1df471a90bf6f1d6",
	"dynamic/churn-storm/recovery=true":       "63e0736c0b0ec99fedad964377891ef5f58454598aa23b2bc10e2d3525d3e399",
	"dynamic/capacity-cliff/recovery=true":    "ac9e7d1d48e64972575a0d40470c6826033366aedc15ec8bd1248ec26b690284",
	"dynamic/region-partition/recovery=true":  "71f7312b22fda52f77e28f5fe100374d9bfddb24425773cea4a352a7ededfddb",
	"dynamic/trace-replay/recovery=true":      "34e4da1657b1d58bd5e4643c705854ed3ae4237a2edc94300ac856b5b51dd8e7",
	"dynamic/speaker-flip/recovery=true":      "103ca600e716275154b648ff387cc0804a4a4e607d7e941f1df471a90bf6f1d6",
	"fuzz/shards=1":                           "38ece7b44102b197147a0470c443d140a18bfd5366a60d6b7c75e4c6238f21a7",
	"fuzz/shards=2":                           "38ece7b44102b197147a0470c443d140a18bfd5366a60d6b7c75e4c6238f21a7",
	"traced/capacity-cliff/shards=1/trace":    "66681798b2ac793d0a2c9b153bad2bcce778a9fc8e1d725999ad53d478681eb9",
	"traced/capacity-cliff/shards=1/metrics":  "c658c71820a77472d9ce6a136902d80242d94bc53dfcb6d386a6e8fbca4f3d53",
	"traced/capacity-cliff/shards=2/trace":    "e8a72df9ee221cb538817e6b6efbdece16566e9243dd9af52ffa9dce3c6062ad",
	"traced/capacity-cliff/shards=2/metrics":  "3cc76c7600b3f84ec3214b4fd7ec3051a9770ee9f48b053f2337b3e6c99ba561",
	"paper/static":                            "3c9c2475b4a279799e02a6b2ddbeca48fdca266f0dca3fda772d4acde7b45d23",
	"paper/table2":                            "11ba388f801a572d4517bdef4b9ffb29bbdd0cc00a4cc10153f58aa46391b23b",
	"paper/disruption":                        "094c841319ac3e73ab33b6dabe30bb74d440f961ae0221763aef9ee835027f02",
	"paper/competition":                       "fb54a622b7a6b288cb69c6d4efc0c5e759469dfc5f624401b63e09a6434b269e",
	"paper/modality":                          "3ca5284e335f416f2bc3c63b941a225a1691d688949b6d63594ecc6b2f1fccbd",
	"paper/impairment/recovery=false":         "957925e1bfb6f8fac1d7a7184b9503e7c805d4df85fa25f4a35d83817efb9a35",
	"paper/impairment/recovery=true":          "70610af21c063bbff1e9ac1b1caa28a1e6c8558a0451e78cc628947ab57389ef",
	"paper/traces":                            "814ca7307744860974abe25c5f5179a92924bc4c41993e9d78f366f3a62183be",
}

// goldenProfiles is the CLI's profile order for scale and dynamic.
func goldenProfiles() []*vca.Profile {
	return []*vca.Profile{vca.Meet(), vca.Teams(), vca.Zoom()}
}

// goldenDynamicConfig mirrors `vcabench -experiment dynamic -quick` for
// one profile and canned scenario.
func goldenDynamicConfig(t *testing.T, p *vca.Profile, name string, shards int, recovery bool) DynamicConfig {
	sc, err := scenario.Canned(name, 8, 10e6)
	if err != nil {
		t.Fatal(err)
	}
	return DynamicConfig{
		Profile: p, Scenario: sc,
		Participants: 8, Regions: 2, InterMbps: 10,
		Reps: 3, Dur: 80 * time.Second, Warmup: 10 * time.Second,
		Seed: 1, Shards: shards, Recovery: recovery,
	}
}

// goldenCases renders every pinned output straight into a hash (the
// traced files run to tens of megabytes), keyed by case name.
func goldenCases(t *testing.T) map[string]hash.Hash {
	out := map[string]hash.Hash{}
	sink := func(name string) io.Writer {
		h := sha256.New()
		out[name] = h
		return h
	}

	w := sink("scale")
	for _, p := range goldenProfiles() {
		PrintScale(w, RunScale(ScaleConfig{
			Profile: p, Participants: []int{8, 16}, Regions: 3,
			InterMbps: []float64{10}, Reps: 3,
			Dur: 30 * time.Second, Warmup: 10 * time.Second, Seed: 1,
		}))
	}

	for _, recovery := range []bool{false, true} {
		for _, name := range scenario.CannedNames() {
			w := sink(fmt.Sprintf("dynamic/%s/recovery=%v", name, recovery))
			for _, p := range goldenProfiles() {
				PrintDynamic(w, RunDynamic(goldenDynamicConfig(t, p, name, 1, recovery)))
			}
		}
	}

	for _, shards := range []int{1, 2} {
		PrintFuzz(sink(fmt.Sprintf("fuzz/shards=%d", shards)), RunFuzz(FuzzConfig{
			N: 50, Seed: 1, Participants: 6, Dur: 30 * time.Second, Shards: shards,
		}), false)

		trace := sink(fmt.Sprintf("traced/capacity-cliff/shards=%d/trace", shards))
		metrics := sink(fmt.Sprintf("traced/capacity-cliff/shards=%d/metrics", shards))
		for _, p := range goldenProfiles() {
			cfg := goldenDynamicConfig(t, p, "capacity-cliff", shards, false)
			cfg.Obs = &ObsConfig{Trace: true, Metrics: true, Interval: time.Second}
			cfg.TraceW, cfg.MetricsW = trace, metrics
			RunDynamic(cfg)
		}
	}
	goldenPaperCases(sink)
	return out
}

// goldenPaperCases renders the paper-figure runners at small
// configurations: one repetition, short calls, few grid points.
func goldenPaperCases(sink func(string) io.Writer) {
	w := sink("paper/static")
	for _, dir := range []Direction{Uplink, Downlink} {
		for _, p := range goldenProfiles() {
			PrintStatic(w, RunStatic(StaticConfig{
				Profile: p, Dir: dir, CapsMbps: []float64{0.3, 1, 0}, Reps: 1,
				Dur: 40 * time.Second, Warmup: 10 * time.Second, Seed: 1,
			}))
		}
	}
	PrintTable2(sink("paper/table2"), Table2(goldenProfiles(), 1, 1))

	w = sink("paper/disruption")
	for _, p := range goldenProfiles() {
		for _, dir := range []Direction{Uplink, Downlink} {
			r := RunDisruption(DisruptionConfig{
				Profile: p, Dir: dir, LevelMbps: 0.25, Reps: 1, Seed: 1,
				CallDur: 90 * time.Second, DropAt: 20 * time.Second, DropLen: 20 * time.Second,
			})
			PrintDisruption(w, r)
			PrintDisruptionTrace(w, r)
		}
	}

	w = sink("paper/competition")
	for _, c := range []CompetitionConfig{
		{Incumbent: vca.Teams(), Kind: CompVCA, CompProfile: vca.Zoom(), LinkMbps: 1},
		{Incumbent: vca.Meet(), Kind: CompIPerf, LinkMbps: 2},
		{Incumbent: vca.Zoom(), Kind: CompNetflix, LinkMbps: 0.5},
	} {
		c.Reps, c.Seed = 1, 1
		c.CallDur, c.CompAt, c.CompDur = 70*time.Second, 10*time.Second, 40*time.Second
		c.ShareLo, c.ShareHi = 20*time.Second, 50*time.Second
		PrintCompetition(w, RunCompetition(c))
	}

	w = sink("paper/modality")
	for _, p := range goldenProfiles() {
		for _, mode := range []vca.ViewMode{vca.Gallery, vca.Speaker} {
			PrintModality(w, []ModalityResult{RunModality(ModalityConfig{
				Profile: p, N: 4, Mode: mode, Reps: 1,
				Dur: 30 * time.Second, Warmup: 10 * time.Second, Seed: 1,
			})})
		}
	}

	for _, recovery := range []bool{false, true} {
		w := sink(fmt.Sprintf("paper/impairment/recovery=%v", recovery))
		for _, p := range goldenProfiles() {
			PrintImpairment(w, RunImpairment(ImpairmentConfig{
				Profile: p, LossPcts: []float64{0, 2}, Jitter: 20 * time.Millisecond,
				Reps: 1, Dur: 40 * time.Second, Warmup: 10 * time.Second, Seed: 1,
				Recovery: recovery,
			}))
		}
	}

	w = sink("paper/traces")
	trace := BandwidthTrace{
		{At: 10 * time.Second, UpBps: 0.5e6, DownBps: 1e6},
		{At: 25 * time.Second, UpBps: 2e6},
		{At: 40 * time.Second},
	}
	for _, r := range RunTraces(goldenProfiles(), trace, 60*time.Second, 1, 0) {
		fmt.Fprintf(w, "%s freeze %.6f fir %d util %.6f\n",
			r.Profile, r.FreezeRatio, r.FIRCount, r.MeanUtilization)
		for _, s := range []stats.Series{r.Up, r.Down} {
			for i, t := range s.Times {
				fmt.Fprintf(w, "%v %.6f\n", t, s.Values[i])
			}
		}
	}
}

// TestGoldenDigests checks every cascaded-trial output against its
// pinned digest; a mismatch names the case and the digest it got.
func TestGoldenDigests(t *testing.T) {
	if testing.Short() {
		t.Skip("golden corpus replays every quick cascaded trial; skipped in -short")
	}
	got := goldenCases(t)
	for name := range goldenDigests {
		if _, ok := got[name]; !ok {
			t.Errorf("%s: pinned but no longer rendered", name)
		}
	}
	for name, h := range got {
		digest := hex.EncodeToString(h.Sum(nil))
		if want, ok := goldenDigests[name]; !ok {
			t.Errorf("%s: no pinned digest; got %s", name, digest)
		} else if digest != want {
			t.Errorf("%s: digest %s, want %s", name, digest, want)
		}
	}
}
