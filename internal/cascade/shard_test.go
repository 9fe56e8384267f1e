package cascade

import (
	"fmt"
	"strings"
	"testing"
	"time"

	"vcalab/internal/netem"
	"vcalab/internal/vca"
)

func threeRegionTopo() Topology {
	return Topology{
		Regions: []Region{
			{Name: "r0", Clients: []string{"c1", "c4", "c7"}},
			{Name: "r1", Clients: []string{"c2", "c5", "c8"}},
			{Name: "r2", Clients: []string{"c3", "c6", "c9"}},
		},
		Default: netem.LinkConfig{RateBps: 20e6, Delay: 30 * time.Millisecond},
	}
}

// cascadeFingerprint flattens every observable outcome of a finished
// trial — all link counters, server forwarding state, per-client
// getStats reports — into one comparable string.
func cascadeFingerprint(m *Mesh, call *vca.Call, now time.Duration) string {
	var b strings.Builder
	for _, l := range m.Links() {
		fmt.Fprintf(&b, "%s d=%d db=%d x=%d xb=%d qhw=%d\n",
			l.Name(), l.Delivered, l.DeliveredBytes, l.Drops, l.DroppedBytes, l.QueueHighWater())
	}
	for _, s := range call.Servers {
		fmt.Fprintf(&b, "fwd=%d legs=%v\n", s.FwdSwitches(), s.LegNames())
	}
	for _, cl := range call.Clients {
		fmt.Fprintf(&b, "%+v\n", cl.StatsReport(now))
	}
	return b.String()
}

// runCascadeTrial runs one 9-party/3-region Meet trial through Trial at
// the given shard count (1 = one engine), checks that it drained clean,
// and returns its fingerprint.
func runCascadeTrial(t *testing.T, prof *vca.Profile, shards int) string {
	t.Helper()
	const seed = 7
	const dur = 20 * time.Second
	tr := NewTrial(seed, threeRegionTopo(), shards, prof, vca.CallOptions{Seed: seed})
	defer tr.Close()
	if got := tr.Shards(); got != shards {
		t.Fatalf("trial planned %d shards, want %d", got, shards)
	}
	tr.Call.Start()
	tr.RunUntil(dur)
	tr.Call.Stop()
	tr.Drain()
	for k, e := range tr.Engines() {
		if n := e.Live(); n != 0 {
			t.Fatalf("shards=%d: engine %d leaked %d pooled events", shards, k, n)
		}
		if n := e.Pending(); n != 0 {
			t.Fatalf("shards=%d: engine %d has %d events still pending after drain", shards, k, n)
		}
	}
	for _, l := range tr.BoundaryLinks() {
		if n := l.BoundaryPoolLive(); n != 0 {
			t.Fatalf("shards=%d: boundary link %s leaked %d envelopes", shards, l.Name(), n)
		}
	}
	if shards > 1 && tr.Stats().Windows == 0 {
		t.Fatalf("shards=%d: no windows ran", shards)
	}
	for ri, hosts := range tr.Mesh.Clients {
		for _, h := range hosts {
			if n := h.PoolLive(); n != 0 {
				t.Fatalf("shards=%d: host %s leaked %d packets", shards, h.Name, n)
			}
		}
		if n := tr.Mesh.SFUs[ri].PoolLive(); n != 0 {
			t.Fatalf("shards=%d: %s leaked %d packets", shards, tr.Mesh.SFUs[ri].Name, n)
		}
	}
	return cascadeFingerprint(tr.Mesh, tr.Call, dur)
}

// TestShardedMatchesSequential is the cascade-level identity gate: the
// complete observable outcome of a 3-region call is the same whether it
// runs on one engine or split 2 or 3 ways.
func TestShardedMatchesSequential(t *testing.T) {
	for _, prof := range []*vca.Profile{vca.Meet(), vca.Zoom(), vca.Teams()} {
		base := runCascadeTrial(t, prof, 1)
		for _, shards := range []int{2, 3} {
			got := runCascadeTrial(t, prof, shards)
			if got != base {
				t.Errorf("%s: shards=%d diverges from sequential:\n%s",
					prof.Name, shards, firstDiff(base, got))
			}
		}
	}
}

// firstDiff returns the first differing line pair of two multi-line
// strings, to keep divergence reports readable.
func firstDiff(a, b string) string {
	al, bl := strings.Split(a, "\n"), strings.Split(b, "\n")
	for i := 0; i < len(al) && i < len(bl); i++ {
		if al[i] != bl[i] {
			return fmt.Sprintf("line %d:\n  seq:   %s\n  shard: %s", i+1, al[i], bl[i])
		}
	}
	return fmt.Sprintf("lengths differ: %d vs %d lines", len(al), len(bl))
}

func TestPlanShardsFallbacks(t *testing.T) {
	topo := threeRegionTopo()
	if p := PlanShards(topo, 1); p.NumShards != 1 {
		t.Errorf("shards=1 must stay sequential, got %d", p.NumShards)
	}
	if p := PlanShards(topo, 5); p.NumShards != 3 {
		t.Errorf("shards capped at regions: got %d want 3", p.NumShards)
	}
	if p := PlanShards(topo, 3); p.Lookahead != 30*time.Millisecond {
		t.Errorf("lookahead: got %v want 30ms", p.Lookahead)
	}
	single := Topology{Regions: []Region{{Name: "r0", Clients: []string{"c1", "c2"}}}}
	if p := PlanShards(single, 2); p.NumShards != 1 {
		t.Errorf("single region must fall back, got %d shards", p.NumShards)
	}
	zero := threeRegionTopo()
	zero.Default = netem.LinkConfig{RateBps: 20e6} // Delay left zero...
	zero.Inter = map[[2]int]netem.LinkConfig{
		// ...but a zero LinkConfig gets DefaultInterDelay, so force one
		// truly zero-delay directed pair via a rate-only override.
		{0, 1}: {RateBps: 20e6, QueueBytes: 1500},
	}
	if p := PlanShards(zero, 3); p.NumShards != 1 {
		t.Errorf("zero-delay boundary must fall back, got %d shards", p.NumShards)
	}
}
