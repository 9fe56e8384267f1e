package sim

import (
	"fmt"
	"math/rand"
	"reflect"
	"testing"
	"time"
)

// laneFiring is one entry in a lane script's log: when it happened and
// which delivery (positive id), plain event (negative id) or ticker tick
// (id 0) fired. A Timer.Stop the script made is logged with stop set to
// 1 when it cancelled the event and 2 when it found it already gone.
type laneFiring struct {
	now  time.Duration
	id   int
	stop uint8
}

// laneDelays are the fixed delays a script draws from. Zero gives
// same-instant ties and 40 ms lands lane heads in the timer wheel.
var laneDelays = []time.Duration{0, time.Millisecond, 2 * time.Millisecond, 5 * time.Millisecond, 40 * time.Millisecond}

// laneCross is the cross-node delay of the two-node scripts and the shard
// group's lookahead. Unlike every other delay a script files, it is not a
// whole number of microseconds, so a cross-shard arrival never ties a
// local delivery on (at, schedAt) — the one case where a sharded run may
// legitimately order differently from a single engine (see shard.go).
const laneCross = 10*time.Millisecond + 500*time.Microsecond + 7*time.Nanosecond

// laneNode runs a seeded script of deliveries, cancellations, plain
// events and cross-node sends, choosing each next action from its own
// random source when an event fires. The same script runs either through
// ScheduleArg, which files through the engine's delay lanes, or through
// At(now+d, closure), which stamps the same key but is never laned (the
// reference). Correct lanes fire everything in the same order, so both
// runs draw the same actions.
type laneNode struct {
	eng    *Engine
	rng    *rand.Rand
	direct bool
	budget int
	idBase int
	nextID int
	log    []laneFiring
	timers []Timer
	// cross sends delivery id to the peer node; nil for a lone node.
	cross func(id int)
	// fallbacks counts fan-outs that found every lane slot busy, and
	// chained counts sends that waited behind a lane head (laned runs
	// only): the script must exercise both.
	fallbacks, chained int
}

func newLaneNode(eng *Engine, seed int64, idBase, budget int, direct bool) *laneNode {
	return &laneNode{eng: eng, rng: rand.New(rand.NewSource(seed)), direct: direct, budget: budget, idBase: idBase}
}

func (n *laneNode) OnArgEvent(now time.Duration, arg any) {
	n.log = append(n.log, laneFiring{now: now, id: arg.(int)})
	n.act()
}

func (n *laneNode) id() int {
	n.nextID++
	return n.idBase + n.nextID
}

// send files one delivery after d.
func (n *laneNode) send(d time.Duration) {
	id := n.id()
	var t Timer
	if n.direct {
		t = n.eng.At(n.eng.Now()+d, func() { n.OnArgEvent(n.eng.Now(), id) })
	} else {
		t = n.eng.ScheduleArg(d, n, id)
		if t.ev.lane != 0 && n.eng.lanes[t.ev.lane-1].last == t.ev {
			n.chained++
		}
	}
	n.timers = append(n.timers, t)
}

// act spends one unit of budget on a random action.
func (n *laneNode) act() {
	if n.budget <= 0 {
		return
	}
	n.budget--
	switch r := n.rng.Intn(20); {
	case r < 8:
		// A burst on one fixed delay.
		d := laneDelays[n.rng.Intn(len(laneDelays))]
		for k := 1 + n.rng.Intn(3); k > 0; k-- {
			n.send(d)
		}
	case r < 11:
		// A random per-send delay, sometimes negative (clamped to 0).
		n.send(time.Duration(n.rng.Intn(50_000)-2_000) * time.Microsecond)
	case r < 12:
		// More concurrent distinct delays than the engine has lane
		// slots: the overflow is filed directly.
		base := time.Duration(n.rng.Intn(1000)) * time.Microsecond
		for k := 0; k < 3*numLanes/2; k++ {
			n.send(base + time.Duration(k)*300*time.Microsecond)
		}
		if !n.direct && lanesFull(n.eng) {
			n.fallbacks++
		}
	case r < 14:
		// Cancel one of the recent deliveries, which may be a lane head
		// in the heap or the wheel, a chained entry, the tail, or gone.
		if len(n.timers) > 0 {
			i := len(n.timers) - 1 - n.rng.Intn(min(len(n.timers), 16))
			st := uint8(2)
			if n.timers[i].Stop() {
				st = 1
			}
			n.log = append(n.log, laneFiring{now: n.eng.Now(), id: i, stop: st})
		}
	case r < 18:
		id := -n.id()
		n.eng.Schedule(laneDelays[n.rng.Intn(len(laneDelays))], func() {
			n.log = append(n.log, laneFiring{now: n.eng.Now(), id: id})
			n.act()
		})
	default:
		if n.cross != nil {
			n.cross(n.id())
		} else {
			n.act()
		}
	}
}

// lanesFull reports whether every lane slot of e is busy.
func lanesFull(e *Engine) bool {
	for i := range e.lanes {
		if !e.lanes[i].busy {
			return false
		}
	}
	return true
}

// kick starts the script: a same-instant burst on every fixed delay at
// time 0.
func (n *laneNode) kick() {
	for _, d := range laneDelays {
		n.send(0)
		n.send(d)
	}
	n.act()
}

// runLaneScript runs a lone node's script, with a ticker that also acts,
// on one engine and returns the node and the events processed.
func runLaneScript(t *testing.T, seed int64, direct bool) (*laneNode, uint64) {
	t.Helper()
	e := New(seed)
	n := newLaneNode(e, seed, 0, 3000, direct)
	var tk *Ticker
	tk = e.Every(3*time.Millisecond, func() {
		n.log = append(n.log, laneFiring{now: e.Now()})
		if n.budget <= 0 {
			tk.Stop()
			return
		}
		n.act()
	})
	n.kick()
	e.RunUntil(50 * time.Millisecond)
	e.Run()
	if e.Pending() != 0 || e.Live() != 0 {
		t.Fatalf("seed %d direct=%v: Pending()=%d Live()=%d after Run, want 0", seed, direct, e.Pending(), e.Live())
	}
	return n, e.Processed()
}

// TestDelayLanesMatchUnlanedOrder is the delay-lane equivalence
// property: a seeded script of deliveries (zero delays, same-instant
// ties, random per-send delays, fan-outs over more distinct delays than
// there are lane slots, 40 ms heads in the wheel, cancellations), plain
// Schedule events and a ticker fires in exactly the order the same
// script produces through unlaned At events with the same keys.
func TestDelayLanesMatchUnlanedOrder(t *testing.T) {
	var fallbacks, chained int
	for seed := int64(1); seed <= 30; seed++ {
		want, wantN := runLaneScript(t, seed, true)
		got, gotN := runLaneScript(t, seed, false)
		fallbacks += got.fallbacks
		chained += got.chained
		if gotN != wantN {
			t.Fatalf("seed %d: %d events through lanes, %d unlaned", seed, gotN, wantN)
		}
		if !reflect.DeepEqual(got.log, want.log) {
			for i := range want.log {
				if i >= len(got.log) || got.log[i] != want.log[i] {
					t.Fatalf("seed %d: entry %d differs: lanes %+v, unlaned %+v", seed, i, got.log[i:min(i+3, len(got.log))], want.log[i:min(i+3, len(want.log))])
				}
			}
			t.Fatalf("seed %d: laned run logged %d entries past the unlaned run's %d", seed, len(got.log), len(want.log))
		}
	}
	if fallbacks == 0 || chained == 0 {
		t.Fatalf("script never exercised the lanes: %d full-lane fallbacks, %d chained sends", fallbacks, chained)
	}
}

// runLanePair runs two nodes that send to each other with laneCross
// delay, plus a control ticker that files a 2 ms delivery on each node
// (timed so it never ties a node event's key). With sharded set, the
// nodes run on two shards of a Group, crossing through mailboxes;
// otherwise both share one engine.
func runLanePair(t *testing.T, seed int64, sharded, direct bool) (a, b, ticks []laneFiring, processed uint64) {
	t.Helper()
	ctrl := New(seed)
	ea, eb := ctrl, ctrl
	var g *Group
	if sharded {
		ea, eb = New(seed+1), New(seed+2)
		g = NewGroup(ctrl, []*Engine{ea, eb}, func() time.Duration { return laneCross })
		defer g.Close()
	}
	na := newLaneNode(ea, seed*10+1, 1_000_000, 1500, direct)
	nb := newLaneNode(eb, seed*10+2, 2_000_000, 1500, direct)
	if sharded {
		mab := NewMailbox("a->b", ea, eb, nb, nil)
		mba := NewMailbox("b->a", eb, ea, na, nil)
		g.Register(mab)
		g.Register(mba)
		na.cross = func(id int) { mab.Post(ea.Now()+laneCross, ea.Now(), ea.TakeSeq(), id) }
		nb.cross = func(id int) { mba.Post(eb.Now()+laneCross, eb.Now(), eb.TakeSeq(), id) }
	} else {
		na.cross = func(id int) { ctrl.At(ctrl.Now()+laneCross, func() { nb.OnArgEvent(ctrl.Now(), id) }) }
		nb.cross = func(id int) { ctrl.At(ctrl.Now()+laneCross, func() { na.OnArgEvent(ctrl.Now(), id) }) }
	}
	var tk *Ticker
	tk = ctrl.Every(7*time.Millisecond+250*time.Microsecond, func() {
		ticks = append(ticks, laneFiring{now: ctrl.Now(), id: len(ticks)})
		if len(ticks) == 200 {
			tk.Stop()
		}
		na.send(2 * time.Millisecond)
		nb.send(2 * time.Millisecond)
	})
	na.kick()
	nb.kick()
	if sharded {
		g.RunUntil(100 * time.Millisecond)
		g.Run()
		if g.Pending() != 0 || g.Live() != 0 {
			t.Fatalf("seed %d: group Pending()=%d Live()=%d after Run, want 0", seed, g.Pending(), g.Live())
		}
		processed = ctrl.Processed() + ea.Processed() + eb.Processed()
	} else {
		ctrl.RunUntil(100 * time.Millisecond)
		ctrl.Run()
		if ctrl.Pending() != 0 || ctrl.Live() != 0 {
			t.Fatalf("seed %d: Pending()=%d Live()=%d after Run, want 0", seed, ctrl.Pending(), ctrl.Live())
		}
		processed = ctrl.Processed()
	}
	return na.log, nb.log, ticks, processed
}

// TestDelayLanesMatchUnlanedOrderSharded runs the two-node script
// through a 2-shard Group with lanes, whose windows and control-event
// barriers park shards mid-instant through RunBefore and NextKey, and
// checks every node's log against one engine running it unlaned.
func TestDelayLanesMatchUnlanedOrderSharded(t *testing.T) {
	for seed := int64(1); seed <= 10; seed++ {
		wa, wb, wt, wn := runLanePair(t, seed, false, true)
		ga, gb, gt, gn := runLanePair(t, seed, true, false)
		if gn != wn {
			t.Fatalf("seed %d: sharded lanes ran %d events, single unlaned engine %d", seed, gn, wn)
		}
		for _, c := range []struct {
			name      string
			got, want []laneFiring
		}{{"a", ga, wa}, {"b", gb, wb}, {"ticks", gt, wt}} {
			if !reflect.DeepEqual(c.got, c.want) {
				t.Fatalf("seed %d: %s log diverges (%d vs %d entries)", seed, c.name, len(c.got), len(c.want))
			}
		}
	}
}

// TestDelayLaneStop cancels one laned event in each position a lane can
// hold it — the head in the heap, the head in the wheel, a chained
// entry, the tail — and checks that the others fire in order at their
// due times and nothing is left live or pending.
func TestDelayLaneStop(t *testing.T) {
	for _, c := range []struct {
		name  string
		delay time.Duration
		stop  int
	}{
		{"head in heap", 2 * time.Millisecond, 0},
		{"head in wheel", 40 * time.Millisecond, 0},
		{"chained", 2 * time.Millisecond, 1},
		{"chained behind wheel head", 40 * time.Millisecond, 2},
		{"tail", 2 * time.Millisecond, 3},
	} {
		t.Run(c.name, func(t *testing.T) {
			e := New(1)
			h := &logArg{log: new([]string)}
			// An earlier heap event keeps peek from flushing the wheel,
			// so a 40 ms head is still there when it is stopped.
			e.ScheduleArg(time.Millisecond, h, "anchor")
			var timers []Timer
			for i := 0; i < 4; i++ {
				timers = append(timers, e.ScheduleArg(c.delay, h, i))
				e.RunUntil(e.Now() + 100*time.Microsecond)
			}
			if inWheel := e.wheel.count == 1; inWheel != (c.delay > wheelMinDelay) {
				t.Fatalf("head in wheel = %v, want %v", inWheel, c.delay > wheelMinDelay)
			}
			if !timers[c.stop].Stop() {
				t.Fatal("Stop() = false on a pending laned event")
			}
			if timers[c.stop].Stop() {
				t.Fatal("second Stop() = true")
			}
			if got := e.Pending(); got != 4 {
				t.Fatalf("Pending() = %d after one Stop, want 4", got)
			}
			e.Run()
			want := []string{"1ms/anchor"}
			for i := 0; i < 4; i++ {
				if i != c.stop {
					want = append(want, fmt.Sprintf("%v/%v", c.delay+time.Duration(i)*100*time.Microsecond, i))
				}
			}
			if !reflect.DeepEqual(*h.log, want) {
				t.Fatalf("fired %v, want %v", *h.log, want)
			}
			if e.Live() != 0 || e.Pending() != 0 {
				t.Fatalf("Live()=%d Pending()=%d after Run, want 0, 0", e.Live(), e.Pending())
			}
			if lanesBusy(e) != 0 {
				t.Fatalf("%d lanes still busy after Run", lanesBusy(e))
			}
		})
	}
}

// TestDelayLaneOverflow checks that a delay whose due time overflows is
// clamped to now, as Schedule clamps it, rather than queued in a lane
// behind an earlier event with the same delay.
func TestDelayLaneOverflow(t *testing.T) {
	const far = time.Duration(1<<63 - 1)
	e := New(1)
	h := &logArg{log: new([]string)}
	e.ScheduleArg(far, h, "far")
	e.RunUntil(time.Millisecond)
	e.ScheduleArg(far, h, "overflow")
	e.Schedule(far, func() { *h.log = append(*h.log, "schedule") })
	e.RunUntil(2 * time.Millisecond)
	if want := []string{"1ms/overflow", "schedule"}; !reflect.DeepEqual(*h.log, want) {
		t.Fatalf("fired %v, want %v", *h.log, want)
	}
}

// lanesBusy counts e's busy lane slots.
func lanesBusy(e *Engine) int {
	n := 0
	for i := range e.lanes {
		if e.lanes[i].busy {
			n++
		}
	}
	return n
}

// TestHeapHighWater checks the ready-heap gauge: it counts heap entries
// only, so events waiting behind a delay lane's head (and events parked
// in the wheel) raise LiveHighWater but not HeapHighWater. Handlers
// sharing a delay share its lane.
func TestHeapHighWater(t *testing.T) {
	e := New(1)
	for i := 0; i < 10; i++ {
		e.Schedule(time.Duration(i%4)*time.Millisecond, func() {})
	}
	e.Schedule(time.Second, func() {}) // wheel, not heap
	if got := e.HeapHighWater(); got != 10 {
		t.Fatalf("HeapHighWater() = %d after 10 near-term schedules, want 10", got)
	}
	e.Run()

	e = New(1)
	var hs [10]logArg
	for i := range hs {
		hs[i].log = new([]string)
	}
	for i := 0; i < 50; i++ {
		e.ScheduleArg(2*time.Millisecond, &hs[i%len(hs)], i)
		e.ScheduleArg(3*time.Millisecond, &hs[i%len(hs)], i)
	}
	if e.Pending() != 100 {
		t.Fatalf("Pending() = %d with 100 laned events queued, want 100", e.Pending())
	}
	e.Run()
	if got := e.HeapHighWater(); got != 2 {
		t.Fatalf("HeapHighWater() = %d for two delays over ten handlers, want 2", got)
	}
	if got := e.LiveHighWater(); got != 100 {
		t.Fatalf("LiveHighWater() = %d, want 100 (laned events are live)", got)
	}
	for i := range hs {
		if len(*hs[i].log) != 10 {
			t.Fatalf("handler %d got %d deliveries, want 10", i, len(*hs[i].log))
		}
	}
	if e.Live() != 0 || e.Pending() != 0 {
		t.Fatalf("Live()=%d Pending()=%d after Run; want 0, 0", e.Live(), e.Pending())
	}
}
