package sim

import (
	"math/rand"
	"reflect"
	"testing"
	"time"
)

// laneFiring is one dispatch in a lane script's log: when it ran and
// which delivery (positive id) or plain event (negative id) it was.
type laneFiring struct {
	now time.Duration
	id  int
}

// laneDelays are the per-lane delays a script switches between. Zero
// gives same-instant ties, 40 ms lands heads in the timer wheel, and a
// switch to a smaller value sends later deliveries down the out-of-order
// path. All are whole milliseconds (see laneCross).
var laneDelays = []time.Duration{0, time.Millisecond, 2 * time.Millisecond, 5 * time.Millisecond, 40 * time.Millisecond}

// laneCross is the cross-node delay of the two-node scripts and the shard
// group's lookahead. It is not a whole number of milliseconds, so a
// cross-shard arrival never ties a local delivery on (at, schedAt) — the
// one case where a sharded run may legitimately order differently from a
// single engine (see shard.go).
const laneCross = 10*time.Millisecond + 500*time.Microsecond

// laneNode runs a seeded script of deliveries on its lanes, plain
// events and cross-node sends, choosing each next action from its own
// random source when an event fires. The same script runs either through
// lanes or through ScheduleArg only (direct); a correct lane fires
// everything in the same order, so both runs draw the same actions.
type laneNode struct {
	eng    *Engine
	rng    *rand.Rand
	direct bool
	lanes  []Lane
	delay  []time.Duration
	budget int
	idBase int
	nextID int
	log    []laneFiring
	// cross sends delivery id to the peer node; nil for a lone node.
	cross func(id int)
}

func newLaneNode(eng *Engine, seed int64, idBase, lanes, budget int, direct bool) *laneNode {
	n := &laneNode{
		eng: eng, rng: rand.New(rand.NewSource(seed)), direct: direct,
		lanes: make([]Lane, lanes), delay: make([]time.Duration, lanes),
		budget: budget, idBase: idBase,
	}
	for i := range n.lanes {
		n.lanes[i].Init(eng, n)
		n.delay[i] = laneDelays[i%len(laneDelays)]
	}
	return n
}

func (n *laneNode) OnArgEvent(now time.Duration, arg any) {
	n.log = append(n.log, laneFiring{now, arg.(int)})
	n.act()
}

func (n *laneNode) id() int {
	n.nextID++
	return n.idBase + n.nextID
}

// send files one delivery on lane i after d.
func (n *laneNode) send(i int, d time.Duration) {
	if n.direct {
		n.eng.ScheduleArg(d, n, n.id())
		return
	}
	n.lanes[i].After(d, n.id())
}

// act spends one unit of budget on a random action.
func (n *laneNode) act() {
	if n.budget <= 0 {
		return
	}
	n.budget--
	switch r := n.rng.Intn(10); {
	case r < 5:
		// A burst on one lane. Lane 0 is jittered, so its deliveries
		// reorder and exercise the out-of-order path.
		i := n.rng.Intn(len(n.lanes))
		for k := 1 + n.rng.Intn(3); k > 0; k-- {
			d := n.delay[i]
			if i == 0 {
				d += time.Duration(n.rng.Intn(3)) * time.Millisecond
			}
			n.send(i, d)
		}
	case r < 7:
		// Change a lane's delay; a cut sends the lane's next
		// deliveries down the out-of-order path.
		n.delay[n.rng.Intn(len(n.lanes))] = laneDelays[n.rng.Intn(len(laneDelays))]
	case r < 9:
		id := -n.id()
		n.eng.Schedule(laneDelays[n.rng.Intn(len(laneDelays))], func() {
			n.log = append(n.log, laneFiring{n.eng.Now(), id})
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

// kick starts the script: a same-instant burst on every lane at time 0.
func (n *laneNode) kick() {
	for i := range n.lanes {
		n.send(i, 0)
		n.send(i, n.delay[i])
	}
	n.act()
}

// runLaneScript runs a lone node's script, with a ticker that also acts,
// on one engine and returns its log.
func runLaneScript(t *testing.T, seed int64, direct bool) ([]laneFiring, uint64) {
	t.Helper()
	e := New(seed)
	n := newLaneNode(e, seed, 0, 4, 3000, direct)
	var tk *Ticker
	tk = e.Every(3*time.Millisecond, func() {
		n.log = append(n.log, laneFiring{e.Now(), 0})
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
	return n.log, e.Processed()
}

// TestLaneMatchesScheduleArg is the lane equivalence property: a seeded
// script of lane deliveries (zero delays, same-instant ties, jitter and
// delay cuts that take the out-of-order path), plain Schedule events and
// a ticker fires in exactly the order the same script produces through
// ScheduleArg alone.
func TestLaneMatchesScheduleArg(t *testing.T) {
	for seed := int64(1); seed <= 30; seed++ {
		want, wantN := runLaneScript(t, seed, true)
		got, gotN := runLaneScript(t, seed, false)
		if gotN != wantN {
			t.Fatalf("seed %d: %d events through lanes, %d through ScheduleArg", seed, gotN, wantN)
		}
		if !reflect.DeepEqual(got, want) {
			for i := range want {
				if i >= len(got) || got[i] != want[i] {
					t.Fatalf("seed %d: firing %d differs: lanes %+v, ScheduleArg %+v", seed, i, got[i:min(i+3, len(got))], want[i:min(i+3, len(want))])
				}
			}
			t.Fatalf("seed %d: lane run fired %d events past the ScheduleArg run's %d", seed, len(got), len(want))
		}
	}
}

// runLanePair runs two nodes that send to each other with laneCross
// delay, plus a control ticker that files a delivery on each node's
// lane 1 (timed so it never ties a node event's key). With sharded set,
// the nodes run on two shards of a Group, crossing through mailboxes;
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
	na := newLaneNode(ea, seed*10+1, 1_000_000, 3, 1500, direct)
	nb := newLaneNode(eb, seed*10+2, 2_000_000, 3, 1500, direct)
	if sharded {
		mab := NewMailbox("a->b", ea, eb, nb, nil)
		mba := NewMailbox("b->a", eb, ea, na, nil)
		g.Register(mab)
		g.Register(mba)
		na.cross = func(id int) { mab.Post(ea.Now()+laneCross, ea.Now(), ea.TakeSeq(), id) }
		nb.cross = func(id int) { mba.Post(eb.Now()+laneCross, eb.Now(), eb.TakeSeq(), id) }
	} else {
		na.cross = func(id int) { ctrl.ScheduleArg(laneCross, nb, id) }
		nb.cross = func(id int) { ctrl.ScheduleArg(laneCross, na, id) }
	}
	var tk *Ticker
	tk = ctrl.Every(7*time.Millisecond+250*time.Microsecond, func() {
		ticks = append(ticks, laneFiring{ctrl.Now(), len(ticks)})
		if len(ticks) == 200 {
			tk.Stop()
		}
		na.send(1, na.delay[1])
		nb.send(1, nb.delay[1])
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

// TestLaneMatchesScheduleArgSharded runs the two-node script through a
// 2-shard Group with lanes, whose windows and control-event barriers
// park shards mid-instant through RunBefore and NextKey, and checks
// every node's firing sequence against one engine using ScheduleArg only.
func TestLaneMatchesScheduleArgSharded(t *testing.T) {
	for seed := int64(1); seed <= 10; seed++ {
		wa, wb, wt, wn := runLanePair(t, seed, false, true)
		ga, gb, gt, gn := runLanePair(t, seed, true, false)
		if gn != wn {
			t.Fatalf("seed %d: sharded lanes ran %d events, single engine %d", seed, gn, wn)
		}
		for _, c := range []struct {
			name      string
			got, want []laneFiring
		}{{"a", ga, wa}, {"b", gb, wb}, {"ticks", gt, wt}} {
			if !reflect.DeepEqual(c.got, c.want) {
				t.Fatalf("seed %d: %s log diverges (%d vs %d firings)", seed, c.name, len(c.got), len(c.want))
			}
		}
	}
}

// TestHeapHighWater checks the ready-heap gauge: it counts heap entries
// only, so deliveries waiting behind a lane head (and events parked in
// the wheel) raise LiveHighWater but not HeapHighWater.
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
	h := &logArg{log: new([]string)}
	var l Lane
	l.Init(e, h)
	for i := 0; i < 50; i++ {
		l.After(2*time.Millisecond, i)
	}
	if e.Pending() != 50 {
		t.Fatalf("Pending() = %d with 50 lane deliveries queued, want 50", e.Pending())
	}
	e.Run()
	if got := e.HeapHighWater(); got != 1 {
		t.Fatalf("HeapHighWater() = %d for one in-order lane, want 1", got)
	}
	if got := e.LiveHighWater(); got != 50 {
		t.Fatalf("LiveHighWater() = %d, want 50 (lane entries are live)", got)
	}
	if len(*h.log) != 50 || e.Live() != 0 || e.Pending() != 0 {
		t.Fatalf("delivered %d, Live()=%d Pending()=%d; want 50, 0, 0", len(*h.log), e.Live(), e.Pending())
	}
}
