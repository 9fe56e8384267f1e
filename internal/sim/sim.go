// Package sim provides a deterministic discrete-event simulation engine.
//
// All of vcalab runs on virtual time: a five-minute video call completes in
// milliseconds of wall-clock time and, given the same seed, produces exactly
// the same packet trace on every run. The engine is a priority queue of
// timestamped callbacks plus a seeded random source; nothing in the library
// reads the wall clock.
//
// # Architecture
//
// The scheduler is built for the packet-path hot loop (see DESIGN.md §7):
//
//   - Events are pooled. Every event struct comes from a per-engine free
//     list (allocated in blocks) and returns to it when it fires or its
//     cancellation is collected, so steady-state scheduling allocates
//     nothing. The engine is single-threaded, so the free list needs no
//     locking.
//   - Every event carries the ordering key (at, schedAt, src, seq): due
//     time, the clock when it was filed, the scheduling domain that filed
//     it and a per-engine sequence number (see less). Within one engine
//     this is the classic (at, seq) order; the middle fields exist for
//     sharded runs (shard.go).
//   - The ready queue is a 4-ary min-heap ordered by that key:
//     shallower than a binary heap, with all four children in one cache
//     line's worth of pointers. Lazy cancellation means events never
//     need removal by position, so no per-event index is maintained.
//   - A hierarchical timer wheel (3 levels x 256 slots, 1 ms granularity)
//     front-ends the heap for far-out events — periodic tickers, RTO and
//     keyframe timers. Insertion is O(1); a slot is flushed into the heap
//     when virtual time reaches its start, which preserves the exact
//     total order because flushing can only happen at or before an
//     event's due time.
//   - Delay lanes (lane.go) keep in-flight ScheduleArg events — the
//     packet path's propagation deliveries — out of the heap. Events
//     filed on one engine with the same delay come due in filing order,
//     already sorted by their full key, so the engine keeps one FIFO per
//     distinct delay, shared by every link with that delay: only its
//     head is filed, and the successor is filed when the head leaves the
//     heap. The heap then holds one entry per in-flight delay rather
//     than one per busy link or per packet, and the total order is
//     unchanged.
//   - Hot callers schedule closure-free events against the Handler and
//     ArgHandler interfaces instead of func() closures; the packet path
//     (internal/netem) carries its *Packet through the event's arg slot.
//   - Timer.Stop is a lazy cancellation: the event is marked dead and its
//     struct is recycled when the heap or wheel next encounters it. Timer
//     handles carry a generation counter so a stale handle can never
//     cancel an unrelated reuse of the same pooled struct.
//
// Determinism is unchanged from the original container/heap engine: events
// scheduled for the same instant fire in scheduling order, guaranteed by
// the monotonically increasing sequence number assigned at schedule time.
package sim

import (
	"fmt"
	"math"
	"math/bits"
	"math/rand"
	"time"
)

// Handler is implemented by hot-path callers that want to receive events
// without allocating a closure per schedule.
type Handler interface {
	OnEvent(now time.Duration)
}

// HandlerFunc adapts a function to the Handler interface.
type HandlerFunc func(now time.Duration)

// OnEvent calls f(now).
func (f HandlerFunc) OnEvent(now time.Duration) { f(now) }

// ArgHandler receives events that carry a payload pointer: one handler
// instance (a link, a flow) serves many in-flight events, each carrying
// its own argument (a packet) through the pooled event's arg slot.
type ArgHandler interface {
	OnArgEvent(now time.Duration, arg any)
}

// event is a pooled scheduler entry. Exactly one of fn, h or ah is set.
type event struct {
	at time.Duration
	// schedAt is the engine clock at the moment the event was filed. In a
	// single-engine run it refines nothing (see less); in a sharded run it
	// is the cross-shard half of the ordering key.
	schedAt time.Duration
	seq     uint64
	// src is the scheduling domain the event was filed from: 0 for the
	// control engine (and every standalone engine), 1..N for shard
	// engines. Constant within one engine; it only separates events after
	// a cross-shard injection.
	src uint32
	// gen guards Timer handles across pooling: it increments every time
	// the struct is recycled, so a stale Timer cannot cancel an
	// unrelated reuse.
	gen       uint32
	cancelled bool
	// lane is 1 + the index of the engine delay lane the event was filed
	// through, or 0: when a lane head leaves the heap, its lane's next
	// event is filed.
	lane uint8

	fn  func()
	h   Handler
	ah  ArgHandler
	arg any

	// next links free-list entries, wheel-slot chains and lane chains.
	next *event
}

// less is the engine's total order: (at, schedAt, src, seq).
//
// Within a single engine this is exactly the classic (at, seq) order: the
// clock is monotone across schedule calls, so seq is monotone in schedAt
// and comparing schedAt first can never disagree with comparing seq; src
// is constant. The extra fields exist for sharded runs, where events
// injected from another shard carry that shard's (schedAt, src, seq) and
// must interleave with local events exactly where a single sequential
// engine would have placed them (see shard.go).
func less(a, b *event) bool {
	if a.at != b.at {
		return a.at < b.at
	}
	if a.schedAt != b.schedAt {
		return a.schedAt < b.schedAt
	}
	if a.src != b.src {
		return a.src < b.src
	}
	return a.seq < b.seq
}

// Timer wheel geometry. Level 0 covers 256 ms at 1 ms granularity; each
// higher level covers 256x more. Events beyond the horizon, or due sooner
// than wheelMinDelay (they would only bounce through the current slot),
// go straight to the heap.
const (
	wheelBits     = 8
	wheelSlots    = 1 << wheelBits
	wheelLevels   = 3
	wheelTick     = time.Millisecond
	wheelMinDelay = 4 * wheelTick
)

const farFuture = time.Duration(math.MaxInt64)

// wheel is the hierarchical timer wheel. Slots hold intrusive event
// chains; per-level bitmaps make the next-occupied-slot scan cheap.
// nextDue is a lower bound on the earliest slot start time — flushing a
// slot early is always safe, because the heap re-establishes the exact
// key order of whatever the wheel hands it.
type wheel struct {
	slots   [wheelLevels][wheelSlots]*event
	bitmaps [wheelLevels][wheelSlots / 64]uint64
	count   int
	nextDue time.Duration
}

// insert files ev into the wheel, or reports false if it belongs in the
// heap (too near, or beyond the horizon). now is the engine clock.
func (w *wheel) insert(now time.Duration, ev *event) bool {
	if ev.at-now < wheelMinDelay {
		return false
	}
	base := uint64(now / wheelTick)
	tick := uint64(ev.at / wheelTick)
	delta := tick - base
	var level int
	switch {
	case delta < wheelSlots:
		level = 0
	case delta < wheelSlots*wheelSlots:
		level = 1
	case delta < wheelSlots*wheelSlots*wheelSlots:
		level = 2
	default:
		return false
	}
	slot := (tick >> (wheelBits * level)) & (wheelSlots - 1)
	ev.next = w.slots[level][slot]
	w.slots[level][slot] = ev
	w.bitmaps[level][slot/64] |= 1 << (slot % 64)
	start := time.Duration((tick>>(wheelBits*level))<<(wheelBits*level)) * wheelTick
	if w.count == 0 || start < w.nextDue {
		w.nextDue = start
	}
	w.count++
	return true
}

// Engine is a discrete-event scheduler. The zero value is not usable; create
// one with New. Engine is not safe for concurrent use: the entire simulation
// runs single-threaded, which is what makes it deterministic.
type Engine struct {
	now  time.Duration
	heap []*event
	seq  uint64
	rng  *rand.Rand
	// processed counts executed events, exposed for tests and benchmarks.
	processed uint64

	// src is the engine's scheduling-domain index, stamped into every
	// event it files: 0 for a standalone or control engine, 1..N for the
	// shards of a Group.
	src uint32

	wheel wheel
	free  *event
	// live counts events handed out of the free list and not yet
	// recycled — the pooled-event leak detector used by tests.
	live int
	// liveHW is the high-water mark of live: the scheduler's peak
	// working set over the engine's lifetime.
	liveHW int
	// heapHW is the peak length of the ready heap. Unlike liveHW it
	// excludes events waiting in the wheel or in lanes.
	heapHW int
	// lanes are the delay lanes ScheduleArg files through (lane.go).
	lanes [numLanes]lane
	// wheelIns/heapIns count insertions filed through the timer wheel
	// vs pushed straight onto the heap — the wheel hit ratio is the
	// scheduler's cheapest health signal.
	wheelIns, heapIns uint64
}

// eventBlock is how many pooled events are allocated at once when the
// free list runs dry.
const eventBlock = 128

// New returns an Engine whose random source is seeded with seed.
// Two engines created with the same seed run identically.
func New(seed int64) *Engine {
	return &Engine{rng: rand.New(rand.NewSource(seed))}
}

// Now returns the current virtual time, measured from the start of the
// simulation.
func (e *Engine) Now() time.Duration { return e.now }

// Rand returns the engine's deterministic random source. All randomness in a
// simulation must come from here so runs stay reproducible.
func (e *Engine) Rand() *rand.Rand { return e.rng }

// Processed reports how many events have executed so far.
func (e *Engine) Processed() uint64 { return e.processed }

// Live reports how many pooled events are currently handed out and not yet
// recycled. After a full drain (Run returning with nothing pending) it must
// be zero; tests use it as the pooled-event leak detector.
func (e *Engine) Live() int { return e.live }

// LiveHighWater reports the peak number of pooled events concurrently
// outstanding over the engine's lifetime — the scheduler's working-set
// high-water mark.
func (e *Engine) LiveHighWater() int { return e.liveHW }

// HeapHighWater reports the peak length of the ready heap over the
// engine's lifetime. Events parked in the timer wheel or waiting behind
// a delay lane's head count toward LiveHighWater but not here, so the
// gap between the two is what the wheel and the lanes keep out of the
// heap.
func (e *Engine) HeapHighWater() int { return e.heapHW }

// SchedulerInserts reports how many event insertions went through the
// timer wheel vs straight onto the fallback heap. A low wheel share
// means events are being scheduled beyond the wheel horizon and the
// O(log n) path dominates.
func (e *Engine) SchedulerInserts() (wheel, heap uint64) {
	return e.wheelIns, e.heapIns
}

// alloc hands out a pooled event, growing the pool by a block when empty.
func (e *Engine) alloc() *event {
	if e.free == nil {
		blk := make([]event, eventBlock)
		for i := range blk {
			blk[i].next = e.free
			e.free = &blk[i]
		}
	}
	ev := e.free
	e.free = ev.next
	ev.next = nil
	e.live++
	if e.live > e.liveHW {
		e.liveHW = e.live
	}
	return ev
}

// recycle returns ev to the free list, invalidating outstanding Timer
// handles via the generation counter.
func (e *Engine) recycle(ev *event) {
	ev.gen++
	ev.fn, ev.h, ev.ah, ev.arg = nil, nil, nil, nil
	ev.lane = 0
	ev.cancelled = false
	ev.next = e.free
	e.free = ev
	e.live--
}

// add stamps and files a fresh event. Times in the past are clamped to now.
func (e *Engine) add(at time.Duration, ev *event) Timer {
	if at < e.now {
		at = e.now
	}
	e.stamp(at, ev)
	e.file(ev)
	return Timer{ev: ev, gen: ev.gen}
}

// stamp gives ev its ordering key for a schedule made now: due at at,
// consuming the engine's next sequence number.
func (e *Engine) stamp(at time.Duration, ev *event) {
	ev.at = at
	ev.schedAt = e.now
	ev.src = e.src
	ev.seq = e.seq
	e.seq++
}

// file places an already-keyed event in the timer wheel or the heap.
func (e *Engine) file(ev *event) {
	if e.wheel.insert(e.now, ev) {
		e.wheelIns++
	} else {
		e.heapIns++
		e.heapPush(ev)
	}
}

// TakeSeq consumes and returns the engine's next scheduling sequence
// number without filing an event. Cross-shard handoff (Mailbox.Post)
// burns one source-engine seq per boundary packet, so entries posted from
// the same instant keep the source's scheduling order after injection.
func (e *Engine) TakeSeq() uint64 {
	s := e.seq
	e.seq++
	return s
}

// inject files an event carrying a foreign ordering key — the mailbox
// drain path. The caller (a Group barrier) guarantees at >= e.now.
func (e *Engine) inject(at, schedAt time.Duration, src uint32, seq uint64, ah ArgHandler, arg any) {
	ev := e.alloc()
	ev.ah = ah
	ev.arg = arg
	ev.at = at
	ev.schedAt = schedAt
	ev.src = src
	ev.seq = seq
	e.file(ev)
}

// Timer is a handle to a scheduled event. Stop cancels it. The zero Timer
// is valid and inert. Timers are values: copying one copies the handle.
type Timer struct {
	ev  *event
	gen uint32
}

// Stop cancels the timer. It is safe to call on a timer that already fired
// or was already stopped; Stop reports whether the call prevented the event
// from firing. Cancellation is lazy: the pooled event is reclaimed when the
// scheduler next encounters it.
func (t *Timer) Stop() bool {
	if t.ev == nil || t.ev.gen != t.gen || t.ev.cancelled {
		return false
	}
	t.ev.cancelled = true
	return true
}

// Schedule runs fn after delay of virtual time. A negative delay is treated
// as zero. Events scheduled for the same instant run in scheduling order.
func (e *Engine) Schedule(delay time.Duration, fn func()) Timer {
	return e.At(e.now+delay, fn)
}

// At runs fn at the absolute virtual time t. Times in the past are clamped
// to now.
func (e *Engine) At(t time.Duration, fn func()) Timer {
	ev := e.alloc()
	ev.fn = fn
	return e.add(t, ev)
}

// ScheduleHandler runs h.OnEvent after delay without allocating: the event
// comes from the engine pool and carries the handler interface directly.
func (e *Engine) ScheduleHandler(delay time.Duration, h Handler) Timer {
	return e.AtHandler(e.now+delay, h)
}

// AtHandler runs h.OnEvent at the absolute virtual time t.
func (e *Engine) AtHandler(t time.Duration, h Handler) Timer {
	ev := e.alloc()
	ev.h = h
	return e.add(t, ev)
}

// ScheduleArg runs h.OnArgEvent(now, arg) after delay. This is the packet
// path's closure-free transit event: arg is typically a *netem.Packet.
// A negative delay is treated as zero. The event is filed through the
// engine's delay lane for delay (lane.go), which keeps the order it would
// have had without lanes.
func (e *Engine) ScheduleArg(delay time.Duration, h ArgHandler, arg any) Timer {
	if delay < 0 {
		delay = 0
	}
	ev := e.alloc()
	ev.ah = h
	ev.arg = arg
	return e.addLaned(delay, ev)
}

// Ticker repeatedly invokes a callback at a fixed interval until stopped.
// The ticker re-arms itself through one pooled event per fire: no per-tick
// allocation.
type Ticker struct {
	eng      *Engine
	interval time.Duration
	fn       func()
	h        Handler
	timer    Timer
	stopped  bool
	firing   bool
}

// Every runs fn every interval, first firing one interval from now.
// It panics if interval is not positive, since a zero-interval ticker would
// prevent virtual time from ever advancing.
func (e *Engine) Every(interval time.Duration, fn func()) *Ticker {
	t := &Ticker{eng: e, interval: checkInterval(interval), fn: fn}
	t.arm()
	return t
}

// EveryHandler runs h.OnEvent every interval — the closure-free form of
// Every used by the media/feedback tick loops.
func (e *Engine) EveryHandler(interval time.Duration, h Handler) *Ticker {
	t := &Ticker{eng: e, interval: checkInterval(interval), h: h}
	t.arm()
	return t
}

func checkInterval(interval time.Duration) time.Duration {
	if interval <= 0 {
		panic(fmt.Sprintf("sim: non-positive ticker interval %v", interval))
	}
	return interval
}

// OnEvent fires one tick and re-arms. It implements Handler so the ticker's
// own pooled event dispatches straight to it; do not call it directly.
func (t *Ticker) OnEvent(now time.Duration) {
	if t.stopped {
		return
	}
	t.firing = true
	if t.fn != nil {
		t.fn()
	} else {
		t.h.OnEvent(now)
	}
	t.firing = false
	if !t.stopped {
		t.arm()
	}
}

func (t *Ticker) arm() {
	t.timer = t.eng.ScheduleHandler(t.interval, t)
}

// Stop prevents any future ticks. The ticker cannot be restarted.
func (t *Ticker) Stop() {
	t.stopped = true
	t.timer.Stop()
}

// Reset changes the ticker interval; the next tick fires one new interval
// from now. Reset on a stopped ticker is a no-op. Resetting from inside
// the ticker's own callback only updates the cadence — the tick in flight
// re-arms once, at the new interval, when the callback returns.
func (t *Ticker) Reset(interval time.Duration) {
	checkInterval(interval)
	if t.stopped {
		return
	}
	t.interval = interval
	if t.firing {
		return // OnEvent's tail re-arms at the new cadence
	}
	t.timer.Stop()
	t.arm()
}

// flushWheel moves every wheel slot whose start time is at or before upTo
// into the heap, and recomputes the wheel's exact next due bound. Moving a
// slot early is always safe: the heap orders its events by their full
// key (at, schedAt, src, seq), which was fixed at schedule time, exactly
// as if they had been pushed then.
func (e *Engine) flushWheel(upTo time.Duration) {
	w := &e.wheel
	base := uint64(e.now / wheelTick)
	next := farFuture
	for l := 0; l < wheelLevels; l++ {
		shift := uint(wheelBits * l)
		baseL := base >> shift
		for wi := range w.bitmaps[l] {
			word := w.bitmaps[l][wi]
			for word != 0 {
				b := bits.TrailingZeros64(word)
				word &= word - 1
				s := uint64(wi*64 + b)
				sd := (s - baseL) & (wheelSlots - 1)
				start := time.Duration((baseL+sd)<<shift) * wheelTick
				if start > upTo {
					if start < next {
						next = start
					}
					continue
				}
				ev := w.slots[l][s]
				w.slots[l][s] = nil
				w.bitmaps[l][wi] &^= 1 << uint(b)
				for ev != nil {
					nx := ev.next
					ev.next = nil
					w.count--
					// A cancelled lane head still goes to the heap:
					// peek collects it through popRoot, which files
					// its lane's successors.
					if ev.cancelled && ev.lane == 0 {
						e.recycle(ev)
					} else {
						e.heapPush(ev)
					}
					ev = nx
				}
			}
		}
	}
	w.nextDue = next
}

// peek returns the earliest live event without executing it, collecting
// cancelled events and flushing due wheel slots along the way.
func (e *Engine) peek() *event {
	for {
		if e.wheel.count > 0 {
			ht := farFuture
			if len(e.heap) > 0 {
				ht = e.heap[0].at
			}
			if e.wheel.nextDue <= ht {
				// A wheel slot may hold an event due before the heap
				// top: flush the earliest slot and re-examine. Each
				// call either moves a slot into the heap or raises
				// nextDue, so this terminates.
				e.flushWheel(e.wheel.nextDue)
				continue
			}
		}
		if len(e.heap) == 0 {
			return nil
		}
		top := e.heap[0]
		if top.cancelled {
			e.popRoot(top)
			e.recycle(top)
			continue
		}
		return top
	}
}

// Step executes the single earliest pending event and reports whether one
// existed.
func (e *Engine) Step() bool {
	ev := e.peek()
	if ev == nil {
		return false
	}
	e.now = ev.at
	e.popRoot(ev)
	e.processed++
	fn, h, ah, arg := ev.fn, ev.h, ev.ah, ev.arg
	// Recycle before dispatch: the callback's own schedules reuse the
	// still-hot struct, and its Timer handles are already invalidated.
	e.recycle(ev)
	switch {
	case fn != nil:
		fn()
	case ah != nil:
		ah.OnArgEvent(e.now, arg)
	default:
		h.OnEvent(e.now)
	}
	return true
}

// Run executes events until none remain.
func (e *Engine) Run() {
	for e.Step() {
	}
}

// RunUntil executes events with timestamps <= t, then advances the clock to
// exactly t. Events scheduled beyond t remain pending.
func (e *Engine) RunUntil(t time.Duration) {
	for {
		ev := e.peek()
		if ev == nil || ev.at > t {
			break
		}
		e.Step()
	}
	if e.now < t {
		e.now = t
	}
}

// RunBefore executes every pending event whose ordering key strictly
// precedes (atLimit, schedLimit): at < atLimit, or at == atLimit with
// schedAt < schedLimit. It is the shard-window primitive: a Group parks a
// shard here so a control-engine event at exactly (atLimit, schedLimit)
// runs after everything that would have preceded it on a single engine.
// Pass schedLimit = math.MinInt64 for a plain exclusive-end window
// (at < atLimit only) and math.MaxInt64 to include everything at atLimit.
// The clock is left at the last executed event; it does not advance to
// atLimit.
func (e *Engine) RunBefore(atLimit, schedLimit time.Duration) {
	for {
		ev := e.peek()
		if ev == nil || ev.at > atLimit || (ev.at == atLimit && ev.schedAt >= schedLimit) {
			return
		}
		e.Step()
	}
}

// NextKey reports the ordering key of the earliest pending event, or
// ok == false when the engine is drained.
func (e *Engine) NextKey() (at, schedAt time.Duration, ok bool) {
	ev := e.peek()
	if ev == nil {
		return 0, 0, false
	}
	return ev.at, ev.schedAt, true
}

// advanceTo moves the clock forward to t without executing anything —
// the Group uses it so events a barrier-time callback schedules onto a
// parked shard are stamped from the barrier instant, exactly as a single
// engine would have stamped them.
func (e *Engine) advanceTo(t time.Duration) {
	if t > e.now {
		e.now = t
	}
}

// Pending reports the number of live (non-cancelled) events still queued,
// including events waiting in delay lanes behind their lane's head.
func (e *Engine) Pending() int {
	n := 0
	for i := range e.lanes {
		for ev := e.lanes[i].first; ev != nil; ev = ev.next {
			if !ev.cancelled {
				n++
			}
		}
	}
	for _, ev := range e.heap {
		if !ev.cancelled {
			n++
		}
	}
	for l := range e.wheel.slots {
		for s := range e.wheel.slots[l] {
			for ev := e.wheel.slots[l][s]; ev != nil; ev = ev.next {
				if !ev.cancelled {
					n++
				}
			}
		}
	}
	return n
}

// --- 4-ary heap ---

func (e *Engine) heapPush(ev *event) {
	e.heap = append(e.heap, ev)
	n := len(e.heap)
	if n > e.heapHW {
		e.heapHW = n
	}
	e.siftUp(n - 1)
}

func (e *Engine) heapPop() *event {
	h := e.heap
	top := h[0]
	n := len(h) - 1
	last := h[n]
	h[n] = nil
	e.heap = h[:n]
	if n > 0 {
		e.heap[0] = last
		e.siftDown(0)
	}
	return top
}

func (e *Engine) siftUp(i int) {
	h := e.heap
	ev := h[i]
	for i > 0 {
		p := (i - 1) >> 2
		if !less(ev, h[p]) {
			break
		}
		h[i] = h[p]
		i = p
	}
	h[i] = ev
}

func (e *Engine) siftDown(i int) {
	h := e.heap
	n := len(h)
	ev := h[i]
	for {
		c := i<<2 + 1
		if c >= n {
			break
		}
		m := c
		end := c + 4
		if end > n {
			end = n
		}
		for j := c + 1; j < end; j++ {
			if less(h[j], h[m]) {
				m = j
			}
		}
		if !less(h[m], ev) {
			break
		}
		h[i] = h[m]
		i = m
	}
	h[i] = ev
}
