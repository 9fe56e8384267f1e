package sim

import "time"

// numLanes is how many delay lanes an engine holds. The packet path
// files its propagation events with a handful of distinct delays (a
// cascade uses two: the client access delay and the inter-region
// delay), so a few slots cover it; a ScheduleArg that finds every slot
// busy with another delay is filed directly, as if lanes did not exist.
const numLanes = 8

// lane is one of the engine's delay lanes: a FIFO of ScheduleArg events
// that share one delay. Only its head is filed in the heap or the timer
// wheel; the rest wait on an intrusive chain and are filed one at a time
// as their predecessor leaves the heap. Every link on the engine with the
// same delay shares the lane, so the heap holds one entry per distinct
// in-flight delay rather than one per busy link or per packet.
//
// Each event is stamped with its full key (at, schedAt, src, seq) when it
// is filed, exactly as without lanes, and keeps it while it waits. Two
// events filed on one engine with the same delay d, in filing order,
// have schedAt₁ ≤ schedAt₂ (the clock never runs backwards) and
// at = schedAt + d, so at₁ ≤ at₂; equal at means equal schedAt and the
// same src, and then seq₁ < seq₂. A lane is therefore always sorted by
// the full key, its head is its minimum, and the engine's total order,
// event count and random draws are identical to filing every event
// directly. Events with another delay go to another lane.
type lane struct {
	delay time.Duration
	// first/last chain the waiting events through event.next. The filed
	// head is not on the chain: while it sits in a wheel slot its next
	// field belongs to the wheel.
	first, last *event
	// busy reports that a head is filed; an idle lane may be claimed for
	// any delay.
	busy bool
}

// addLaned files ev, due after d >= 0, through the lane for d: behind
// the busy lane with that delay, or as the head of an idle lane, or —
// when every lane is busy with another delay — directly.
//
//vca:hotpath lane lookup and append, once per ScheduleArg
func (e *Engine) addLaned(d time.Duration, ev *event) Timer {
	at := e.now + d
	if at < e.now { // overflow: add clamps it to now, out of lane order
		return e.add(at, ev)
	}
	idle := -1
	for i := range e.lanes {
		l := &e.lanes[i]
		switch {
		case !l.busy:
			if idle < 0 {
				idle = i
			}
		case l.delay == d:
			// Its key orders after every event already in the lane,
			// so it waits its turn on the chain.
			e.stamp(at, ev)
			ev.lane = uint8(i + 1)
			if l.last == nil {
				l.first = ev
			} else {
				l.last.next = ev
			}
			l.last = ev
			return Timer{ev: ev, gen: ev.gen}
		}
	}
	if idle >= 0 {
		l := &e.lanes[idle]
		l.busy, l.delay = true, d
		ev.lane = uint8(idle + 1)
	}
	return e.add(at, ev)
}

// popRoot removes ev, the heap's root, which is firing or being
// collected as cancelled. For a lane head it files the lane's successor
// with its original key, or marks the lane idle when none waits; a
// successor bound for the heap takes the head's place at the root, which
// saves the separate pop and push.
//
//vca:hotpath lane advance, once per event leaving the heap
func (e *Engine) popRoot(ev *event) {
	if ev.lane == 0 {
		e.heapPop()
		return
	}
	l := &e.lanes[ev.lane-1]
	succ := l.first
	if succ == nil {
		l.busy = false
		e.heapPop()
		return
	}
	l.first = succ.next
	if l.first == nil {
		l.last = nil
	}
	succ.next = nil
	if e.wheel.insert(e.now, succ) {
		e.wheelIns++
		e.heapPop()
		return
	}
	e.heapIns++
	e.heap[0] = succ
	e.siftDown(0)
}
