package sim

import "time"

// Lane is a FIFO of ArgHandler deliveries that are usually due in the
// order they are filed — a link's propagation stage, where every packet
// leaves with the same delay. Only the lane's head is filed in the heap
// or timer wheel; later deliveries wait on an intrusive chain and are
// filed one at a time as their predecessor fires. On a link with many
// packets in flight this keeps one heap entry per link instead of one
// per packet.
//
// Every delivery is stamped with the full ordering key (at, schedAt,
// src, seq) at After time, exactly as ScheduleArg would stamp it, and it
// keeps that key while it waits. A delivery joins the chain only when it
// is due no earlier than the lane's tail, so the chain is sorted by key
// and the head is always the lane's minimum; the engine's total order,
// its event count and its random draws are therefore identical to
// scheduling every delivery with ScheduleArg. A delivery due before the
// tail (jitter, a delay cut) bypasses the lane and is filed directly.
//
// When Step pops a lane's head it files the successor, under its
// original key, before dispatching the head. A Lane is used by value
// inside its owner and set up with Init; lane deliveries cannot be
// cancelled.
type Lane struct {
	eng *Engine
	h   ArgHandler
	// first/last chain the waiting deliveries through event.next. The
	// filed head is not on the chain: while it sits in a wheel slot its
	// next field belongs to the wheel.
	first, last *event
	// tail is the due time of the lane's last delivery.
	tail time.Duration
	// active reports that a head is filed.
	active bool
}

// Init binds the lane to the engine it schedules on and the handler its
// deliveries are dispatched to. Call once, before the first After.
func (l *Lane) Init(e *Engine, h ArgHandler) {
	l.eng, l.h = e, h
}

// After delivers arg to the lane's handler after delay d of virtual time,
// in the same position of the engine's total order that
// ScheduleArg(d, h, arg) would give it. A negative delay is treated as
// zero.
//
//vca:hotpath lane append, once per packet entering a link's propagation stage
func (l *Lane) After(d time.Duration, arg any) {
	e := l.eng
	if d < 0 {
		d = 0
	}
	at := e.now + d
	ev := e.alloc()
	ev.ah = l.h
	ev.arg = arg
	switch {
	case !l.active:
		ev.lane = l
		l.active, l.tail = true, at
		e.add(at, ev)
	case at >= l.tail:
		// Due no earlier than the tail: its key orders after every
		// delivery already in the lane, so it can wait its turn.
		ev.lane = l
		e.stamp(at, ev)
		if l.last == nil {
			l.first = ev
		} else {
			l.last.next = ev
		}
		l.last = ev
		l.tail = at
		e.laned++
	default:
		// Out of order: file it directly, outside the lane.
		e.add(at, ev)
	}
}

// advance detaches and returns the successor of the lane's head, which
// is firing, or returns nil and marks the lane idle when none waits.
//
//vca:hotpath lane advance, once per in-order lane delivery
func (l *Lane) advance() *event {
	ev := l.first
	if ev == nil {
		l.active = false
		return nil
	}
	l.first = ev.next
	if l.first == nil {
		l.last = nil
	}
	ev.next = nil
	l.eng.laned--
	return ev
}
