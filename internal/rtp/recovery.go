package rtp

import "time"

// This file implements the sender- and receiver-side state machines of
// packet-level loss recovery: a seq-indexed retransmission ring buffer
// (the sender keeps recent packets so it can answer NACKs) and a NACK
// queue that doubles as the receiver's loss tracker (gap detection from
// sequence numbers, bounded retries with per-seq backoff, give-up
// semantics). Both are fixed-capacity, allocation-free after
// construction, and know nothing about the simulator: callers supply
// time and payloads.

// RTXBuffer is a fixed-capacity retransmission buffer indexed by RTP
// sequence number. Put stores a payload clone under its seq and returns
// whatever older clone the slot evicts, so the caller can release it to
// its pool; Get answers a NACK if the seq is still buffered. A slot is
// reused every capacity packets, so the buffer holds the most recent
// `capacity` consecutive seqs of one stream.
type RTXBuffer struct {
	slots []rtxSlot
}

type rtxSlot struct {
	seq     uint16
	valid   bool
	payload any
	size    int
	atUs    int64
}

// NewRTXBuffer returns a buffer holding up to capacity packets.
func NewRTXBuffer(capacity int) *RTXBuffer {
	if capacity <= 0 {
		capacity = 1
	}
	return &RTXBuffer{slots: make([]rtxSlot, capacity)}
}

// Put stores payload under seq, recording its wire size and send time,
// and returns the evicted payload (nil if the slot was free). Storing
// the same seq twice evicts the older clone.
func (b *RTXBuffer) Put(seq uint16, payload any, size int, atUs int64) (evicted any) {
	s := &b.slots[int(seq)%len(b.slots)]
	if s.valid {
		evicted = s.payload
	}
	*s = rtxSlot{seq: seq, valid: true, payload: payload, size: size, atUs: atUs}
	return evicted
}

// Get returns the buffered payload for seq, if it has not been evicted.
func (b *RTXBuffer) Get(seq uint16) (payload any, size int, atUs int64, ok bool) {
	s := &b.slots[int(seq)%len(b.slots)]
	if !s.valid || s.seq != seq {
		return nil, 0, 0, false
	}
	return s.payload, s.size, s.atUs, true
}

// Len reports the number of buffered packets.
func (b *RTXBuffer) Len() int {
	n := 0
	for i := range b.slots {
		if b.slots[i].valid {
			n++
		}
	}
	return n
}

// Drain releases every buffered payload through release and empties the
// buffer. Call at teardown so pooled clones return to their pool.
func (b *RTXBuffer) Drain(release func(payload any)) {
	for i := range b.slots {
		if b.slots[i].valid {
			release(b.slots[i].payload)
			b.slots[i] = rtxSlot{}
		}
	}
}

// NackQueue is the receiver's loss tracker and retransmission-request
// scheduler for one sequence space. Observe detects gaps from arriving
// sequence numbers and enqueues the missing seqs; Tick emits NACKs for
// entries whose backoff has expired (no re-NACK before the RTT-derived
// timeout the caller passes) and concedes entries whose playout deadline
// passed or whose retries are exhausted.
type NackQueue struct {
	maxRetries int
	started    bool
	highest    uint16
	entries    []nackEntry
	scratch    []nackEntry
}

type nackEntry struct {
	seq      uint16
	retries  int
	nextAt   time.Duration // earliest next NACK
	deadline time.Duration // concede (stop waiting) at this time
}

// NewNackQueue returns a queue that gives up on a seq after maxRetries
// NACKs go unanswered.
func NewNackQueue(maxRetries int) *NackQueue {
	if maxRetries < 1 {
		maxRetries = 1
	}
	return &NackQueue{maxRetries: maxRetries}
}

// Observe feeds an arriving sequence number to the loss tracker.
// Arrivals beyond the highest seen seq enqueue every skipped seq as
// missing, each NACK-eligible immediately and conceded at deadline;
// arrivals at or below the highest seq clear a pending entry if one
// exists. It returns the number of newly missing seqs and whether this
// arrival cleared a pending entry (i.e. recovered a tracked loss).
func (q *NackQueue) Observe(seq uint16, now, deadline time.Duration) (missing int, recovered bool) {
	if !q.started {
		q.started = true
		q.highest = seq
		return 0, false
	}
	d := SeqDiff(q.highest, seq)
	if d <= 0 {
		return 0, q.Remove(seq)
	}
	for s := q.highest + 1; s != seq; s++ {
		q.entries = append(q.entries, nackEntry{seq: s, nextAt: now, deadline: deadline})
		missing++
	}
	q.highest = seq
	return missing, false
}

// Remove clears the entry for seq (the packet arrived, e.g. via RTX) and
// reports whether one was pending.
func (q *NackQueue) Remove(seq uint16) bool {
	for i := range q.entries {
		if q.entries[i].seq == seq {
			q.entries = append(q.entries[:i], q.entries[i+1:]...)
			return true
		}
	}
	return false
}

// Tick advances the retry state machine. For every pending entry, in
// insertion (ascending seq) order:
//   - past its deadline, or out of retries with its backoff expired, the
//     entry is removed and conceded via concede(seq, gaveUp);
//   - otherwise, if its backoff expired, nack(seq) fires, the retry
//     counter increments and the entry may not be re-NACKed before
//     now+backoff (duplicate suppression within the backoff window).
func (q *NackQueue) Tick(now, backoff time.Duration, nack func(seq uint16), concede func(seq uint16, gaveUp bool)) {
	if len(q.entries) == 0 {
		return
	}
	keep := q.scratch[:0]
	for _, e := range q.entries {
		switch {
		case now >= e.deadline:
			concede(e.seq, false)
			continue
		case now >= e.nextAt && e.retries >= q.maxRetries:
			concede(e.seq, true)
			continue
		case now >= e.nextAt:
			nack(e.seq)
			e.retries++
			e.nextAt = now + backoff
		}
		keep = append(keep, e)
	}
	q.scratch = q.entries[:0]
	q.entries = keep
}

// Len reports the number of pending (missing, not yet conceded) seqs.
func (q *NackQueue) Len() int { return len(q.entries) }

// Highest returns the highest sequence number observed so far.
func (q *NackQueue) Highest() (uint16, bool) { return q.highest, q.started }

// NackPair is one RFC 4585 generic-NACK entry: a lost packet (PID) and a
// bitmask (BLP) of losses among the 16 seqs that follow it.
type NackPair struct {
	PacketID uint16
	Bitmask  uint16
}

// BuildNackPairs packs an ascending seq list into RFC 4585 (PID, BLP)
// pairs: each pair names one lost packet plus a bitmask of losses in the
// following 16 seqs.
func BuildNackPairs(seqs []uint16) []NackPair {
	var pairs []NackPair
	for i := 0; i < len(seqs); {
		p := NackPair{PacketID: seqs[i]}
		j := i + 1
		for ; j < len(seqs); j++ {
			d := SeqDiff(p.PacketID, seqs[j])
			if d < 1 || d > 16 {
				break
			}
			p.Bitmask |= 1 << (d - 1)
		}
		pairs = append(pairs, p)
		i = j
	}
	return pairs
}

// Reset clears all pending entries and re-bases the tracker at seq, for
// catastrophic gaps (e.g. after a partition) where chasing every missing
// seq is pointless. It returns the number of entries dropped.
func (q *NackQueue) Reset(seq uint16) int {
	n := len(q.entries)
	q.entries = q.entries[:0]
	q.highest = seq
	q.started = true
	return n
}
