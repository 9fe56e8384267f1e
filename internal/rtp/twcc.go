package rtp

import (
	"encoding/binary"
	"fmt"
)

// Transport-wide congestion control (TWCC,
// draft-holmer-rmcat-transport-wide-cc-extensions): the sender stamps
// every outgoing packet — media, FEC, padding and retransmissions alike
// — with a transport-wide sequence number; the receiver periodically
// reports per-packet arrival times keyed by that seq; the sender joins
// arrivals against its own send-time history to recover one-way delay,
// loss and receive rate per transport. This file carries the feedback
// message plus the two ring-buffer state machines at either end. The
// wire format is a simplified fixed-width rendering of the real TWCC
// chunk encoding: a base seq, a reference time and one 32-bit arrival
// delta per packet, -1 marking a loss.

// TypeRTPFB is the RTCP transport-layer feedback packet type (RFC 4585);
// FMTTWCC is its feedback message type for transport-wide CC.
const (
	TypeRTPFB = 205
	FMTTWCC   = 15
)

// DeltaLost marks a never-received packet in TransportCC.DeltaUs.
const DeltaLost = int32(-1)

// TransportCC reports per-packet arrival times for the transport-wide
// seqs [BaseSeq, BaseSeq+len(DeltaUs)). DeltaUs[i] is the arrival time
// of BaseSeq+i in microseconds after RefTimeUs, or DeltaLost.
type TransportCC struct {
	SenderSSRC uint32
	MediaSSRC  uint32
	BaseSeq    uint16
	RefTimeUs  int64
	DeltaUs    []int32
}

// MarshalRTCP serializes the report, RTCP common header included.
func (t *TransportCC) MarshalRTCP() ([]byte, error) {
	if len(t.DeltaUs) > 0xffff {
		return nil, fmt.Errorf("rtp: %d TWCC deltas exceeds 65535", len(t.DeltaUs))
	}
	n := 24 + 4*len(t.DeltaUs)
	buf := make([]byte, n)
	buf[0] = Version<<6 | FMTTWCC
	buf[1] = TypeRTPFB
	binary.BigEndian.PutUint16(buf[2:], uint16(n/4-1))
	binary.BigEndian.PutUint32(buf[4:], t.SenderSSRC)
	binary.BigEndian.PutUint32(buf[8:], t.MediaSSRC)
	binary.BigEndian.PutUint16(buf[12:], t.BaseSeq)
	binary.BigEndian.PutUint16(buf[14:], uint16(len(t.DeltaUs)))
	binary.BigEndian.PutUint64(buf[16:], uint64(t.RefTimeUs))
	for i, d := range t.DeltaUs {
		binary.BigEndian.PutUint32(buf[24+4*i:], uint32(d))
	}
	return buf, nil
}

func (t *TransportCC) unmarshalBody(buf []byte) error {
	if len(buf) < 20 {
		return ErrShortPacket
	}
	t.SenderSSRC = binary.BigEndian.Uint32(buf[0:])
	t.MediaSSRC = binary.BigEndian.Uint32(buf[4:])
	t.BaseSeq = binary.BigEndian.Uint16(buf[8:])
	n := int(binary.BigEndian.Uint16(buf[10:]))
	t.RefTimeUs = int64(binary.BigEndian.Uint64(buf[12:]))
	if len(buf) < 20+4*n {
		return ErrShortPacket
	}
	t.DeltaUs = make([]int32, n)
	for i := range t.DeltaUs {
		t.DeltaUs[i] = int32(binary.BigEndian.Uint32(buf[20+4*i:]))
	}
	return nil
}

// TWCCRecorder is the receiver half: it records arrival times by
// transport-wide seq and periodically flushes them into TransportCC
// reports. Fixed capacity; a gap wider than the ring re-bases the
// recorder (the skipped range is reported lost).
type TWCCRecorder struct {
	started bool
	next    uint16 // first seq not yet reported
	highest uint16
	slots   []twccSlot
}

type twccSlot struct {
	seq   uint16
	valid bool
	atUs  int64
}

// NewTWCCRecorder returns a recorder buffering up to capacity arrivals
// between reports.
func NewTWCCRecorder(capacity int) *TWCCRecorder {
	if capacity <= 0 {
		capacity = 1
	}
	return &TWCCRecorder{slots: make([]twccSlot, capacity)}
}

// Record notes that seq arrived at atUs microseconds. Seqs at or before
// the last report are dropped (they were already reported lost).
func (r *TWCCRecorder) Record(seq uint16, atUs int64) {
	if !r.started {
		r.started = true
		r.next = seq
		r.highest = seq
		r.slots[int(seq)%len(r.slots)] = twccSlot{seq: seq, valid: true, atUs: atUs}
		return
	}
	if SeqDiff(r.next, seq) < 0 {
		return // before the report window: already flushed
	}
	if d := SeqDiff(r.highest, seq); d > 0 {
		if SeqDiff(r.next, seq) >= len(r.slots) {
			// Catastrophic gap: everything unreported is lost; re-base
			// so the window [next, highest] stays within capacity.
			for i := range r.slots {
				r.slots[i] = twccSlot{}
			}
			r.next = seq
		}
		r.highest = seq
	}
	r.slots[int(seq)%len(r.slots)] = twccSlot{seq: seq, valid: true, atUs: atUs}
}

// BuildReport flushes all arrivals since the previous report into a
// TransportCC covering [next, highest]. It returns false when nothing
// new arrived. The report's RefTimeUs is the earliest arrival included.
func (r *TWCCRecorder) BuildReport() (TransportCC, bool) {
	if !r.started {
		return TransportCC{}, false
	}
	span := SeqDiff(r.next, r.highest) + 1
	if span <= 0 {
		return TransportCC{}, false
	}
	ref := int64(-1)
	for i := 0; i < span; i++ {
		seq := r.next + uint16(i)
		s := &r.slots[int(seq)%len(r.slots)]
		if s.valid && s.seq == seq && (ref < 0 || s.atUs < ref) {
			ref = s.atUs
		}
	}
	if ref < 0 {
		return TransportCC{}, false // window is all losses; wait for an arrival
	}
	rep := TransportCC{BaseSeq: r.next, RefTimeUs: ref, DeltaUs: make([]int32, span)}
	for i := 0; i < span; i++ {
		seq := r.next + uint16(i)
		s := &r.slots[int(seq)%len(r.slots)]
		if s.valid && s.seq == seq {
			rep.DeltaUs[i] = int32(s.atUs - ref)
			*s = twccSlot{}
		} else {
			rep.DeltaUs[i] = DeltaLost
		}
	}
	r.next = r.highest + 1
	return rep, true
}

// SentHistory is the sender half: a ring of send times and wire sizes by
// transport-wide seq, joined against incoming TransportCC reports.
type SentHistory struct {
	slots []sentSlot
}

type sentSlot struct {
	seq   uint16
	valid bool
	atUs  int64
	size  int
}

// NewSentHistory returns a history holding the last capacity sends.
func NewSentHistory(capacity int) *SentHistory {
	if capacity <= 0 {
		capacity = 1
	}
	return &SentHistory{slots: make([]sentSlot, capacity)}
}

// Record notes that seq was sent at atUs with the given wire size.
func (h *SentHistory) Record(seq uint16, atUs int64, size int) {
	h.slots[int(seq)%len(h.slots)] = sentSlot{seq: seq, valid: true, atUs: atUs, size: size}
}

// Lookup returns the send time and size for seq if still in the ring.
func (h *SentHistory) Lookup(seq uint16) (atUs int64, size int, ok bool) {
	s := &h.slots[int(seq)%len(h.slots)]
	if !s.valid || s.seq != seq {
		return 0, 0, false
	}
	return s.atUs, s.size, true
}
