package rtp

import (
	"encoding/binary"
	"reflect"
	"testing"
	"time"
)

func TestRTXBufferPutGetEvict(t *testing.T) {
	b := NewRTXBuffer(4)
	for seq := uint16(0); seq < 4; seq++ {
		if ev := b.Put(seq, int(seq), 100, int64(seq)); ev != nil {
			t.Fatalf("unexpected eviction %v at seq %d", ev, seq)
		}
	}
	if b.Len() != 4 {
		t.Fatalf("Len = %d, want 4", b.Len())
	}
	p, size, at, ok := b.Get(2)
	if !ok || p.(int) != 2 || size != 100 || at != 2 {
		t.Fatalf("Get(2) = %v,%d,%d,%v", p, size, at, ok)
	}
	// Wraparound: seq 4 lands in slot 0, evicting seq 0 — the un-NACKed
	// oldest packet must come back so the caller can release it.
	if ev := b.Put(4, 40, 100, 4); ev.(int) != 0 {
		t.Fatalf("Put(4) evicted %v, want 0", ev)
	}
	if _, _, _, ok := b.Get(0); ok {
		t.Fatal("seq 0 should be gone after wraparound eviction")
	}
	if _, _, _, ok := b.Get(4); !ok {
		t.Fatal("seq 4 should be retrievable")
	}
}

func TestRTXBufferDrain(t *testing.T) {
	b := NewRTXBuffer(8)
	for seq := uint16(10); seq < 15; seq++ {
		b.Put(seq, int(seq), 1, 0)
	}
	var freed []int
	b.Drain(func(p any) { freed = append(freed, p.(int)) })
	if len(freed) != 5 || b.Len() != 0 {
		t.Fatalf("Drain freed %v, Len %d", freed, b.Len())
	}
	if _, _, _, ok := b.Get(12); ok {
		t.Fatal("Get after Drain should miss")
	}
}

func TestNackQueueObserveGapAndRecover(t *testing.T) {
	q := NewNackQueue(3)
	q.Observe(10, 0, time.Second)
	if missing, _ := q.Observe(14, 0, time.Second); missing != 3 {
		t.Fatalf("missing = %d, want 3 (seqs 11,12,13)", missing)
	}
	if q.Len() != 3 {
		t.Fatalf("Len = %d, want 3", q.Len())
	}
	// Late arrival of a tracked seq clears the entry.
	if _, recovered := q.Observe(12, 0, time.Second); !recovered {
		t.Fatal("Observe(12) should report a recovered loss")
	}
	if q.Len() != 2 {
		t.Fatalf("Len = %d after recovery, want 2", q.Len())
	}
	// Duplicate of an already-delivered seq is not a recovery.
	if _, recovered := q.Observe(10, 0, time.Second); recovered {
		t.Fatal("duplicate of delivered seq must not count as recovered")
	}
}

func TestNackQueueObserveWraparound(t *testing.T) {
	q := NewNackQueue(3)
	q.Observe(65534, 0, time.Second)
	if missing, _ := q.Observe(2, 0, time.Second); missing != 3 {
		t.Fatalf("missing across wrap = %d, want 3 (65535, 0, 1)", missing)
	}
	var nacked []uint16
	q.Tick(0, 10*time.Millisecond, func(s uint16) { nacked = append(nacked, s) },
		func(uint16, bool) {})
	if !reflect.DeepEqual(nacked, []uint16{65535, 0, 1}) {
		t.Fatalf("nacked = %v", nacked)
	}
}

func TestNackQueueDuplicateSuppressionWithinBackoff(t *testing.T) {
	q := NewNackQueue(5)
	q.Observe(0, 0, time.Hour)
	q.Observe(2, 0, time.Hour) // seq 1 missing
	backoff := 40 * time.Millisecond
	count := func(now time.Duration) int {
		n := 0
		q.Tick(now, backoff, func(uint16) { n++ }, func(uint16, bool) {})
		return n
	}
	if n := count(0); n != 1 {
		t.Fatalf("first tick nacks = %d, want 1", n)
	}
	// Re-ticks inside the backoff window must not re-NACK.
	for _, now := range []time.Duration{10 * time.Millisecond, 39 * time.Millisecond} {
		if n := count(now); n != 0 {
			t.Fatalf("tick at %v nacks = %d, want 0 (backoff window)", now, n)
		}
	}
	if n := count(40 * time.Millisecond); n != 1 {
		t.Fatal("backoff expiry must re-NACK")
	}
}

func TestNackQueueGiveUpAfterMaxRetries(t *testing.T) {
	q := NewNackQueue(2)
	q.Observe(0, 0, time.Hour)
	q.Observe(2, 0, time.Hour) // seq 1 missing
	backoff := 10 * time.Millisecond
	var nacks int
	var gaveUp []uint16
	for i := 0; i < 6; i++ {
		q.Tick(time.Duration(i)*backoff, backoff,
			func(uint16) { nacks++ },
			func(s uint16, g bool) {
				if !g {
					t.Fatal("concede must be flagged as give-up")
				}
				gaveUp = append(gaveUp, s)
			})
	}
	if nacks != 2 {
		t.Fatalf("nacks = %d, want exactly maxRetries=2", nacks)
	}
	if !reflect.DeepEqual(gaveUp, []uint16{1}) {
		t.Fatalf("gaveUp = %v, want [1]", gaveUp)
	}
	if q.Len() != 0 {
		t.Fatalf("Len = %d after give-up, want 0", q.Len())
	}
}

func TestNackQueueDeadlineConcede(t *testing.T) {
	q := NewNackQueue(100)
	q.Observe(0, 0, 50*time.Millisecond)
	q.Observe(2, 0, 50*time.Millisecond) // seq 1 missing, concede at 50ms
	var conceded []uint16
	q.Tick(50*time.Millisecond, time.Millisecond, func(uint16) {},
		func(s uint16, g bool) {
			if g {
				t.Fatal("deadline concession must not be flagged give-up")
			}
			conceded = append(conceded, s)
		})
	if !reflect.DeepEqual(conceded, []uint16{1}) {
		t.Fatalf("conceded = %v, want [1]", conceded)
	}
}

func TestNackQueueReset(t *testing.T) {
	q := NewNackQueue(3)
	q.Observe(0, 0, time.Second)
	q.Observe(10, 0, time.Second)
	if n := q.Reset(500); n != 9 {
		t.Fatalf("Reset dropped %d, want 9", n)
	}
	if q.Len() != 0 {
		t.Fatal("Len after Reset must be 0")
	}
	if missing, _ := q.Observe(502, 0, time.Second); missing != 1 {
		t.Fatalf("missing after Reset = %d, want 1 (seq 501)", missing)
	}
}

func TestTransportCCRoundTrip(t *testing.T) {
	in := &TransportCC{
		SenderSSRC: 0x1111, MediaSSRC: 0x2222,
		BaseSeq: 65530, RefTimeUs: 123456789,
		DeltaUs: []int32{0, DeltaLost, 250, 1200, DeltaLost, 2400},
	}
	buf, err := in.MarshalRTCP()
	if err != nil {
		t.Fatal(err)
	}
	if buf[0] != Version<<6|FMTTWCC || buf[1] != TypeRTPFB ||
		(int(binary.BigEndian.Uint16(buf[2:]))+1)*4 != len(buf) {
		t.Fatalf("RTCP header % x for a %d-byte report", buf[:4], len(buf))
	}
	got := &TransportCC{}
	if err := got.unmarshalBody(buf[4:]); err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(got, in) {
		t.Fatalf("round trip:\n got %+v\nwant %+v", got, in)
	}
}

func TestTWCCRecorderReport(t *testing.T) {
	r := NewTWCCRecorder(64)
	r.Record(100, 1000)
	r.Record(101, 1500)
	// 102 lost.
	r.Record(103, 2500)
	rep, ok := r.BuildReport()
	if !ok {
		t.Fatal("BuildReport should produce a report")
	}
	if rep.BaseSeq != 100 || rep.RefTimeUs != 1000 {
		t.Fatalf("base/ref = %d/%d", rep.BaseSeq, rep.RefTimeUs)
	}
	want := []int32{0, 500, DeltaLost, 1500}
	if !reflect.DeepEqual(rep.DeltaUs, want) {
		t.Fatalf("deltas = %v, want %v", rep.DeltaUs, want)
	}
	// Nothing new: no report.
	if _, ok := r.BuildReport(); ok {
		t.Fatal("empty window must not report")
	}
	// Next window starts after the previous one.
	r.Record(104, 3000)
	rep, ok = r.BuildReport()
	if !ok || rep.BaseSeq != 104 || len(rep.DeltaUs) != 1 {
		t.Fatalf("second report = %+v, ok=%v", rep, ok)
	}
}

func TestTWCCRecorderRebaseOnHugeGap(t *testing.T) {
	r := NewTWCCRecorder(16)
	r.Record(0, 100)
	r.Record(1000, 200) // gap wider than the ring: re-base
	rep, ok := r.BuildReport()
	if !ok || rep.BaseSeq != 1000 || len(rep.DeltaUs) != 1 {
		t.Fatalf("report after rebase = %+v, ok=%v", rep, ok)
	}
}

func TestSentHistory(t *testing.T) {
	h := NewSentHistory(8)
	h.Record(5, 1000, 1200)
	at, size, ok := h.Lookup(5)
	if !ok || at != 1000 || size != 1200 {
		t.Fatalf("Lookup(5) = %d,%d,%v", at, size, ok)
	}
	h.Record(13, 2000, 300) // same slot (13%8 == 5): overwrites
	if _, _, ok := h.Lookup(5); ok {
		t.Fatal("seq 5 should be evicted by seq 13")
	}
	if at, size, ok := h.Lookup(13); !ok || at != 2000 || size != 300 {
		t.Fatal("seq 13 should be present")
	}
}

func TestBuildNackPairs(t *testing.T) {
	cases := []struct {
		name  string
		seqs  []uint16
		pairs int
	}{
		{"single", []uint16{7}, 1},
		{"gap of 16 fits the bitmask", []uint16{100, 116}, 1},
		{"gap of 17 starts a new pair", []uint16{100, 117}, 2},
		{"run of 17", []uint16{0, 1, 2, 3, 4, 5, 6, 7, 8, 9, 10, 11, 12, 13, 14, 15, 16}, 1},
		{"run of 18", []uint16{0, 1, 2, 3, 4, 5, 6, 7, 8, 9, 10, 11, 12, 13, 14, 15, 16, 17}, 2},
		{"wraps 65535 to 0", []uint16{65533, 65535, 0, 2}, 1},
		{"pair starts at 65535", []uint16{65535, 15, 16}, 2},
	}
	for _, tc := range cases {
		pairs := BuildNackPairs(tc.seqs)
		if len(pairs) != tc.pairs {
			t.Errorf("%s: %d pairs %v, want %d", tc.name, len(pairs), pairs, tc.pairs)
		}
		var got []uint16
		for _, p := range pairs {
			got = append(got, p.PacketID)
			for i := 0; i < 16; i++ {
				if p.Bitmask&(1<<i) != 0 {
					got = append(got, p.PacketID+uint16(i)+1)
				}
			}
		}
		if !reflect.DeepEqual(got, tc.seqs) {
			t.Errorf("%s: pairs %v expand to %v, want %v", tc.name, pairs, got, tc.seqs)
		}
	}
}
