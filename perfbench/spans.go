package main

import (
	"bufio"
	"encoding/json"
	"fmt"
	"os"
	"sort"
	"time"
)

// span is one timed phase of the benchmark, recorded from the
// benchmark's own code around its calls into the simulator's layers.
// Times are seconds since the run began. Spans of one iteration share its
// trial id; a sweep's trial spans carry the sweep label and the trial's
// completion index.
type span struct {
	ID     int     `json:"id"`
	Parent int     `json:"parent"` // 0: the root
	Name   string  `json:"name"`
	Trial  string  `json:"trial,omitempty"`
	Start  float64 `json:"start_s"`
	End    float64 `json:"end_s"`
	Self   float64 `json:"self_s"` // duration minus the part its children cover
}

// spanLog keeps spans in memory until the run ends. It is used from one
// goroutine at a time: the runner's progress hook, which adds sweep
// trial spans, is serialized and runs while the main goroutine waits.
type spanLog struct {
	t0    time.Time
	spans []span
}

func newSpanLog() *spanLog { return &spanLog{t0: time.Now()} }

// begin opens a span and returns its id.
func (l *spanLog) begin(name string, parent int, trial string) int {
	return l.add(name, parent, trial, time.Now(), time.Time{})
}

// end closes span id and returns its duration.
func (l *spanLog) end(id int) time.Duration {
	now := time.Now()
	s := &l.spans[id-1]
	s.End = now.Sub(l.t0).Seconds()
	return time.Duration((s.End - s.Start) * float64(time.Second))
}

// add records a span with known bounds (end may be zero for an open span)
// and returns its id.
func (l *spanLog) add(name string, parent int, trial string, start, end time.Time) int {
	s := span{ID: len(l.spans) + 1, Parent: parent, Name: name, Trial: trial,
		Start: start.Sub(l.t0).Seconds()}
	if !end.IsZero() {
		s.End = end.Sub(l.t0).Seconds()
	}
	l.spans = append(l.spans, s)
	return s.ID
}

// selfTimes fills each span's self time: its duration minus the union of
// its children's intervals, clipped to the span.
func (l *spanLog) selfTimes() {
	kids := map[int][][2]float64{}
	for _, s := range l.spans {
		if s.Parent > 0 {
			kids[s.Parent] = append(kids[s.Parent], [2]float64{s.Start, s.End})
		}
	}
	for i := range l.spans {
		s := &l.spans[i]
		iv := kids[s.ID]
		sort.Slice(iv, func(a, b int) bool { return iv[a][0] < iv[b][0] })
		covered, reach := 0.0, s.Start
		for _, c := range iv {
			lo, hi := max(c[0], reach), min(c[1], s.End)
			if hi > lo {
				covered += hi - lo
				reach = hi
			}
		}
		s.Self = s.End - s.Start - covered
	}
}

// write stores the spans as JSON lines.
func (l *spanLog) write(path string) error {
	l.selfTimes()
	f, err := os.Create(path)
	if err != nil {
		return err
	}
	w := bufio.NewWriter(f)
	enc := json.NewEncoder(w)
	for _, s := range l.spans {
		if err := enc.Encode(s); err != nil {
			f.Close()
			return fmt.Errorf("write spans: %w", err)
		}
	}
	if err := w.Flush(); err != nil {
		f.Close()
		return fmt.Errorf("write spans: %w", err)
	}
	return f.Close()
}
