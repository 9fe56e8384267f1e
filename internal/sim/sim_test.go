package sim

import (
	"testing"
	"testing/quick"
	"time"
)

func TestScheduleOrdering(t *testing.T) {
	e := New(1)
	var got []int
	e.Schedule(30*time.Millisecond, func() { got = append(got, 3) })
	e.Schedule(10*time.Millisecond, func() { got = append(got, 1) })
	e.Schedule(20*time.Millisecond, func() { got = append(got, 2) })
	e.Run()
	want := []int{1, 2, 3}
	for i := range want {
		if got[i] != want[i] {
			t.Fatalf("order = %v, want %v", got, want)
		}
	}
	if e.Now() != 30*time.Millisecond {
		t.Errorf("Now() = %v, want 30ms", e.Now())
	}
}

func TestSameInstantFIFO(t *testing.T) {
	e := New(1)
	var got []int
	for i := 0; i < 10; i++ {
		i := i
		e.Schedule(time.Second, func() { got = append(got, i) })
	}
	e.Run()
	for i := 0; i < 10; i++ {
		if got[i] != i {
			t.Fatalf("same-instant events out of FIFO order: %v", got)
		}
	}
}

func TestNegativeDelayClampedToNow(t *testing.T) {
	e := New(1)
	e.Schedule(time.Second, func() {
		e.Schedule(-time.Hour, func() {
			if e.Now() != time.Second {
				t.Errorf("negative delay fired at %v, want 1s", e.Now())
			}
		})
	})
	e.Run()
}

func TestTimerStop(t *testing.T) {
	e := New(1)
	fired := false
	tm := e.Schedule(time.Second, func() { fired = true })
	if !tm.Stop() {
		t.Fatal("Stop() = false on pending timer")
	}
	if tm.Stop() {
		t.Fatal("second Stop() = true, want false")
	}
	e.Run()
	if fired {
		t.Fatal("stopped timer fired")
	}
}

func TestTimerStopAfterFire(t *testing.T) {
	e := New(1)
	tm := e.Schedule(time.Millisecond, func() {})
	e.Run()
	if tm.Stop() {
		t.Fatal("Stop() = true after timer fired")
	}
}

func TestRunUntil(t *testing.T) {
	e := New(1)
	count := 0
	e.Every(time.Second, func() { count++ })
	e.RunUntil(5500 * time.Millisecond)
	if count != 5 {
		t.Errorf("ticks = %d, want 5", count)
	}
	if e.Now() != 5500*time.Millisecond {
		t.Errorf("Now() = %v, want 5.5s", e.Now())
	}
	// Ticker must survive RunUntil and keep going.
	e.RunUntil(10 * time.Second)
	if count != 10 {
		t.Errorf("ticks after second RunUntil = %d, want 10", count)
	}
}

func TestTickerStop(t *testing.T) {
	e := New(1)
	count := 0
	var tk *Ticker
	tk = e.Every(time.Second, func() {
		count++
		if count == 3 {
			tk.Stop()
		}
	})
	e.RunUntil(time.Minute)
	if count != 3 {
		t.Errorf("ticks = %d, want 3 (stop from within callback)", count)
	}
}

func TestTickerReset(t *testing.T) {
	e := New(1)
	var times []time.Duration
	tk := e.Every(time.Second, func() { times = append(times, e.Now()) })
	e.RunUntil(2500 * time.Millisecond) // ticks at 1s, 2s
	tk.Reset(100 * time.Millisecond)
	e.RunUntil(3 * time.Second) // ticks at 2.6, 2.7, 2.8, 2.9, 3.0
	if len(times) != 2+5 {
		t.Fatalf("got %d ticks (%v), want 7", len(times), times)
	}
	if times[2] != 2600*time.Millisecond {
		t.Errorf("first tick after Reset at %v, want 2.6s", times[2])
	}
}

func TestTickerZeroIntervalPanics(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("Every(0, ...) did not panic")
		}
	}()
	New(1).Every(0, func() {})
}

func TestDeterminism(t *testing.T) {
	run := func(seed int64) []int64 {
		e := New(seed)
		var draws []int64
		e.Every(time.Millisecond, func() {
			draws = append(draws, e.Rand().Int63n(1000))
		})
		e.RunUntil(50 * time.Millisecond)
		return draws
	}
	a, b := run(42), run(42)
	if len(a) != len(b) {
		t.Fatalf("lengths differ: %d vs %d", len(a), len(b))
	}
	for i := range a {
		if a[i] != b[i] {
			t.Fatalf("draw %d differs: %d vs %d", i, a[i], b[i])
		}
	}
	c := run(43)
	same := true
	for i := range a {
		if i < len(c) && a[i] != c[i] {
			same = false
			break
		}
	}
	if same {
		t.Error("different seeds produced identical draws")
	}
}

func TestNestedScheduling(t *testing.T) {
	e := New(1)
	depth := 0
	var recurse func()
	recurse = func() {
		depth++
		if depth < 100 {
			e.Schedule(time.Millisecond, recurse)
		}
	}
	e.Schedule(0, recurse)
	e.Run()
	if depth != 100 {
		t.Errorf("depth = %d, want 100", depth)
	}
	if e.Now() != 99*time.Millisecond {
		t.Errorf("Now() = %v, want 99ms", e.Now())
	}
}

func TestPending(t *testing.T) {
	e := New(1)
	t1 := e.Schedule(time.Second, func() {})
	e.Schedule(2*time.Second, func() {})
	if e.Pending() != 2 {
		t.Fatalf("Pending() = %d, want 2", e.Pending())
	}
	t1.Stop()
	if e.Pending() != 1 {
		t.Fatalf("Pending() after Stop = %d, want 1", e.Pending())
	}
}

// Property: for any set of non-negative delays, events fire in sorted order
// of their absolute times.
func TestQuickEventOrdering(t *testing.T) {
	f := func(delaysMS []uint16) bool {
		e := New(7)
		var fired []time.Duration
		for _, d := range delaysMS {
			e.Schedule(time.Duration(d)*time.Millisecond, func() {
				fired = append(fired, e.Now())
			})
		}
		e.Run()
		for i := 1; i < len(fired); i++ {
			if fired[i] < fired[i-1] {
				return false
			}
		}
		return len(fired) == len(delaysMS)
	}
	if err := quick.Check(f, nil); err != nil {
		t.Error(err)
	}
}

// Property: virtual time never moves backwards across arbitrary mixes of
// Schedule / nested Schedule calls.
func TestQuickMonotonicClock(t *testing.T) {
	f := func(seed int64, n uint8) bool {
		e := New(seed)
		last := time.Duration(-1)
		ok := true
		var spawn func(rem int)
		spawn = func(rem int) {
			if e.Now() < last {
				ok = false
			}
			last = e.Now()
			if rem > 0 {
				e.Schedule(time.Duration(e.Rand().Intn(1000))*time.Microsecond, func() { spawn(rem - 1) })
			}
		}
		for i := 0; i < int(n%8)+1; i++ {
			e.Schedule(time.Duration(e.Rand().Intn(1000))*time.Microsecond, func() { spawn(int(n) % 32) })
		}
		e.Run()
		return ok
	}
	if err := quick.Check(f, nil); err != nil {
		t.Error(err)
	}
}

// --- pooled-engine edge cases the packet-path refactor must preserve ---

// Same-instant FIFO must survive event-struct reuse: fire a batch (events
// return to the free list in some order), then schedule a second
// same-instant batch that reuses those structs.
func TestSameInstantFIFOAcrossPoolReuse(t *testing.T) {
	e := New(1)
	var got []int
	for i := 0; i < 20; i++ {
		i := i
		e.Schedule(time.Second, func() { got = append(got, i) })
	}
	// Cancel a few to scramble the free-list order at collection time.
	tm := e.Schedule(time.Second, func() { t.Error("cancelled event fired") })
	tm.Stop()
	e.Run()
	for i := 0; i < 20; i++ {
		if got[i] != i {
			t.Fatalf("first batch out of FIFO order: %v", got)
		}
	}
	got = nil
	for i := 0; i < 20; i++ {
		i := i
		e.Schedule(time.Millisecond, func() { got = append(got, i) }) // reuses pooled structs
	}
	e.Run()
	for i := 0; i < 20; i++ {
		if got[i] != i {
			t.Fatalf("second (pool-reusing) batch out of FIFO order: %v", got)
		}
	}
}

// Timer.Stop from inside a firing callback: stopping yourself reports
// false (the event already fired); stopping a later same-instant timer
// must still prevent it from firing.
func TestTimerStopInsideFiringCallback(t *testing.T) {
	e := New(1)
	var self, victim Timer
	victimFired := false
	self = e.Schedule(time.Second, func() {
		if self.Stop() {
			t.Error("Stop() on the timer currently firing returned true")
		}
		if !victim.Stop() {
			t.Error("Stop() on a pending same-instant timer returned false")
		}
	})
	victim = e.Schedule(time.Second, func() { victimFired = true })
	e.Run()
	if victimFired {
		t.Fatal("timer stopped from a firing callback still fired")
	}
}

// A stale Timer handle must not cancel an unrelated reuse of the same
// pooled event struct (generation guard).
func TestStaleTimerHandleAfterReuse(t *testing.T) {
	e := New(1)
	t1 := e.Schedule(time.Millisecond, func() {})
	e.Run()
	fired := false
	e.Schedule(time.Millisecond, func() { fired = true }) // reuses t1's struct
	if t1.Stop() {
		t.Fatal("stale handle Stop() returned true")
	}
	e.Run()
	if !fired {
		t.Fatal("stale handle cancelled an unrelated reused event")
	}
}

// Ticker stop/restart semantics: Stop is final (Reset on a stopped ticker
// is a no-op), and a replacement ticker picks up cleanly.
func TestTickerStopThenRestart(t *testing.T) {
	e := New(1)
	count := 0
	tk := e.Every(time.Second, func() { count++ })
	e.RunUntil(3500 * time.Millisecond)
	tk.Stop()
	tk.Reset(100 * time.Millisecond) // must not revive it
	e.RunUntil(10 * time.Second)
	if count != 3 {
		t.Fatalf("stopped ticker ticked: count = %d, want 3", count)
	}
	count = 0
	e.Every(time.Second, func() { count++ }) // fresh ticker restarts the cadence
	e.RunUntil(15 * time.Second)
	if count != 5 {
		t.Fatalf("restarted ticker count = %d, want 5", count)
	}
}

// Long-interval tickers ride the timer wheel's higher levels; cadence and
// determinism must be unaffected.
func TestTickerLongIntervalsOnWheel(t *testing.T) {
	e := New(1)
	var times []time.Duration
	e.Every(700*time.Millisecond, func() { times = append(times, e.Now()) }) // level 1
	e.Every(90*time.Second, func() { times = append(times, e.Now()) })       // level 2
	e.RunUntil(91 * time.Second)
	if len(times) == 0 {
		t.Fatal("no ticks")
	}
	// Verify the 700ms cadence exactly, with the 90s tick interleaved.
	want := 700 * time.Millisecond
	next := want
	seen90 := false
	for _, at := range times {
		if at == 90*time.Second && !seen90 {
			seen90 = true
			continue
		}
		if at != next {
			t.Fatalf("tick at %v, want %v", at, next)
		}
		next += want
	}
	if !seen90 {
		t.Fatal("90s wheel-level-2 tick missing")
	}
}

// After a full drain, every pooled event must be back on the free list:
// zero leaks from firing, cancellation, wheel residence, or ticker stop.
func TestEngineDrainNoLeakedEvents(t *testing.T) {
	e := New(1)
	for i := 0; i < 500; i++ {
		d := time.Duration(i%300) * time.Millisecond // heap + wheel levels 0/1
		tm := e.Schedule(d, func() {})
		if i%7 == 0 {
			tm.Stop()
		}
	}
	e.Schedule(70*time.Second, func() {}) // wheel level 2
	var tk *Ticker
	tk = e.Every(33*time.Millisecond, func() {
		if e.Now() > 2*time.Second {
			tk.Stop()
		}
	})
	tk2 := e.Every(time.Hour, func() {})
	e.Schedule(80*time.Second, tk2.Stop)
	e.Run()
	if e.Pending() != 0 {
		t.Fatalf("Pending() = %d after drain, want 0", e.Pending())
	}
	if e.live != 0 {
		t.Fatalf("%d pooled events leaked after drain", e.live)
	}
}

// benchChain is one self-rescheduling event chain: every firing files
// its successor a pseudo-random 0–2 ms later, below the wheel's minimum
// delay, so every event goes through the heap.
type benchChain struct {
	e *Engine
	x uint32
}

func (c *benchChain) OnEvent(time.Duration) {
	c.x = c.x*1664525 + 1013904223
	c.e.ScheduleHandler(time.Duration(c.x>>21)*time.Microsecond, c)
}

// BenchmarkSchedulerThroughput measures one heap pop plus one push in
// steady state, with the heap held at 1,500 entries — about the engine
// macro's scheduler high-water — rather than growing with b.N.
func BenchmarkSchedulerThroughput(b *testing.B) {
	const depth = 1500
	e := New(1)
	for i := 0; i < depth; i++ {
		e.ScheduleHandler(time.Duration(i)*time.Microsecond, &benchChain{e: e, x: uint32(i)})
	}
	for i := 0; i < depth; i++ {
		e.Step()
	}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		e.Step()
	}
	b.StopTimer()
	if got := e.Pending(); got != depth {
		b.Fatalf("heap depth drifted to %d, want %d", got, depth)
	}
}

// Reset from inside the ticker's own callback must not double-arm the
// tick chain: the in-flight tick re-arms once, at the new cadence.
func TestTickerResetInsideCallback(t *testing.T) {
	e := New(1)
	var times []time.Duration
	var tk *Ticker
	tk = e.Every(time.Second, func() {
		times = append(times, e.Now())
		if e.Now() == 2*time.Second {
			tk.Reset(250 * time.Millisecond)
		}
	})
	e.RunUntil(3 * time.Second)
	want := []time.Duration{
		1 * time.Second, 2 * time.Second, // old cadence
		2250 * time.Millisecond, 2500 * time.Millisecond, // new cadence
		2750 * time.Millisecond, 3 * time.Second,
	}
	if len(times) != len(want) {
		t.Fatalf("ticks = %v, want %v (double-armed ticker?)", times, want)
	}
	for i := range want {
		if times[i] != want[i] {
			t.Fatalf("tick %d at %v, want %v (full: %v)", i, times[i], want[i], times)
		}
	}
}
