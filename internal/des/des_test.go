package des

import (
	"math"
	"testing"
	"testing/quick"
)

func TestTimeConversions(t *testing.T) {
	if Seconds(1.5) != 1500*Millisecond {
		t.Fatalf("Seconds(1.5) = %v", Seconds(1.5))
	}
	if got := (2500 * Millisecond).ToSeconds(); got != 2.5 {
		t.Fatalf("ToSeconds = %v", got)
	}
	if s := (1500 * Millisecond).String(); s != "1.500000s" {
		t.Fatalf("String = %q", s)
	}
}

func TestEventsFireInTimeOrder(t *testing.T) {
	sim := New()
	var order []int
	sim.At(30*Millisecond, func() { order = append(order, 3) })
	sim.At(10*Millisecond, func() { order = append(order, 1) })
	sim.At(20*Millisecond, func() { order = append(order, 2) })
	sim.RunAll()
	if len(order) != 3 || order[0] != 1 || order[1] != 2 || order[2] != 3 {
		t.Fatalf("order = %v", order)
	}
	if sim.Now() != 30*Millisecond {
		t.Fatalf("now = %v", sim.Now())
	}
}

func TestSimultaneousEventsFireInScheduleOrder(t *testing.T) {
	sim := New()
	var order []int
	for i := 0; i < 50; i++ {
		i := i
		sim.At(Second, func() { order = append(order, i) })
	}
	sim.RunAll()
	for i, v := range order {
		if v != i {
			t.Fatalf("tie-break violated at %d: %v", i, order)
		}
	}
}

func TestAfterSchedulesRelative(t *testing.T) {
	sim := New()
	var at Time
	sim.After(10*Millisecond, func() {
		sim.After(5*Millisecond, func() { at = sim.Now() })
	})
	sim.RunAll()
	if at != 15*Millisecond {
		t.Fatalf("nested After fired at %v", at)
	}
}

func TestSchedulingInThePastPanics(t *testing.T) {
	sim := New()
	sim.At(Second, func() {})
	sim.RunAll()
	defer func() {
		if recover() == nil {
			t.Fatal("expected panic scheduling before now")
		}
	}()
	sim.At(Millisecond, func() {})
}

func TestCancelPreventsFiring(t *testing.T) {
	sim := New()
	fired := false
	ev := sim.At(Second, func() { fired = true })
	sim.Cancel(ev)
	sim.RunAll()
	if fired {
		t.Fatal("cancelled event fired")
	}
	// Double cancel and cancelling fired events are no-ops.
	sim.Cancel(ev)
	sim.Cancel(nil)
}

func TestCancelOneOfMany(t *testing.T) {
	sim := New()
	var got []int
	e1 := sim.At(1*Millisecond, func() { got = append(got, 1) })
	sim.At(2*Millisecond, func() { got = append(got, 2) })
	e3 := sim.At(3*Millisecond, func() { got = append(got, 3) })
	sim.Cancel(e1)
	sim.Cancel(e3)
	sim.RunAll()
	if len(got) != 1 || got[0] != 2 {
		t.Fatalf("got %v", got)
	}
}

func TestRunStopsAtHorizon(t *testing.T) {
	sim := New()
	fired := 0
	sim.At(Second, func() { fired++ })
	sim.At(3*Second, func() { fired++ })
	end := sim.Run(2 * Second)
	if fired != 1 || end != 2*Second {
		t.Fatalf("fired=%d end=%v", fired, end)
	}
	if sim.Pending() != 1 {
		t.Fatalf("pending = %d", sim.Pending())
	}
	// Continue past the horizon.
	sim.Run(5 * Second)
	if fired != 2 {
		t.Fatalf("fired=%d after second run", fired)
	}
}

func TestRunEventAtExactHorizonFires(t *testing.T) {
	sim := New()
	fired := false
	sim.At(2*Second, func() { fired = true })
	sim.Run(2 * Second)
	if !fired {
		t.Fatal("event at exact horizon did not fire")
	}
}

func TestStopInsideEvent(t *testing.T) {
	sim := New()
	fired := 0
	sim.At(Millisecond, func() { fired++; sim.Stop() })
	sim.At(2*Millisecond, func() { fired++ })
	sim.Run(Second)
	if fired != 1 {
		t.Fatalf("Stop did not halt the loop: fired=%d", fired)
	}
}

func TestEventsFiredCounter(t *testing.T) {
	sim := New()
	for i := 0; i < 7; i++ {
		sim.After(Time(i)*Millisecond, func() {})
	}
	sim.RunAll()
	if sim.EventsFired() != 7 {
		t.Fatalf("EventsFired = %d", sim.EventsFired())
	}
}

func TestEventSchedulesMoreEvents(t *testing.T) {
	sim := New()
	depth := 0
	var recurse func()
	recurse = func() {
		if depth < 100 {
			depth++
			sim.After(Millisecond, recurse)
		}
	}
	sim.After(0, recurse)
	sim.RunAll()
	if depth != 100 {
		t.Fatalf("depth = %d", depth)
	}
	if sim.Now() != 100*Millisecond {
		t.Fatalf("now = %v", sim.Now())
	}
}

// --- PSResource ----------------------------------------------------------

func TestPSSingleJobTiming(t *testing.T) {
	sim := New()
	r := NewPSResource(sim, "cpu", 1000) // 1000 units/s
	var done Time
	r.Submit(500, func() { done = sim.Now() })
	sim.RunAll()
	if got := done.ToSeconds(); math.Abs(got-0.5) > 1e-3 {
		t.Fatalf("single job finished at %vs, want 0.5s", got)
	}
}

func TestPSTwoJobsShareEqually(t *testing.T) {
	sim := New()
	r := NewPSResource(sim, "disk", 1000)
	var d1, d2 Time
	r.Submit(500, func() { d1 = sim.Now() })
	r.Submit(500, func() { d2 = sim.Now() })
	sim.RunAll()
	// Both share: each takes 1.0s.
	for i, d := range []Time{d1, d2} {
		if got := d.ToSeconds(); math.Abs(got-1.0) > 1e-3 {
			t.Fatalf("job %d finished at %v, want ~1.0s", i, got)
		}
	}
}

func TestPSShortJobLeavesLongJobSpeedsUp(t *testing.T) {
	sim := New()
	r := NewPSResource(sim, "r", 1000)
	var dShort, dLong Time
	r.Submit(250, func() { dShort = sim.Now() })
	r.Submit(750, func() { dLong = sim.Now() })
	sim.RunAll()
	// Short: shares until 250 done at t=0.5. Long: 250 done by 0.5,
	// remaining 500 alone → finishes at 1.0.
	if got := dShort.ToSeconds(); math.Abs(got-0.5) > 1e-3 {
		t.Fatalf("short finished at %v", got)
	}
	if got := dLong.ToSeconds(); math.Abs(got-1.0) > 1e-3 {
		t.Fatalf("long finished at %v", got)
	}
}

func TestPSLateArrivalSlowsExisting(t *testing.T) {
	sim := New()
	r := NewPSResource(sim, "r", 1000)
	var d1 Time
	r.Submit(1000, func() { d1 = sim.Now() })
	sim.At(500*Millisecond, func() {
		r.Submit(1000, func() {})
	})
	sim.RunAll()
	// First job: 500 units alone (0.5s), then 500 shared (1.0s) → 1.5s.
	if got := d1.ToSeconds(); math.Abs(got-1.5) > 1e-3 {
		t.Fatalf("first job finished at %v, want 1.5s", got)
	}
}

func TestPSBackgroundLoadSlowsService(t *testing.T) {
	sim := New()
	r := NewPSResource(sim, "bus", 1000)
	r.SetBackground(1) // one phantom always-on competitor
	var done Time
	r.Submit(500, func() { done = sim.Now() })
	sim.RunAll()
	if got := done.ToSeconds(); math.Abs(got-1.0) > 1e-3 {
		t.Fatalf("with background=1 job finished at %v, want 1.0s", got)
	}
}

func TestPSSetRate(t *testing.T) {
	sim := New()
	r := NewPSResource(sim, "r", 1000)
	var done Time
	r.Submit(1000, func() { done = sim.Now() })
	sim.At(500*Millisecond, func() { r.SetRate(500) })
	sim.RunAll()
	// 500 units at 1000/s, then 500 at 500/s → 0.5 + 1.0 = 1.5s.
	if got := done.ToSeconds(); math.Abs(got-1.5) > 1e-3 {
		t.Fatalf("finished at %v, want 1.5s", got)
	}
}

func TestPSZeroWorkCompletesAsync(t *testing.T) {
	sim := New()
	r := NewPSResource(sim, "r", 1000)
	done := false
	r.Submit(0, func() { done = true })
	if done {
		t.Fatal("zero-work job completed synchronously")
	}
	sim.RunAll()
	if !done {
		t.Fatal("zero-work job never completed")
	}
}

func TestPSLoadCount(t *testing.T) {
	sim := New()
	r := NewPSResource(sim, "r", 1e6)
	r.Submit(1e6, func() {})
	r.Submit(1e6, func() {})
	if r.Load() != 2 {
		t.Fatalf("load = %d", r.Load())
	}
	sim.RunAll()
	if r.Load() != 0 {
		t.Fatalf("load after completion = %d", r.Load())
	}
}

func TestPSBusyTimeAndUtilization(t *testing.T) {
	sim := New()
	r := NewPSResource(sim, "r", 1000)
	sim.At(Second, func() {
		r.Submit(1000, func() {})
	})
	sim.RunAll() // busy from t=1 to t=2
	if got := r.BusyTime().ToSeconds(); math.Abs(got-1.0) > 1e-3 {
		t.Fatalf("busy = %v", got)
	}
	if got := r.Utilization(0); math.Abs(got-0.5) > 1e-2 {
		t.Fatalf("utilization = %v", got)
	}
}

func TestPSCompletedAndServedCounters(t *testing.T) {
	sim := New()
	r := NewPSResource(sim, "r", 1000)
	for i := 0; i < 5; i++ {
		r.Submit(100, func() {})
	}
	sim.RunAll()
	if r.Completed() != 5 {
		t.Fatalf("completed = %d", r.Completed())
	}
	if math.Abs(r.Served()-500) > 1 {
		t.Fatalf("served = %v", r.Served())
	}
}

func TestPSInvalidRatesPanic(t *testing.T) {
	sim := New()
	for _, fn := range []func(){
		func() { NewPSResource(sim, "bad", 0) },
		func() { NewPSResource(sim, "bad", -1) },
		func() { NewPSResource(sim, "ok", 1).SetRate(0) },
		func() { NewPSResource(sim, "ok", 1).SetBackground(-1) },
	} {
		func() {
			defer func() {
				if recover() == nil {
					t.Fatal("expected panic")
				}
			}()
			fn()
		}()
	}
}

// Property: work is conserved — the sum of submitted work equals Served()
// once everything completes, for any job mix.
func TestPSWorkConservationProperty(t *testing.T) {
	f := func(works []uint16, gaps []uint8) bool {
		if len(works) == 0 {
			return true
		}
		if len(works) > 64 {
			works = works[:64]
		}
		sim := New()
		r := NewPSResource(sim, "r", 1234)
		var total float64
		at := Time(0)
		for i, w := range works {
			work := float64(w%5000) + 1
			total += work
			if i < len(gaps) {
				at += Time(gaps[i]) * Millisecond
			}
			w := work
			sim.At(at, func() { r.Submit(w, func() {}) })
		}
		sim.RunAll()
		return math.Abs(r.Served()-total) < 1e-3*total+1 &&
			r.Completed() == int64(len(works)) && r.Load() == 0
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 60}); err != nil {
		t.Fatal(err)
	}
}

// Property: completion times are non-decreasing in submitted work when jobs
// start together.
func TestPSMoreWorkFinishesLaterProperty(t *testing.T) {
	f := func(a, b uint16) bool {
		wa, wb := float64(a%1000)+1, float64(b%1000)+1
		sim := New()
		r := NewPSResource(sim, "r", 500)
		var ta, tb Time
		r.Submit(wa, func() { ta = sim.Now() })
		r.Submit(wb, func() { tb = sim.Now() })
		sim.RunAll()
		if wa < wb {
			return ta <= tb
		}
		if wb < wa {
			return tb <= ta
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 200}); err != nil {
		t.Fatal(err)
	}
}

func TestStepReturnsFalseWhenEmpty(t *testing.T) {
	sim := New()
	if sim.Step() {
		t.Fatal("Step on empty queue returned true")
	}
	sim.At(Millisecond, func() {})
	if !sim.Step() {
		t.Fatal("Step with pending event returned false")
	}
	if sim.Now() != Millisecond {
		t.Fatalf("now = %v", sim.Now())
	}
}

func TestRunAdvancesToHorizonWhenIdle(t *testing.T) {
	sim := New()
	end := sim.Run(5 * Second)
	if end != 5*Second || sim.Now() != 5*Second {
		t.Fatalf("idle run ended at %v", end)
	}
}

func TestCancelDuringDispatchOfSameInstant(t *testing.T) {
	sim := New()
	fired := false
	var victim *Event
	sim.At(Millisecond, func() { sim.Cancel(victim) })
	victim = sim.At(Millisecond, func() { fired = true })
	sim.RunAll()
	if fired {
		t.Fatal("event cancelled by an earlier same-instant event still fired")
	}
}

func TestPSResubmitFromCompletionCallback(t *testing.T) {
	sim := New()
	r := NewPSResource(sim, "r", 1000)
	count := 0
	var done func()
	done = func() {
		count++
		if count < 3 {
			r.Submit(100, done)
		}
	}
	r.Submit(100, done)
	sim.RunAll()
	if count != 3 {
		t.Fatalf("chained submissions = %d", count)
	}
	if got := sim.Now().ToSeconds(); math.Abs(got-0.3) > 1e-3 {
		t.Fatalf("chain finished at %v", got)
	}
}
