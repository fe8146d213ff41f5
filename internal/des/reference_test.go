package des

import (
	"math"
	"math/rand"
	"testing"
)

// refPSResource is the original map-based processor-sharing resource,
// kept as the oracle PSResource is checked against: the same per-job
// arithmetic over a map of jobs, finished jobs sorted back into submission
// order, and a fresh completion event (Cancel + After) on every change.
type refPSResource struct {
	sim  *Simulator
	rate float64

	jobs map[*refJob]struct{}
	last Time
	next *Event

	busy       Time
	served     float64
	completed  int64
	subSeq     int64
	background float64
}

type refJob struct {
	remaining float64
	done      func()
	seq       int64
}

func newRefPSResource(sim *Simulator, rate float64) *refPSResource {
	return &refPSResource{sim: sim, rate: rate, jobs: make(map[*refJob]struct{}), last: sim.Now()}
}

func (r *refPSResource) SetRate(rate float64) {
	r.advance()
	r.rate = rate
	r.reschedule()
}

func (r *refPSResource) SetBackground(n float64) {
	r.advance()
	r.background = n
	r.reschedule()
}

func (r *refPSResource) Load() int        { return len(r.jobs) }
func (r *refPSResource) BusyTime() Time   { r.advance(); return r.busy }
func (r *refPSResource) Served() float64  { r.advance(); return r.served }
func (r *refPSResource) Completed() int64 { return r.completed }

func (r *refPSResource) perJobRate() float64 {
	n := float64(len(r.jobs)) + r.background
	if n <= 0 {
		return r.rate
	}
	return r.rate / n
}

func (r *refPSResource) advance() {
	now := r.sim.Now()
	if now == r.last {
		return
	}
	elapsed := now - r.last
	r.last = now
	if len(r.jobs) == 0 {
		return
	}
	r.busy += elapsed
	per := r.perJobRate() * elapsed.ToSeconds()
	for j := range r.jobs {
		w := per
		if j.remaining < w {
			w = j.remaining
		}
		j.remaining -= w
		if j.remaining < 1e-9 {
			j.remaining = 0
		}
		r.served += w
	}
}

func (r *refPSResource) Submit(work float64, done func()) {
	r.advance()
	j := &refJob{remaining: math.Max(work, 0), done: done, seq: r.subSeq}
	r.subSeq++
	r.jobs[j] = struct{}{}
	r.reschedule()
}

func (r *refPSResource) reschedule() {
	if r.next != nil {
		r.sim.Cancel(r.next)
		r.next = nil
	}
	if len(r.jobs) == 0 {
		return
	}
	minRem := math.Inf(1)
	for j := range r.jobs {
		if j.remaining < minRem {
			minRem = j.remaining
		}
	}
	per := r.perJobRate()
	var dt Time
	if minRem <= 0 {
		dt = 0
	} else {
		secs := minRem / per
		dt = Time(math.Ceil(secs * float64(Second)))
		if dt < 1 {
			dt = 1
		}
	}
	r.next = r.sim.After(dt, r.finishDue)
}

func (r *refPSResource) finishDue() {
	r.next = nil
	r.advance()
	var finished []*refJob
	for j := range r.jobs {
		if j.remaining <= 1e-9 {
			finished = append(finished, j)
		}
	}
	for i := 1; i < len(finished); i++ {
		for k := i; k > 0 && finished[k].seq < finished[k-1].seq; k-- {
			finished[k], finished[k-1] = finished[k-1], finished[k]
		}
	}
	for _, j := range finished {
		delete(r.jobs, j)
		r.completed++
	}
	r.reschedule()
	for _, j := range finished {
		if j.done != nil {
			j.done()
		}
	}
}

// psUnderTest is what the differential harness drives.
type psUnderTest interface {
	Submit(work float64, done func())
	SetRate(rate float64)
	SetBackground(n float64)
	Load() int
	BusyTime() Time
	Served() float64
	Completed() int64
}

// psEntry is one observation in a harness run's log.
type psEntry struct {
	what string  // "done", "probe", "load", "completed", "served" or "busy"
	id   int     // job or probe id
	at   Time    // simulated instant of the observation
	val  float64 // the reading, for the accessor entries
}

// runPSScript replays script against a fresh simulator and resource and
// returns everything observed, in the order it happened. Every four bytes
// are one operation at a time offset from the previous one: submits
// (including zero work), SetRate, SetBackground, accessor reads, and
// submits whose completion callbacks resubmit and schedule a same-instant
// probe event, so ties between completions and other events are logged.
func runPSScript(script []byte, mk func(*Simulator) psUnderTest) ([]psEntry, int64) {
	sim := New()
	r := mk(sim)
	var log []psEntry
	ids := 0
	var submit func(work float64, chain int)
	submit = func(work float64, chain int) {
		id := ids
		ids++
		r.Submit(work, func() {
			log = append(log, psEntry{what: "done", id: id, at: sim.Now()})
			if chain > 0 {
				sim.After(0, func() { log = append(log, psEntry{what: "probe", id: id, at: sim.Now()}) })
				submit(work/2, chain-1)
			}
		})
	}
	at := Time(0)
	for len(script) >= 4 {
		op, a, b, c := script[0], script[1], script[2], script[3]
		script = script[4:]
		// Gaps of 0 put several operations on one instant; the rest are
		// spread over a few seconds at millisecond and microsecond grain.
		if a%4 != 0 {
			at += Time(a)*Millisecond + Time(c)*Microsecond
		}
		sim.At(at, func() {
			switch op % 8 {
			case 0, 1, 2:
				submit(float64(b)*float64(c%16), 0)
			case 3:
				submit(0, 0)
			case 4:
				r.SetRate(float64(b%50+1) * 100)
			case 5:
				r.SetBackground(float64(b%5) / 2)
			case 6:
				submit(float64(b)*float64(c%16)+1, int(c%4))
			case 7:
				now := sim.Now()
				log = append(log,
					psEntry{what: "load", at: now, val: float64(r.Load())},
					psEntry{what: "completed", at: now, val: float64(r.Completed())},
					psEntry{what: "served", at: now, val: r.Served()},
					psEntry{what: "busy", at: now, val: float64(r.BusyTime())})
			}
		})
	}
	sim.RunAll()
	now := sim.Now()
	log = append(log,
		psEntry{what: "load", at: now, val: float64(r.Load())},
		psEntry{what: "completed", at: now, val: float64(r.Completed())},
		psEntry{what: "served", at: now, val: r.Served()},
		psEntry{what: "busy", at: now, val: float64(r.BusyTime())})
	return log, sim.EventsFired()
}

// FuzzPSMatchesReference drives PSResource and the map-based reference
// with one schedule on separate simulators and requires the same
// completion instants and order, the same interleaving with other
// same-instant events, the same Load, Completed and EventsFired, and
// Served and BusyTime equal to a relative 1e-9 (the reference sums served
// work in map order, so its last bits wander).
func FuzzPSMatchesReference(f *testing.F) {
	f.Add([]byte{0, 0, 100, 5, 0, 0, 100, 5, 3, 0, 0, 0, 7, 1, 0, 0})
	f.Add([]byte{6, 1, 200, 3, 4, 2, 10, 0, 5, 1, 3, 7, 1, 0, 50, 9, 7, 3, 0, 0})
	for seed := int64(1); seed <= 8; seed++ {
		b := make([]byte, 160)
		rand.New(rand.NewSource(seed)).Read(b)
		f.Add(b)
	}
	f.Fuzz(func(t *testing.T, script []byte) {
		if len(script) > 1024 {
			script = script[:1024]
		}
		got, gotFired := runPSScript(script, func(sim *Simulator) psUnderTest { return NewPSResource(sim, "r", 1000) })
		want, wantFired := runPSScript(script, func(sim *Simulator) psUnderTest { return newRefPSResource(sim, 1000) })
		if gotFired != wantFired {
			t.Errorf("EventsFired = %d, reference %d", gotFired, wantFired)
		}
		if len(got) != len(want) {
			t.Fatalf("%d observations, reference %d", len(got), len(want))
		}
		for i := range got {
			g, w := got[i], want[i]
			same := g.what == w.what && g.id == w.id && g.at == w.at
			if g.what == "served" || g.what == "busy" {
				same = same && math.Abs(g.val-w.val) <= 1e-9*math.Max(math.Abs(w.val), 1)
			} else {
				same = same && g.val == w.val
			}
			if !same {
				t.Fatalf("observation %d = %+v, reference %+v", i, g, w)
			}
		}
	})
}

// TestPSServedIsReproducible runs one schedule with many overlapping jobs
// again and again: Served sums every job's share in submission order, so
// it must come out bit-identical every time.
func TestPSServedIsReproducible(t *testing.T) {
	run := func() uint64 {
		sim := New()
		r := NewPSResource(sim, "r", 977)
		for i := 0; i < 40; i++ {
			w := float64(i*37%101) + 0.3
			sim.At(Time(i*i%53)*Millisecond, func() { r.Submit(w, func() {}) })
		}
		sim.At(90*Millisecond, func() { r.SetBackground(0.7) })
		sim.RunAll()
		return math.Float64bits(r.Served())
	}
	want := run()
	for i := 1; i < 50; i++ {
		if got := run(); got != want {
			t.Fatalf("run %d: Served bits %#x, first run %#x", i, got, want)
		}
	}
}
