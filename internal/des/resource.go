package des

import (
	"fmt"
	"math"
)

// psJob is one active job: the work units it still needs and the callback
// to run once they are served.
type psJob struct {
	remaining float64
	done      func()
}

// PSResource is an egalitarian processor-sharing server: when n jobs are
// active each receives rate/n work units per second. This models a
// time-shared CPU, a disk channel serving interleaved streams, or a shared
// Ethernet bus — exactly the degradation the SWEB paper describes
// ("if there are many requests, the disk transmission performance degrades
// accordingly").
//
// The implementation advances all active jobs lazily at each submit/finish
// event and keeps the next completion event scheduled. Active jobs live in
// a slice in submission order, so every pass over them (advancing, finding
// the next completion, collecting finished jobs) is a linear walk in one
// fixed order, and jobs finishing together complete in the order they were
// submitted. Cost is O(n) per event, which is ample for the cluster sizes
// in the paper.
type PSResource struct {
	sim  *Simulator
	name string
	rate float64 // work units per second when uncontended

	jobs     []psJob  // active jobs, in submission order
	last     Time     // last time remaining-work was advanced
	due      Event    // the next completion, re-armed in place
	finish   func()   // r.finishDue, bound once so re-arming allocates nothing
	finished []func() // scratch: callbacks of the jobs finishing now

	// Accounting for utilization/overhead reports (Table 5, Sec. 4.3).
	busy      Time    // total time with >=1 active job
	served    float64 // total work completed
	completed int64
	// background is phantom elastic load: a constant number of fictitious
	// jobs that always compete for the resource (models "Ethernet shared
	// by other UCSB machines"). May be fractional.
	background float64
}

// NewPSResource creates a processor-sharing resource with the given
// uncontended service rate in work units per second.
func NewPSResource(sim *Simulator, name string, rate float64) *PSResource {
	if rate <= 0 {
		panic(fmt.Sprintf("des: resource %q needs positive rate, got %g", name, rate))
	}
	r := &PSResource{sim: sim, name: name, rate: rate, last: sim.Now()}
	r.due.index = -1
	r.finish = r.finishDue
	return r
}

// Name returns the resource's diagnostic name.
func (r *PSResource) Name() string { return r.name }

// Rate returns the uncontended service rate.
func (r *PSResource) Rate() float64 { return r.rate }

// SetRate changes the service rate, first advancing all in-flight work at
// the old rate. Used for dynamic degradation scenarios.
func (r *PSResource) SetRate(rate float64) {
	if rate <= 0 {
		panic("des: SetRate requires positive rate")
	}
	r.advance()
	r.rate = rate
	r.reschedule()
}

// SetBackground sets the phantom competing load (number of always-active
// fictitious jobs, fractional allowed).
func (r *PSResource) SetBackground(n float64) {
	if n < 0 {
		panic("des: negative background load")
	}
	r.advance()
	r.background = n
	r.reschedule()
}

// Load returns the instantaneous number of active jobs, excluding phantom
// background load. This is what loadd samples.
func (r *PSResource) Load() int { return len(r.jobs) }

// BusyTime returns the cumulative time during which at least one real job
// was active.
func (r *PSResource) BusyTime() Time { r.advance(); return r.busy }

// Served returns total completed work units.
func (r *PSResource) Served() float64 { r.advance(); return r.served }

// Completed returns the count of finished jobs.
func (r *PSResource) Completed() int64 { return r.completed }

// Utilization returns busy time divided by elapsed time since t0.
func (r *PSResource) Utilization(t0 Time) float64 {
	elapsed := r.sim.Now() - t0
	if elapsed <= 0 {
		return 0
	}
	r.advance()
	return float64(r.busy) / float64(elapsed)
}

// perJobRate returns the current service rate seen by each active job.
func (r *PSResource) perJobRate() float64 {
	n := float64(len(r.jobs)) + r.background
	if n <= 0 {
		return r.rate
	}
	return r.rate / n
}

// advance applies elapsed service to all active jobs.
func (r *PSResource) advance() {
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
	for i := range r.jobs {
		j := &r.jobs[i]
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

// Submit enqueues work on the resource; done fires when it completes.
// Zero or negative work completes after the next event dispatch (still
// asynchronously, preserving event ordering).
func (r *PSResource) Submit(work float64, done func()) {
	r.advance()
	r.jobs = append(r.jobs, psJob{remaining: math.Max(work, 0), done: done})
	r.reschedule()
}

// reschedule recomputes the next completion event.
func (r *PSResource) reschedule() {
	if len(r.jobs) == 0 {
		r.sim.Cancel(&r.due)
		return
	}
	minRem := math.Inf(1)
	for i := range r.jobs {
		if rem := r.jobs[i].remaining; rem < minRem {
			minRem = rem
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
	r.sim.rearm(&r.due, r.sim.Now()+dt, r.finish)
}

// finishDue completes every job whose remaining work has reached zero, in
// submission order.
func (r *PSResource) finishDue() {
	r.advance()
	done := r.finished[:0]
	kept := r.jobs[:0]
	for _, j := range r.jobs {
		if j.remaining <= 1e-9 {
			done = append(done, j.done)
			r.completed++
		} else {
			kept = append(kept, j)
		}
	}
	clear(r.jobs[len(kept):])
	r.jobs = kept
	r.reschedule()
	for i, fn := range done {
		done[i] = nil
		if fn != nil {
			fn()
		}
	}
	r.finished = done[:0]
}
