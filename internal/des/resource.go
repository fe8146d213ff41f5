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
// a slice in submission order, and each event makes one linear walk over
// them in that order: a submit advances every job while finding the least
// remaining work, a completion also collects the finished jobs on the same
// walk. Jobs finishing together complete in the order they were submitted.
// Cost is O(n) per event, which is ample for the cluster sizes in the
// paper.
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
	minRem := r.advance()
	r.rate = rate
	r.reschedule(minRem)
}

// SetBackground sets the phantom competing load (number of always-active
// fictitious jobs, fractional allowed).
func (r *PSResource) SetBackground(n float64) {
	if n < 0 {
		panic("des: negative background load")
	}
	minRem := r.advance()
	r.background = n
	r.reschedule(minRem)
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

// elapse moves the accounting clock to now and returns the service each
// active job received since the last advance; moved is false when no time
// passed or no job was active, and then no job may be touched.
func (r *PSResource) elapse() (per float64, moved bool) {
	now := r.sim.Now()
	if now == r.last {
		return 0, false
	}
	elapsed := now - r.last
	r.last = now
	if len(r.jobs) == 0 {
		return 0, false
	}
	r.busy += elapsed
	return r.perJobRate() * elapsed.ToSeconds(), true
}

// serve applies per units of service to job j.
func (r *PSResource) serve(j *psJob, per float64) {
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

// advance applies elapsed service to all active jobs and returns the least
// remaining work among them (+Inf when none is active), in one pass.
func (r *PSResource) advance() float64 {
	per, moved := r.elapse()
	minRem := math.Inf(1)
	for i := range r.jobs {
		j := &r.jobs[i]
		if moved {
			r.serve(j, per)
		}
		if j.remaining < minRem {
			minRem = j.remaining
		}
	}
	return minRem
}

// Submit enqueues work on the resource; done fires when it completes.
// Zero or negative work completes after the next event dispatch (still
// asynchronously, preserving event ordering).
func (r *PSResource) Submit(work float64, done func()) {
	minRem := r.advance()
	j := psJob{remaining: math.Max(work, 0), done: done}
	r.jobs = append(r.jobs, j)
	if j.remaining < minRem {
		minRem = j.remaining
	}
	r.reschedule(minRem)
}

// reschedule re-arms the next completion for the active job with minRem
// remaining work, or cancels it when no job is active.
func (r *PSResource) reschedule(minRem float64) {
	if len(r.jobs) == 0 {
		r.sim.Cancel(&r.due)
		return
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

// finishDue advances every job and completes those whose remaining work
// has reached zero, in submission order, in one pass that also finds the
// least remaining work among the jobs it keeps.
func (r *PSResource) finishDue() {
	per, moved := r.elapse()
	minRem := math.Inf(1)
	done := r.finished[:0]
	kept := r.jobs[:0]
	for i := range r.jobs {
		j := r.jobs[i]
		if moved {
			r.serve(&j, per)
		}
		if j.remaining <= 1e-9 {
			done = append(done, j.done)
			r.completed++
			continue
		}
		if j.remaining < minRem {
			minRem = j.remaining
		}
		kept = append(kept, j)
	}
	clear(r.jobs[len(kept):])
	r.jobs = kept
	r.reschedule(minRem)
	for i, fn := range done {
		done[i] = nil
		if fn != nil {
			fn()
		}
	}
	r.finished = done[:0]
}
