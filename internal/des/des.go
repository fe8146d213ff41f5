// Package des implements a deterministic discrete-event simulation engine
// with shared-resource models (processor sharing and FIFO service) used to
// simulate the multicomputer substrate that SWEB runs on.
//
// Time is kept as int64 microseconds so that runs are exactly reproducible
// across platforms. Events scheduled for the same instant fire in the order
// they were scheduled (a monotonically increasing sequence number breaks
// ties), which keeps the simulation deterministic even under heavy fan-out.
package des

import "fmt"

// Time is a simulated instant or duration in microseconds.
type Time int64

// Common durations.
const (
	Microsecond Time = 1
	Millisecond Time = 1000
	Second      Time = 1000 * 1000
)

// Seconds converts a floating-point number of seconds to a Time.
func Seconds(s float64) Time { return Time(s * float64(Second)) }

// ToSeconds converts t to floating-point seconds.
func (t Time) ToSeconds() float64 { return float64(t) / float64(Second) }

// String renders the time as seconds with microsecond precision.
func (t Time) String() string { return fmt.Sprintf("%.6fs", t.ToSeconds()) }

// Event is a scheduled callback. Events are single-shot; cancelling an event
// that has already fired is a no-op.
type Event struct {
	at    Time
	seq   int64
	fn    func()
	index int // heap index, -1 once fired or cancelled
}

// At returns the instant the event is scheduled for.
func (e *Event) At() Time { return e.at }

// Simulator is a single-threaded discrete-event scheduler.
// The zero value is ready to use, starting at time 0.
type Simulator struct {
	now     Time
	seq     int64
	events  []*Event // binary min-heap on (at, seq)
	feed    feed
	stopped bool
	fired   int64
}

// feed is a sorted run of events that never enter the heap: event i fires
// fire(i) at ats[i] with sequence number seq+i, reserved when it was fed.
type feed struct {
	ats  []Time
	seq  int64
	next int
	fire func(i int)
}

// left reports how many feed events have not fired yet.
func (f *feed) left() int { return len(f.ats) - f.next }

// New returns a simulator starting at time zero.
func New() *Simulator { return &Simulator{} }

// Now returns the current simulated time.
func (s *Simulator) Now() Time { return s.now }

// EventsFired reports how many events have executed so far.
func (s *Simulator) EventsFired() int64 { return s.fired }

// Pending reports how many events are scheduled but not yet fired, fed
// ones included.
func (s *Simulator) Pending() int { return len(s.events) + s.feed.left() }

// At schedules fn to run at absolute time t. Scheduling in the past panics:
// it would silently reorder causality, which is always a bug in the caller.
func (s *Simulator) At(t Time, fn func()) *Event {
	e := &Event{index: -1}
	s.rearm(e, t, fn)
	return e
}

// After schedules fn to run d microseconds from now. Negative d panics.
func (s *Simulator) After(d Time, fn func()) *Event {
	return s.At(s.now+d, fn)
}

// Cancel removes a pending event. It is safe to cancel an event that has
// already fired or been cancelled.
func (s *Simulator) Cancel(e *Event) {
	if e == nil || e.index < 0 {
		return
	}
	s.remove(e.index)
	e.fn = nil
}

// Feed schedules fire(i) at ats[i] for every i, in the order len(ats)
// calls to At would give: each event takes its sequence number now, so
// same-instant ties against events scheduled before or after the call fall
// exactly as they would. The events stay out of the heap — a long arrival
// schedule costs no heap work and no Event each — so they cannot be
// cancelled. ats must be sorted and not before now. Only one feed runs at
// a time: feeding while an earlier feed has events left panics.
func (s *Simulator) Feed(ats []Time, fire func(i int)) {
	if s.feed.left() > 0 {
		panic("des: Feed while an earlier feed has events left")
	}
	for i, t := range ats {
		if t < s.now {
			panic(fmt.Sprintf("des: feeding event at %v before now %v", t, s.now))
		}
		if i > 0 && t < ats[i-1] {
			panic(fmt.Sprintf("des: feed out of order at %d: %v after %v", i, t, ats[i-1]))
		}
	}
	s.feed = feed{ats: ats, seq: s.seq, fire: fire}
	s.seq += int64(len(ats))
}

// rearm (re)schedules e to fire fn at t, as if it were cancelled and
// scheduled afresh with At: it takes the next sequence number, so its tie
// order against same-instant events is exactly that of a new event. e may
// be pending in s, fired or cancelled; one never scheduled needs index -1.
func (s *Simulator) rearm(e *Event, t Time, fn func()) {
	if t < s.now {
		panic(fmt.Sprintf("des: scheduling event at %v before now %v", t, s.now))
	}
	e.at, e.seq, e.fn = t, s.seq, fn
	s.seq++
	if e.index < 0 {
		s.push(e)
	} else {
		s.fix(e.index)
	}
}

// Stop makes Run return after the currently executing event completes.
func (s *Simulator) Stop() { s.stopped = true }

// Step fires the next pending event, if any, and reports whether one fired.
// The next event is the earlier by (at, seq) of the feed's next event and
// the heap's root.
func (s *Simulator) Step() bool {
	if s.feedFirst() {
		f := &s.feed
		i := f.next
		f.next++
		s.now = f.ats[i]
		s.fired++
		f.fire(i)
		return true
	}
	if len(s.events) == 0 {
		return false
	}
	e := s.events[0]
	s.remove(0)
	s.now = e.at
	fn := e.fn
	e.fn = nil
	s.fired++
	if fn != nil {
		fn()
	}
	return true
}

// feedFirst reports whether the feed holds the next event to fire.
func (s *Simulator) feedFirst() bool {
	f := &s.feed
	if f.left() == 0 {
		return false
	}
	if len(s.events) == 0 {
		return true
	}
	at, e := f.ats[f.next], s.events[0]
	return at < e.at || at == e.at && f.seq+int64(f.next) < e.seq
}

// nextAt returns the instant of the next pending event; ok is false when
// nothing is pending.
func (s *Simulator) nextAt() (at Time, ok bool) {
	if s.feedFirst() {
		return s.feed.ats[s.feed.next], true
	}
	if len(s.events) == 0 {
		return 0, false
	}
	return s.events[0].at, true
}

// Run executes events until the queue is empty, the horizon is passed, or
// Stop is called. Events scheduled exactly at the horizon still fire.
// It returns the simulated time when execution stopped.
func (s *Simulator) Run(until Time) Time {
	s.stopped = false
	for !s.stopped {
		at, ok := s.nextAt()
		if !ok {
			break
		}
		if at > until {
			s.now = until
			return s.now
		}
		s.Step()
	}
	if s.now < until && s.Pending() == 0 {
		s.now = until
	}
	return s.now
}

// RunAll executes every pending event regardless of horizon.
func (s *Simulator) RunAll() Time {
	s.stopped = false
	for !s.stopped && s.Step() {
	}
	return s.now
}

// The event queue is a binary min-heap on (at, seq) over []*Event, each
// event tracking its own index so Cancel and rearm reach it in O(log n).
// Sequence numbers are unique, so the order is total and any correct heap
// fires events in the same order.

func (s *Simulator) less(i, j int) bool {
	a, b := s.events[i], s.events[j]
	if a.at != b.at {
		return a.at < b.at
	}
	return a.seq < b.seq
}

func (s *Simulator) swap(i, j int) {
	h := s.events
	h[i], h[j] = h[j], h[i]
	h[i].index = i
	h[j].index = j
}

// up moves the event at j towards the root until its parent is earlier.
func (s *Simulator) up(j int) {
	for j > 0 {
		i := (j - 1) / 2
		if !s.less(j, i) {
			break
		}
		s.swap(i, j)
		j = i
	}
}

// down moves the event at i towards the leaves until both children are
// later, and reports whether it moved.
func (s *Simulator) down(i int) bool {
	i0, n := i, len(s.events)
	for {
		j := 2*i + 1
		if j >= n {
			break
		}
		if r := j + 1; r < n && s.less(r, j) {
			j = r
		}
		if !s.less(j, i) {
			break
		}
		s.swap(i, j)
		i = j
	}
	return i > i0
}

func (s *Simulator) push(e *Event) {
	e.index = len(s.events)
	s.events = append(s.events, e)
	s.up(e.index)
}

// remove takes the event at index i out of the heap and marks it unqueued.
func (s *Simulator) remove(i int) {
	n := len(s.events) - 1
	e := s.events[i]
	if i != n {
		s.swap(i, n)
	}
	s.events[n] = nil
	s.events = s.events[:n]
	if i != n {
		s.fix(i)
	}
	e.index = -1
}

// fix restores the heap after the event at i changed its key.
func (s *Simulator) fix(i int) {
	if !s.down(i) {
		s.up(i)
	}
}
