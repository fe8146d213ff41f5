package des

import (
	"math/rand"
	"testing"
)

func TestFeedFiresInOrderWithTies(t *testing.T) {
	sim := New()
	var order []string
	sim.At(Second, func() { order = append(order, "before") })
	sim.Feed([]Time{0, Second, Second, 2 * Second}, func(i int) {
		order = append(order, string(rune('a'+i)))
		if i == 1 {
			sim.At(Second, func() { order = append(order, "child") })
		}
	})
	sim.At(Second, func() { order = append(order, "after") })
	if got := sim.Pending(); got != 6 {
		t.Fatalf("Pending = %d, want 6", got)
	}
	sim.RunAll()
	want := []string{"a", "before", "b", "c", "after", "child", "d"}
	if len(order) != len(want) {
		t.Fatalf("order = %v, want %v", order, want)
	}
	for i := range want {
		if order[i] != want[i] {
			t.Fatalf("order = %v, want %v", order, want)
		}
	}
	if sim.EventsFired() != 7 || sim.Pending() != 0 || sim.Now() != 2*Second {
		t.Fatalf("fired %d, pending %d, now %v", sim.EventsFired(), sim.Pending(), sim.Now())
	}
}

func TestFeedRejectsMisuse(t *testing.T) {
	mustPanic := func(name string, fn func()) {
		t.Helper()
		defer func() {
			if recover() == nil {
				t.Errorf("%s: no panic", name)
			}
		}()
		fn()
	}
	sim := New()
	sim.Feed([]Time{Second, 2 * Second}, func(int) {})
	mustPanic("second feed with events left", func() { sim.Feed([]Time{3 * Second}, func(int) {}) })
	sim.Run(Second)
	mustPanic("second feed with one event left", func() { sim.Feed([]Time{3 * Second}, func(int) {}) })
	sim.RunAll()
	mustPanic("feed before now", func() { sim.Feed([]Time{Second}, func(int) {}) })
	mustPanic("unsorted feed", func() { sim.Feed([]Time{4 * Second, 3 * Second}, func(int) {}) })
	// An exhausted feed may be replaced.
	fired := 0
	sim.Feed([]Time{3 * Second}, func(int) { fired++ })
	sim.RunAll()
	if fired != 1 {
		t.Fatalf("second feed fired %d events, want 1", fired)
	}
}

// feedRun is one simulator driven by a fuzz script. Events are numbered in
// the order they are scheduled; arrivals are numbered -1, -2, ... so they
// never collide with scheduled ones.
type feedRun struct {
	sim     *Simulator
	script  []byte
	handles map[int]*Event
	next    int
	budget  int
	log     []firing
}

type firing struct {
	id int
	at Time
}

func (r *feedRun) byteAt(k int) int {
	if len(r.script) == 0 {
		return 0
	}
	n := len(r.script)
	return int(r.script[(k%n+n)%n])
}

// schedule adds one heap event at t.
func (r *feedRun) schedule(t Time) {
	id := r.next
	r.next++
	r.handles[id] = r.sim.At(t, func() { r.fire(id) })
}

// fire logs the event and, per the script, schedules children at the same
// instant or later, cancels an earlier heap event and stops the run.
func (r *feedRun) fire(id int) {
	r.log = append(r.log, firing{id, r.sim.Now()})
	b := r.byteAt(3*id + 7)
	for n := b % 3; n > 0 && r.budget > 0; n-- {
		r.budget--
		delay := Time(0)
		if b&4 != 0 {
			delay = Time(r.byteAt(id+n)%8) * Millisecond
		}
		r.schedule(r.sim.Now() + delay)
	}
	if b&8 != 0 && id >= 0 {
		victim := id - 1 - r.byteAt(id+11)%4
		r.sim.Cancel(r.handles[victim])
	}
	if b&48 == 48 {
		r.sim.Stop()
	}
}

// runFeedScript plays script on a fresh simulator. feed selects whether the
// arrivals go through Feed or through one At call each.
func runFeedScript(script []byte, feed bool) (*feedRun, []firing) {
	r := &feedRun{sim: New(), script: script, handles: make(map[int]*Event), budget: 200}
	k := 0
	next := func() int { v := r.byteAt(k); k++; return v }
	for n := next() % 8; n > 0; n-- {
		r.schedule(Time(next()%20) * Millisecond)
	}
	var ats []Time
	at := Time(next()%5) * Millisecond
	for n := next() % 48; n > 0; n-- {
		at += Time(next()%4) * Millisecond
		ats = append(ats, at)
	}
	arrive := func(i int) { r.fire(-1 - i) }
	if feed {
		r.sim.Feed(ats, arrive)
	} else {
		for i, t := range ats {
			i := i
			r.sim.At(t, func() { arrive(i) })
		}
	}
	for n := next() % 8; n > 0; n-- {
		r.schedule(Time(next()%20) * Millisecond)
	}
	// Each return from Run or RunAll (horizon, Stop or drained) is logged
	// with the clock and what is still pending.
	mark := func() { r.log = append(r.log, firing{id: 1<<30 + r.sim.Pending(), at: r.sim.Now()}) }
	if h := next(); h%4 != 0 {
		r.sim.Run(Time(h%64) * Millisecond)
		mark()
	}
	for r.sim.Pending() > 0 {
		r.sim.RunAll()
		mark()
	}
	return r, r.log
}

// FuzzFeedMatchesAt drives two simulators with one schedule — heap events
// scheduled before and after the arrivals, same-instant ties, children
// scheduled from fired callbacks at the same instant and later, cancels,
// stops and a horizon — one feeding the arrivals and one scheduling each with At. The
// firing order, the instants and EventsFired must be the same.
func FuzzFeedMatchesAt(f *testing.F) {
	f.Add([]byte{3, 0, 0, 5, 0, 12, 0, 0, 1, 0, 2, 0, 7, 4, 1, 13})
	f.Add([]byte{7, 4, 4, 4, 0, 40, 1, 0, 0, 3, 6, 12, 9, 30, 5, 15, 2, 31})
	f.Add([]byte("0020")) // Stop inside Run while only fed events are left
	for seed := int64(1); seed <= 8; seed++ {
		b := make([]byte, 96)
		rand.New(rand.NewSource(seed)).Read(b)
		f.Add(b)
	}
	f.Fuzz(func(t *testing.T, script []byte) {
		if len(script) > 512 {
			script = script[:512]
		}
		fed, got := runFeedScript(script, true)
		ref, want := runFeedScript(script, false)
		if fed.sim.EventsFired() != ref.sim.EventsFired() {
			t.Errorf("EventsFired = %d, At-scheduled %d", fed.sim.EventsFired(), ref.sim.EventsFired())
		}
		if fed.sim.Now() != ref.sim.Now() || fed.sim.Pending() != 0 || ref.sim.Pending() != 0 {
			t.Errorf("now %v / pending %d, At-scheduled now %v / pending %d",
				fed.sim.Now(), fed.sim.Pending(), ref.sim.Now(), ref.sim.Pending())
		}
		if len(got) != len(want) {
			t.Fatalf("%d firings, At-scheduled %d", len(got), len(want))
		}
		for i := range got {
			if got[i] != want[i] {
				t.Fatalf("firing %d = %+v, At-scheduled %+v", i, got[i], want[i])
			}
		}
	})
}
