package cache_test

import (
	"errors"
	"sync"
	"testing"
	"time"

	"sweb/internal/cache"
)

// TestSingleflightStampede aims N concurrent misses for one path at the
// cache and demands exactly one backing read: the first caller fills,
// every latecomer blocks on the flight and shares the result.
func TestSingleflightStampede(t *testing.T) {
	const waiters = 32
	c := cache.New(1 << 20)

	fills := 0
	entered := make(chan struct{})
	release := make(chan struct{})
	fill := func() (cache.Entry, error) {
		fills++ // no mutex: a second concurrent fill is the bug under test
		close(entered)
		<-release
		return cache.Entry{Path: "/hot", Body: []byte("payload")}, nil
	}

	var wg sync.WaitGroup
	results := make([]cache.Entry, waiters)
	errs := make([]error, waiters)
	wg.Add(1)
	go func() {
		defer wg.Done()
		results[0], errs[0] = c.Fetch("/hot", nil, fill)
	}()
	<-entered // the leader is inside fill; the path has an open flight
	for i := 1; i < waiters; i++ {
		i := i
		wg.Add(1)
		go func() {
			defer wg.Done()
			results[i], errs[i] = c.Fetch("/hot", nil, func() (cache.Entry, error) {
				t.Error("latecomer ran its own backing read")
				return cache.Entry{}, errors.New("stampede")
			})
		}()
	}
	// Wait until every latecomer has joined the flight, then let the
	// leader finish.
	deadline := time.Now().Add(5 * time.Second)
	for c.Stats().SingleflightShared < waiters-1 {
		if time.Now().After(deadline) {
			t.Fatalf("only %d of %d latecomers joined the flight", c.Stats().SingleflightShared, waiters-1)
		}
		time.Sleep(time.Millisecond)
	}
	close(release)
	wg.Wait()

	if fills != 1 {
		t.Fatalf("backing read ran %d times, want 1", fills)
	}
	for i := range results {
		if errs[i] != nil {
			t.Fatalf("waiter %d: %v", i, errs[i])
		}
		if string(results[i].Body) != "payload" {
			t.Fatalf("waiter %d got body %q", i, results[i].Body)
		}
	}
	st := c.Stats()
	if st.SingleflightShared != waiters-1 {
		t.Errorf("SingleflightShared = %d, want %d", st.SingleflightShared, waiters-1)
	}
	if !c.Peek("/hot") {
		t.Error("filled entry not resident after the flight")
	}
}

// TestFetchErrorNotCached verifies a failed fill reaches every waiter and
// leaves nothing resident, so the next request retries the backing read.
func TestFetchErrorNotCached(t *testing.T) {
	c := cache.New(1 << 20)
	boom := errors.New("disk gone")
	if _, err := c.Fetch("/a", nil, func() (cache.Entry, error) { return cache.Entry{}, boom }); err != boom {
		t.Fatalf("err = %v, want %v", err, boom)
	}
	if c.Peek("/a") {
		t.Fatal("failed fill left an entry resident")
	}
	if _, ok := c.Lookup("/a", nil); ok {
		t.Fatal("failed fill satisfied a later lookup")
	}
}

// TestStaleEntryInvalidated verifies the validator contract: a resident
// entry the check rejects is removed atomically and the lookup misses, so
// a mutated document can never be served from memory.
func TestStaleEntryInvalidated(t *testing.T) {
	c := cache.New(1 << 20)
	c.Insert(cache.Entry{Path: "/f", Body: []byte("old")})
	stale := func(cache.Entry) bool { return false }
	if _, ok := c.Lookup("/f", stale); ok {
		t.Fatal("stale entry served as a hit")
	}
	if c.Peek("/f") {
		t.Fatal("stale entry still resident after the rejecting lookup")
	}
	// Fetch's quiet lookup applies the same validator: the fill refreshes
	// the bytes.
	c.Insert(cache.Entry{Path: "/f", Body: []byte("old")})
	ent, err := c.Fetch("/f", stale, func() (cache.Entry, error) {
		return cache.Entry{Path: "/f", Body: []byte("new")}, nil
	})
	if err != nil || string(ent.Body) != "new" {
		t.Fatalf("Fetch after staleness = %q, %v; want refreshed bytes", ent.Body, err)
	}
}

// TestRefusalRules checks the Index's insert refusals through the live
// wrapper: empty bodies and bodies larger than the capacity are never
// cached, a zero-capacity cache stores nothing, and Admits (nil-safe)
// states the same rule.
func TestRefusalRules(t *testing.T) {
	c := cache.New(10)
	c.Insert(cache.Entry{Path: "/empty"})
	c.Insert(cache.Entry{Path: "/huge", Body: make([]byte, 11)})
	if c.Peek("/empty") || c.Peek("/huge") {
		t.Fatal("refused entry became resident")
	}
	off := cache.New(0)
	off.Insert(cache.Entry{Path: "/x", Body: []byte("y")})
	if off.Peek("/x") {
		t.Fatal("zero-capacity cache stored an entry")
	}
	if _, err := off.Fetch("/x", nil, func() (cache.Entry, error) {
		return cache.Entry{Path: "/x", Body: []byte("y")}, nil
	}); err != nil {
		t.Fatalf("zero-capacity Fetch: %v", err)
	}
	if off.Peek("/x") {
		t.Fatal("zero-capacity cache stored a fill")
	}
	for _, a := range []struct {
		name string
		c    *cache.Cache
		size int64
		want bool
	}{
		{"empty", c, 0, false},
		{"exact fit", c, 10, true},
		{"over capacity", c, 11, false},
		{"zero capacity", off, 1, false},
		{"nil cache", nil, 1, false},
	} {
		if got := a.c.Admits(a.size); got != a.want {
			t.Errorf("%s: Admits(%d) = %v, want %v", a.name, a.size, got, a.want)
		}
	}
}
