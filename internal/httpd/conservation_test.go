package httpd

import (
	"math/rand"
	"strings"
	"sync"
	"testing"
)

// TestConservation: a client request a live node connects ends in one of
// the terminal steps nodeobs.Steps lists (TestStepsEndOnce), or without a
// response, and a live node answers every request it connected unless the
// answer's write fails, a write_failed drop. After a seeded burst in which
// each of four concurrent clients sends every response kind once, in its
// own order and each to either node, each node must count connected =
// sent + redirected + write_failed.
func TestConservation(t *testing.T) {
	srvs, _ := goldenCluster(t, func(*Config) {})
	kinds := goldenKinds()
	rng := rand.New(rand.NewSource(5))
	clients := make([][]responseKind, 4)
	for c := range clients {
		for _, i := range rng.Perm(len(kinds)) {
			k := kinds[i]
			if !strings.Contains(k.raw, internalHeader) && rng.Intn(2) == 1 {
				k.node = 1 - k.node
			}
			clients[c] = append(clients[c], k)
		}
	}
	var wg sync.WaitGroup
	errs := make(chan error, len(clients))
	for _, ks := range clients {
		wg.Add(1)
		go func(ks []responseKind) {
			defer wg.Done()
			for _, k := range ks {
				if _, err := driveKind(srvs, k); err != nil {
					errs <- err
					return
				}
			}
		}(ks)
	}
	wg.Wait()
	close(errs)
	for err := range errs {
		t.Fatal(err)
	}
	var failures, redirects float64
	for i, srv := range srvs {
		c := stepCounts(scrape(t, srv))
		failed := float64(srv.Stats().Drops["write_failed"])
		failures, redirects = failures+failed, redirects+c["event redirected"]
		if c["event connected"] == 0 {
			t.Errorf("node %d connected no request; the burst misses it", i)
		}
		if c["event connected"] != c["event sent"]+c["event redirected"]+failed {
			t.Errorf("node %d: connected %v != sent %v + redirected %v + write_failed %v",
				i, c["event connected"], c["event sent"], c["event redirected"], failed)
		}
	}
	if failures == 0 || redirects == 0 {
		t.Errorf("the burst made %v failed writes and %v redirects; it needs both", failures, redirects)
	}
}
