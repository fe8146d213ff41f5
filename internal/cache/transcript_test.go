package cache_test

import (
	"flag"
	"fmt"
	"math/rand"
	"os"
	"path/filepath"
	"strings"
	"testing"

	"sweb/internal/cache"
	"sweb/internal/des"
	"sweb/internal/model"
)

var updateGolden = flag.Bool("update-golden", false, "rewrite testdata/*.golden from this run")

// transcriptCapacity is small enough that evictions are routine.
const transcriptCapacity = 64 << 10

// transcriptSize gives each of the 40 documents a fixed size from 1 KB to
// 20 KB, so a handful of large entries churn the LRU tail. Document 0 is
// empty and document 1 exceeds the capacity, exercising both refusal
// rules on the same sequence.
func transcriptSize(i int) int64 {
	switch i {
	case 0:
		return 0
	case 1:
		return transcriptCapacity + 1
	default:
		return int64(1+(i*7)%20) << 10
	}
}

// pageCache is one substrate's page cache as its request path drives it:
// serve runs one request's choreography and reports whether it hit; the
// rest is public state.
type pageCache struct {
	serve func(path string, size int64) bool
	stats func() cache.Stats
	hot   func(n int) []string
}

// desPageCache drives a simulated node's page cache the way
// internal/simsrv/request.go does: one counted Lookup per request, which
// touches a hit; a miss is inserted once the read completes.
func desPageCache(t *testing.T) pageCache {
	spec := model.MeikoNodeSpec("transcript")
	spec.FileCacheBytes = transcriptCapacity
	n, err := model.NewNode(des.New(), 0, spec)
	if err != nil {
		t.Fatal(err)
	}
	c := n.Cache
	return pageCache{
		serve: func(path string, size int64) bool {
			if _, hit := c.Lookup(path, nil); hit {
				return true
			}
			c.Insert(path, size, struct{}{})
			return false
		},
		stats: c.Stats,
		hot:   c.Hot,
	}
}

// livePageCache drives the live cache the way internal/httpd/handler.go
// does: one counted Lookup per request; a miss falls through to the quiet
// singleflight Fetch, which fills and inserts.
func livePageCache(t *testing.T) pageCache {
	c := cache.New(transcriptCapacity)
	return pageCache{
		serve: func(path string, size int64) bool {
			if _, ok := c.Lookup(path, nil); ok {
				return true
			}
			if _, err := c.Fetch(path, nil, func() (cache.Entry, error) {
				return cache.Entry{Path: path, Body: make([]byte, size)}, nil
			}); err != nil {
				t.Fatalf("Fetch(%s): %v", path, err)
			}
			return false
		},
		stats: c.Stats,
		hot:   c.Hot,
	}
}

// transcript replays the seeded 2000-request sequence through pc and
// records, per request, the path, hit or miss, the hit, miss and eviction
// counters, the residency and the LRU order (Hot(64), hottest first).
func transcript(pc pageCache) []string {
	rng := rand.New(rand.NewSource(42))
	lines := make([]string, 0, 2000)
	for op := 0; op < 2000; op++ {
		i := rng.Intn(40)
		path := fmt.Sprintf("/d%02d", i)
		outcome := "miss"
		if pc.serve(path, transcriptSize(i)) {
			outcome = "hit"
		}
		st := pc.stats()
		lines = append(lines, fmt.Sprintf("%04d %s %s h=%d m=%d e=%d used=%d files=%d hot=%s",
			op, path, outcome, st.Hits, st.Misses, st.Evictions, st.UsedBytes, st.Files, strings.Join(pc.hot(64), ",")))
	}
	return lines
}

// TestPageCacheTranscriptGolden pins the one replacement policy both
// substrates run: the simulator's and the live server's page-cache
// choreographies, fed the same seeded request sequence, must each
// reproduce testdata/transcript.golden line for line — every hit and
// miss, the counters, the residency and the LRU order after every
// request. Regenerate with -update-golden only for an intended change to
// the policy.
func TestPageCacheTranscriptGolden(t *testing.T) {
	file := filepath.Join("testdata", "transcript.golden")
	if *updateGolden {
		got := strings.Join(transcript(desPageCache(t)), "\n") + "\n"
		if err := os.WriteFile(file, []byte(got), 0o644); err != nil {
			t.Fatal(err)
		}
	}
	raw, err := os.ReadFile(file)
	if err != nil {
		t.Fatal(err)
	}
	want := strings.Split(strings.TrimSuffix(string(raw), "\n"), "\n")
	for name, pc := range map[string]func(*testing.T) pageCache{"des": desPageCache, "live": livePageCache} {
		t.Run(name, func(t *testing.T) {
			got := transcript(pc(t))
			if len(got) != len(want) {
				t.Fatalf("%d requests, golden has %d", len(got), len(want))
			}
			for i := range got {
				if got[i] != want[i] {
					t.Fatalf("request %d diverges:\n got: %s\nwant: %s", i, got[i], want[i])
				}
			}
		})
	}
}
