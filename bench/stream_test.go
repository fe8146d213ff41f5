package main

import (
	"math"
	"testing"
)

func TestStreamIsAFunctionOfTheSeed(t *testing.T) {
	for name, def := range liveDefs {
		a, b, c := def.stream(42), def.stream(42), def.stream(43)
		differ := 0
		for i := 0; i < 5000; i++ {
			if a.At(i) != b.At(i) {
				t.Fatalf("%s: request %d differs between two streams of one seed", name, i)
			}
			if a.At(i) != c.At(i) {
				differ++
			}
		}
		if differ < 1000 {
			t.Errorf("%s: seeds 42 and 43 agree on %d of 5000 requests", name, 5000-differ)
		}
		// Random access: a worker's stride sees what a full walk sees.
		if a.At(4999) != b.At(4999) || a.At(0) != b.At(0) {
			t.Errorf("%s: At is not stateless", name)
		}
	}
}

// The corpus structure must not move with the seed, or every metric would.
func TestCorpusIsFixedAndContentIsSeeded(t *testing.T) {
	docs := liveDefs[wlRedirectSerial].docs()
	if len(docs) != 512 {
		t.Fatalf("%d docs", len(docs))
	}
	sizes := map[int64]bool{}
	var total int64
	for i, d := range docs {
		if d.Size < 100 || d.Size > 256<<10 {
			t.Errorf("doc %d: size %d outside 100 B..256 KiB", i, d.Size)
		}
		if d.Owner != i%2 {
			t.Errorf("doc %d: owner %d", i, d.Owner)
		}
		sizes[d.Size] = true
		total += d.Size
	}
	if len(sizes) < 500 {
		t.Errorf("only %d distinct sizes on the ladder", len(sizes))
	}
	// Log-uniform mean (b-a)/ln(b/a) is about 33 KiB: well above the 4 MiB
	// per-node cache in total, so the workload evicts.
	if mean := float64(total) / 512; mean < 30e3 || mean > 37e3 {
		t.Errorf("mean size %.0f", mean)
	}
	// The eight hottest ranks sample the ladder end to end.
	lo, hi := int64(math.MaxInt64), int64(0)
	for _, d := range docs[:8] {
		lo, hi = min(lo, d.Size), max(hi, d.Size)
	}
	if lo > 200 || hi < 90<<10 {
		t.Errorf("hot ranks span only %d..%d bytes", lo, hi)
	}

	a, b := make([]byte, 1000), make([]byte, 1000)
	if fillBody(a, 1, 3) != fillBody(b, 1, 3) || string(a) != string(b) {
		t.Error("fillBody is not deterministic")
	}
	if fillBody(b, 2, 3) == fillBody(a, 1, 3) || fillBody(b, 1, 4) == fillBody(a, 1, 3) {
		t.Error("fillBody ignores seed or index")
	}
}

func TestStreamShape(t *testing.T) {
	s := liveDefs[wlRedirectSerial].stream(9)
	const n = 20000
	hits := make([]int, len(s.Docs))
	cond := 0
	for i := 0; i < n; i++ {
		r := s.At(i)
		if r.Node == s.Docs[r.Doc].Owner {
			t.Fatalf("request %d for doc %d arrives at its owner: redirect_serial arrives off-owner", i, r.Doc)
		}
		hits[r.Doc]++
		if r.Cond {
			cond++
		}
	}
	// Zipf(1.1) over 512 ranks: rank 0 draws about 1/sum(k^-1.1) = 18%.
	if share := float64(hits[0]) / n; share < 0.15 || share > 0.21 {
		t.Errorf("hottest document drew %.3f of requests", share)
	}
	if hits[0] <= hits[1] || hits[1] <= hits[10] {
		t.Errorf("popularity is not rank-ordered: %v", hits[:12])
	}
	if share := float64(cond) / n; share < 0.09 || share > 0.11 {
		t.Errorf("conditional share %.3f, want 10%%", share)
	}
	if share := s.nonOwnerShare(n); share != 1 {
		t.Errorf("non-owner arrival share %.3f, want 1", share)
	}
	// Uniform workloads keep the rotation, never revalidate and cover the
	// corpus; large_cold picks only what the other node owns, hot_small
	// takes what comes, which is the owner half the time.
	for _, name := range []string{wlHotSmall, wlLargeCold} {
		u := liveDefs[name].stream(9)
		seen := map[int]bool{}
		for i := 0; i < n; i++ {
			r := u.At(i)
			if r.Cond || r.Node != i%2 {
				t.Fatalf("%s request %d: %+v", name, i, r)
			}
			seen[r.Doc] = true
		}
		if len(seen) != len(u.Docs) {
			t.Errorf("%s: uniform picks reached %d of %d documents", name, len(seen), len(u.Docs))
		}
		share := u.nonOwnerShare(n)
		if name == wlLargeCold && share != 1 || name == wlHotSmall && (share < 0.47 || share > 0.53) {
			t.Errorf("%s: non-owner arrival share %.3f", name, share)
		}
	}
}
