package core

import (
	"slices"

	"sweb/internal/oracle"
	"sweb/internal/storage"
)

// Facts is what the broker knows about one parsed client request once
// preprocessing is done: the manifest entry, the oracle's estimate, how the
// request arrived and where the document is resident. It feeds the
// request lifecycle's decision spine — Analyze (admission and placement),
// Fetch (where the bytes come from) and Sources (the replicas a fetch
// walks) — which holds every scheduling rule the live server and the
// simulator share; each substrate only executes the answers.
type Facts struct {
	// File is the manifest entry. When Found is false only its Path is set;
	// CGI marks a dynamic endpoint, registered or declared.
	storage.File
	Found bool
	// Pinned marks a method the broker may not move: POST, the paper's
	// footnote-1 extension, is completed where it arrived like CGI.
	Pinned    bool
	Demand    oracle.Demand // the oracle's characterization of the path
	Redirects int           // hops the request has already taken
	// CachedLocal and CachedAt are the residency signals Request carries:
	// the node's own cache, and (simulator only) peers' gossiped digests.
	CachedLocal bool
	CachedAt    []bool
}

// Request builds the broker's view of the request at node self — the one
// place a Request is assembled. Ops keeps the oracle's summation order,
// ((base + per-byte·size) + CGI) + the file's own CGI cost, so the
// estimate's bits do not depend on which substrate asked.
func (f *Facts) Request(self int) Request {
	r := Request{
		Path:          f.Path,
		Size:          f.Size,
		Owner:         f.Owner,
		Replicas:      f.Replicas,
		Ops:           f.Demand.Ops(f.Size) + f.CGIOps,
		DiskBytes:     f.Demand.DiskBytes(f.Size),
		Arrived:       self,
		RedirectCount: f.Redirects,
		PinnedLocal:   f.CGI || f.Pinned,
		CachedLocal:   f.CachedLocal,
		CachedAt:      f.CachedAt,
	}
	if !f.Found {
		r.Owner = self // generated output has no home but here
	}
	return r
}

// Action is what the analyze phase tells the executor to do.
type Action uint8

const (
	NotFound Action = iota // answer 404 where the request arrived; no policy runs
	Serve                  // fulfill the request here
	Redirect               // send the client to Plan.Target
)

// Plan is the analyze phase's answer: the action, the node that fulfills
// the request, and the policy's decision behind it (zero for NotFound).
type Plan struct {
	Action   Action
	Target   int
	Decision Decision
}

// Analyze is the broker's analyze phase at node self. A document that does
// not exist is NotFound before any policy runs, so it records no
// prediction. Everything else — CGI and pinned methods included, which the
// policy keeps local — gets one decision over one load snapshot: a target
// other than self is a Redirect only while its row is available, and any
// other answer is served here. There is no second look at the table: the
// snapshot already applied the staleness and failure rules.
func Analyze(p Policy, f *Facts, self int, loads []NodeLoad) Plan {
	if !f.Found && !f.CGI {
		return Plan{Action: NotFound, Target: self}
	}
	d := p.Choose(f.Request(self), self, loads)
	t := d.Target
	if t == self || t < 0 || t >= len(loads) || !loads[t].Available {
		return Plan{Action: Serve, Target: self, Decision: d}
	}
	return Plan{Action: Redirect, Target: t, Decision: d}
}

// Fetch names where a served request's bytes come from.
type Fetch uint8

const (
	FetchDisk  Fetch = iota // read the node's own replica
	FetchCache              // answer from the node's memory cache
	FetchPeer               // pull the document from another replica (the NFS path)
	FetchCGI                // run the program; there is no document to fetch
)

// Fetch classifies fulfillment at node self: a program runs, a cache hit
// is a memory copy whoever owns the document, a replica reads its disk,
// and anything else is fetched from a peer.
func (f *Facts) Fetch(self int, cacheHit bool) Fetch {
	switch {
	case f.CGI:
		return FetchCGI
	case cacheHit:
		return FetchCache
	case f.HasReplica(self):
		return FetchDisk
	}
	return FetchPeer
}

// Sources orders the document's other replicas cheapest-first for a fetch
// at self — the failover list a FetchPeer walks (RankSources with self
// removed). Cache digests steer placement only: the fetch order prices
// where the bytes sit on disk and across the interconnect.
func (f *Facts) Sources(self int, loads []NodeLoad) []int {
	r := f.Request(self)
	r.CachedAt = nil
	return slices.DeleteFunc(RankSources(r, self, self, loads), func(n int) bool { return n == self })
}
