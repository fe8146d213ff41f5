// Package core implements the paper's primary contribution: SWEB's
// multi-faceted scheduling algorithm (Sec. 3.2). Given a parsed HTTP
// request and each node's last-known CPU, disk, and network loads, the
// broker estimates for every available node the completion time
//
//	t_s = t_redirection + t_data + t_CPU + t_net
//
// and routes the request to the node with the minimum estimate, redirecting
// at most once to prevent the ping-pong effect. The package also implements
// the comparison policies from Sec. 4.2 — NCSA-style round-robin (serve
// wherever DNS sent the request), pure file locality (always serve at the
// file's owner), and a single-faceted CPU-only balancer — plus facet toggles
// used by the ablation benchmarks.
//
// The package is substrate-independent: all quantities are plain float64
// seconds and work units, so the identical scheduler runs inside the
// discrete-event simulator and the live TCP server.
package core

import (
	"fmt"
	"math"
	"sort"

	"sweb/internal/storage"
)

// NodeLoad is one row of the broker's view of the cluster, assembled by
// loadd from periodic broadcasts.
type NodeLoad struct {
	// Available is false if the node has not broadcast within the loadd
	// timeout ("marking those processors which have not responded in a
	// preset period of time as unavailable").
	Available bool

	// CPULoad is the runnable-job count (Unix load average style),
	// including any Δ anti-herd bump applied locally after redirecting to
	// this node.
	CPULoad float64
	// DiskLoad is the number of outstanding requests on the node's disk
	// channel.
	DiskLoad float64
	// NetLoad is the number of active transfers on the node's
	// interconnect attachment.
	NetLoad float64

	// Static capabilities, from the architecture configuration file.
	CPUOpsPerSec    float64 // "CPU_speed"
	DiskBytesPerSec float64 // b_disk (b1)
	NetBytesPerSec  float64 // b_net for remote fetches (b2 before penalty)
}

// Request is the broker's view of a parsed HTTP request after the
// preprocessing phase: the pathname is complete, permissions are checked,
// the document is known to exist, and the oracle has characterized it.
type Request struct {
	Path string
	// Size is the response size in bytes.
	Size int64
	// Owner is the node whose local disk holds the document.
	Owner int
	// Replicas is the document's full replica set (primary owner first).
	// Nil means the single-owner layout; the cost model then falls back to
	// Owner alone, preserving the pre-replication behavior bit for bit.
	Replicas []int
	// Ops is the oracle's CPU estimate: fork + read handling + marshaling
	// + any CGI computation.
	Ops float64
	// DiskBytes is the oracle's disk-traffic estimate.
	DiskBytes float64
	// Arrived is the node DNS routed the request to.
	Arrived int
	// RedirectCount is how many times the request has already been
	// redirected. Once it reaches Params.MaxRedirects the request must be
	// completed locally (the paper's no-ping-pong rule, with the default
	// MaxRedirects of 1).
	RedirectCount int
	// CGI requests, non-GET methods, and error responses are always
	// completed where they arrived (Sec. 3.2 step 2).
	PinnedLocal bool
	// CachedLocal reports that the broker's own node already holds the
	// document in its page/NFS-client cache, so serving locally skips the
	// disk and the interconnect entirely. A broker only knows its own
	// cache; remote candidates are estimated pessimistically unless
	// CachedAt says otherwise.
	CachedLocal bool
	// CachedAt, when non-nil, marks peers whose last cooperative-caching
	// digest advertised this document (indexed by node id). A hinted peer
	// serves from memory: its t_data estimate drops to zero.
	CachedAt []bool
}

// cachedAt reports whether the document is believed resident at node.
func (r Request) cachedAt(node, local int) bool {
	if node == local && r.CachedLocal {
		return true
	}
	return r.CachedAt != nil && node >= 0 && node < len(r.CachedAt) && r.CachedAt[node]
}

// file is the document's placement in the manifest's terms, whose
// ReplicaSet and HasReplica the cost model prices.
func (r Request) file() storage.File { return storage.File{Owner: r.Owner, Replicas: r.Replicas} }

// Params are the scheduler's tunables, with paper defaults from
// DefaultParams.
type Params struct {
	// Delta is the conservative CPU-load bump applied to a peer after
	// redirecting a request to it, decayed when the next broadcast
	// arrives. The paper uses Δ = 30%.
	Delta float64
	// RedirectCPUSeconds is O, the server-side cost to generate a
	// redirection response (4 ms in Table 5).
	RedirectCPUSeconds float64
	// ClientLatencySeconds is the estimated one-way client↔server
	// latency; a redirection costs two of these ("a very short reply
	// going back to the client browser, who then automatically issues
	// another request").
	ClientLatencySeconds float64
	// ConnectSeconds is t_connect, the server connection setup time.
	ConnectSeconds float64
	// RemotePenalty is the measured remote-vs-local fetch slowdown (≈1.1
	// on the Meiko, 1.5–1.7 on Ethernet). The substrate divides the raw
	// network rate by it to advertise b2; the cost model then uses b2
	// directly.
	RemotePenalty float64
	// MaxRedirects caps redirections per request; the paper fixes 1.
	MaxRedirects int
	// RedirectAdvantage is the conservatism threshold for leaving the
	// local node: a redirect is issued only when the best remote estimate
	// is below RedirectAdvantage × the local estimate. Like the Δ bump,
	// it guards against acting on stale broadcasts — a marginal predicted
	// win is noise, not signal, when load information is seconds old.
	// 1.0 disables the margin; the default 0.7 requires a 30% predicted
	// improvement, mirroring Δ's 30% conservatism.
	RedirectAdvantage float64

	// Facet toggles for the ablation study. All true for SWEB proper.
	UseCPUFacet  bool
	UseDiskFacet bool
	UseNetFacet  bool
}

// DefaultParams returns the paper's calibration.
func DefaultParams() Params {
	return Params{
		Delta:                0.30,
		RedirectCPUSeconds:   0.004,
		ClientLatencySeconds: 0.002,
		ConnectSeconds:       0.003,
		RemotePenalty:        1.1,
		MaxRedirects:         1,
		RedirectAdvantage:    0.7,
		UseCPUFacet:          true,
		UseDiskFacet:         true,
		UseNetFacet:          true,
	}
}

// Validate reports an error for out-of-range parameters.
func (p Params) Validate() error {
	switch {
	case p.Delta < 0:
		return fmt.Errorf("core: Delta must be >= 0")
	case p.RedirectCPUSeconds < 0 || p.ClientLatencySeconds < 0 || p.ConnectSeconds < 0:
		return fmt.Errorf("core: cost terms must be >= 0")
	case p.RemotePenalty < 1:
		return fmt.Errorf("core: RemotePenalty must be >= 1")
	case p.MaxRedirects < 0:
		return fmt.Errorf("core: MaxRedirects must be >= 0")
	case p.RedirectAdvantage <= 0 || p.RedirectAdvantage > 1:
		return fmt.Errorf("core: RedirectAdvantage must be in (0,1]")
	}
	return nil
}

// CostBreakdown itemizes one candidate node's estimate, mirroring the
// paper's formula term by term; a flight record carries one per node.
type CostBreakdown struct {
	Node     int     `json:"node"`
	Redirect float64 `json:"redirect_seconds"` // t_redirection
	Data     float64 `json:"data_seconds"`     // t_data
	CPU      float64 `json:"cpu_seconds"`      // t_CPU
	Net      float64 `json:"net_seconds"`      // t_net: server-attachment egress share (see EstimateCost)
	// Source is the replica node the data term assumed the bytes come
	// from: the candidate itself when it holds a copy (or a cache hit),
	// otherwise the cheapest replica of the document's set.
	Source     int     `json:"source_node"`
	Total      float64 `json:"total_seconds"` // +Inf when infeasible
	Infeasible bool    `json:"infeasible"`    // node unavailable
}

// Decision is the broker's choice for one request.
type Decision struct {
	// Target is the node that should fulfill the request.
	Target int
	// Estimate is the predicted completion time at Target, seconds; a
	// policy that predicts nothing leaves it 0 (see Predicted).
	Estimate float64
	// Candidates holds the per-node breakdowns (index = node id), for
	// instrumentation and tests.
	Candidates []CostBreakdown
}

// Predicted is the decision's t_s estimate, or -1 when the broker
// predicted nothing: only a finite estimate > 0 is a prediction. It is the
// one rule the flight record and the scoring of predictions apply.
func (d Decision) Predicted() float64 {
	if d.Estimate > 0 && !math.IsInf(d.Estimate, 1) {
		return d.Estimate
	}
	return -1
}

// Policy decides where a request should be served. local is the node
// executing the broker; loads[i] describes node i.
type Policy interface {
	// Name identifies the policy in reports ("SWEB", "Round Robin", ...).
	Name() string
	// Choose returns the decision. Implementations must return a target
	// equal to local when the request is pinned or already redirected.
	Choose(req Request, local int, loads []NodeLoad) Decision
}

// mustServeLocally reports whether scheduling is moot for this request.
func mustServeLocally(req Request, p Params) bool {
	return req.PinnedLocal || req.RedirectCount >= p.MaxRedirects
}

// SWEB is the multi-faceted scheduler.
type SWEB struct {
	P Params
}

// NewSWEB returns the paper's scheduler with the given parameters.
func NewSWEB(p Params) *SWEB { return &SWEB{P: p} }

// Name implements Policy.
func (s *SWEB) Name() string { return "SWEB" }

// EstimateCost computes the cost formula for serving req at node target
// given the load table. Exported so tests and the analytic comparisons can
// probe individual terms.
func (s *SWEB) EstimateCost(req Request, local, target int, loads []NodeLoad) CostBreakdown {
	cb := CostBreakdown{Node: target, Source: target}
	ld := loads[target]
	if !ld.Available {
		cb.Infeasible = true
		cb.Total = math.Inf(1)
		return cb
	}

	// t_redirection: zero if the task is already local to the target,
	// else two client-server latencies plus a connection setup.
	if target != local {
		cb.Redirect = 2*s.P.ClientLatencySeconds + s.P.ConnectSeconds + s.P.RedirectCPUSeconds
	}

	// t_data: local disk at load-degraded bandwidth, or the minimum of the
	// owner's disk channel and the interconnect path for remote files.
	if s.P.UseDiskFacet || s.P.UseNetFacet {
		diskLoad := func(n NodeLoad) float64 {
			if !s.P.UseDiskFacet {
				return 0
			}
			return n.DiskLoad
		}
		netLoad := func(n NodeLoad) float64 {
			if !s.P.UseNetFacet {
				return 0
			}
			return n.NetLoad
		}
		cb.Data, cb.Source = dataSeconds(req, local, target, loads, diskLoad, netLoad)
	}

	// t_CPU: estimated operations over the load-degraded CPU speed.
	if s.P.UseCPUFacet {
		speed := ld.CPUOpsPerSec / (1 + ld.CPULoad)
		cb.CPU = req.Ops / speed
	}

	// t_net: the paper skips this term, assuming "all processors will
	// have basically the same cost" because the Internet path dominates.
	// On the simulated substrate the per-node attachment link is both
	// measurable and unequal (it also carries NFS traffic), so the broker
	// estimates the egress share — without it, every broker happily
	// redirects hot-file requests to an owner whose link is saturated
	// with client sends. Disabled with the net facet for the ablation.
	if s.P.UseNetFacet {
		bn := ld.NetBytesPerSec / (1 + ld.NetLoad)
		cb.Net = float64(req.Size) / bn
	}

	cb.Total = cb.Redirect + cb.Data + cb.CPU + cb.Net
	return cb
}

// dataSeconds prices the t_data term for serving req at target and names
// the replica the bytes would come from. A target holding a replica (or a
// cache-resident copy) reads locally; a remote target prices every
// replica of the document's set and fetches from the cheapest — a
// cache-resident source skips its disk, leaving only the interconnect
// path, exactly as the single-owner model priced a cached owner. Replicas
// marked unavailable are priced only as a last resort, so a dead source
// never outranks a live one. diskLoad and netLoad are the caller's
// facet-ablation views of the load vector.
func dataSeconds(req Request, local, target int, loads []NodeLoad,
	diskLoad, netLoad func(NodeLoad) float64) (float64, int) {
	ld := loads[target]
	switch {
	case req.cachedAt(target, local):
		// Page-cache hit (own cache, or a peer's gossiped digest):
		// a memory copy, effectively free next to the disk and
		// network terms.
		return 0, target
	case req.file().HasReplica(target):
		bd := ld.DiskBytesPerSec / (1 + diskLoad(ld))
		return req.DiskBytes / bd, target
	}
	best, bestRep := math.Inf(1), -1
	for pass := 0; pass < 2 && bestRep < 0; pass++ {
		for _, rep := range req.file().ReplicaSet() {
			if rep < 0 || rep >= len(loads) || rep == target {
				continue
			}
			if pass == 0 && !loads[rep].Available {
				continue
			}
			if sec := sourceSeconds(req, local, target, rep, loads, diskLoad, netLoad); sec < best {
				best, bestRep = sec, rep
			}
		}
	}
	if bestRep < 0 {
		// No remote source at all (the set reduced to the target, or every
		// replica is out of range): price the local disk.
		bd := ld.DiskBytesPerSec / (1 + diskLoad(ld))
		return req.DiskBytes / bd, target
	}
	return best, bestRep
}

// sourceSeconds prices one remote fetch: req's bytes pulled from replica
// rep for service at target. b2 — the advertised NetBytesPerSec — already
// folds in the NFS protocol penalty, exactly as the paper's measured b2
// does.
func sourceSeconds(req Request, local, target, rep int, loads []NodeLoad,
	diskLoad, netLoad func(NodeLoad) float64) float64 {
	ld := loads[target]
	bn := ld.NetBytesPerSec / (1 + netLoad(ld))
	if req.cachedAt(rep, local) {
		// The source holds the document in memory: its NFS answer skips
		// the disk, leaving only the interconnect path.
		return req.DiskBytes / bn
	}
	src := loads[rep]
	bd := src.DiskBytesPerSec / (1 + diskLoad(src))
	return req.DiskBytes / math.Min(bd, bn)
}

// identityDisk and identityNet are the facet-free load views RankSources
// uses: failover order is about where the bytes physically are, not about
// the scheduler ablation under test.
func identityDisk(n NodeLoad) float64 { return n.DiskLoad }
func identityNet(n NodeLoad) float64  { return n.NetLoad }

// RankSources orders req's replica set cheapest-first for service at
// target — the fetch-failover order both substrates walk: the first
// source gets the internal fetch, and when it dies mid-budget the relay
// fails over down the list. The target itself leads when it holds a
// replica (a local copy beats any interconnect path); available replicas
// follow, priced by the same disk-vs-interconnect minimum EstimateCost
// uses; unavailable replicas trail in set order as the last resort.
func RankSources(req Request, local, target int, loads []NodeLoad) []int {
	type cand struct {
		node int
		sec  float64
		up   bool
		idx  int
	}
	reps := req.file().ReplicaSet()
	cands := make([]cand, 0, len(reps))
	for i, rep := range reps {
		if rep < 0 || rep >= len(loads) {
			continue
		}
		c := cand{node: rep, idx: i, up: loads[rep].Available}
		if rep == target {
			c.sec, c.up = 0, true
		} else {
			c.sec = sourceSeconds(req, local, target, rep, loads, identityDisk, identityNet)
		}
		cands = append(cands, c)
	}
	sort.SliceStable(cands, func(a, b int) bool {
		ca, cb := cands[a], cands[b]
		if ca.up != cb.up {
			return ca.up
		}
		if ca.sec != cb.sec {
			return ca.sec < cb.sec
		}
		return ca.idx < cb.idx
	})
	out := make([]int, len(cands))
	for i, c := range cands {
		out[i] = c.node
	}
	return out
}

// Choose implements Policy: minimum estimated completion time, with ties
// broken in favor of the local node (avoiding a pointless redirection) and
// then the lowest node id.
func (s *SWEB) Choose(req Request, local int, loads []NodeLoad) Decision {
	return s.ChooseInto(req, local, loads, nil)
}

// ChooseInto is Choose with the decision's cost table written into cands
// when it has room for one row per node (every row overwritten), into a
// new table otherwise — a serve loop's per-connection scratch, so placing
// a request allocates nothing. The table is the caller's until it reuses
// cands.
func (s *SWEB) ChooseInto(req Request, local int, loads []NodeLoad, cands []CostBreakdown) Decision {
	if mustServeLocally(req, s.P) {
		return Decision{Target: local, Estimate: s.EstimateCost(req, local, local, loads).Total}
	}
	if cap(cands) < len(loads) {
		cands = make([]CostBreakdown, len(loads))
	}
	d := Decision{Target: local, Estimate: math.Inf(1), Candidates: cands[:len(loads)]}
	best := math.Inf(1)
	bestNode := local
	for i := range loads {
		cb := s.EstimateCost(req, local, i, loads)
		d.Candidates[i] = cb
		if cb.Infeasible {
			continue
		}
		better := cb.Total < best-1e-12
		tie := math.Abs(cb.Total-best) <= 1e-12
		if better || (tie && i == local && bestNode != local) {
			best = cb.Total
			bestNode = i
		}
	}
	if math.IsInf(best, 1) {
		// Every peer looks dead; serve locally rather than dropping.
		return Decision{Target: local, Estimate: best, Candidates: d.Candidates}
	}
	// Apply the redirect-advantage margin: leave home only for a clear win.
	if bestNode != local {
		localTotal := d.Candidates[local].Total
		if !d.Candidates[local].Infeasible && best >= s.P.RedirectAdvantage*localTotal {
			bestNode = local
			best = localTotal
		}
	}
	d.Target = bestNode
	d.Estimate = best
	return d
}

// Policy names, as configs and command lines spell them.
const (
	PolicySWEB         = "sweb"
	PolicyRoundRobin   = "rr"
	PolicyFileLocality = "fl"
	PolicyCPUOnly      = "cpu"
)

// NewPolicy builds the named policy over p; the empty name is SWEB. The
// policies hold no per-request state, so one value may serve every node.
func NewPolicy(name string, p Params) (Policy, error) {
	switch name {
	case "", PolicySWEB:
		return NewSWEB(p), nil
	case PolicyRoundRobin:
		return RoundRobin{}, nil
	case PolicyFileLocality:
		return FileLocality{P: p}, nil
	case PolicyCPUOnly:
		return CPUOnly{P: p}, nil
	}
	return nil, fmt.Errorf("unknown policy %q", name)
}

// RoundRobin is the NCSA baseline: the DNS rotation is the whole policy, so
// every request is served where it arrived. Like every baseline, it
// predicts nothing.
type RoundRobin struct{}

// Name implements Policy.
func (RoundRobin) Name() string { return "Round Robin" }

// Choose implements Policy.
func (RoundRobin) Choose(req Request, local int, loads []NodeLoad) Decision {
	return Decision{Target: local}
}

// FileLocality always routes to the node owning the requested file,
// "purely exploit[ing] the file locality", regardless of load. If the owner
// looks unavailable the request is served locally.
type FileLocality struct {
	P Params
}

// Name implements Policy.
func (FileLocality) Name() string { return "File Locality" }

// Choose implements Policy.
func (f FileLocality) Choose(req Request, local int, loads []NodeLoad) Decision {
	if mustServeLocally(req, f.P) {
		return Decision{Target: local}
	}
	owner := req.Owner
	if owner < 0 || owner >= len(loads) || !loads[owner].Available {
		return Decision{Target: local}
	}
	return Decision{Target: owner}
}

// CPUOnly is the single-faceted baseline from the load-balancing literature
// the paper contrasts against: "the criteria for task migration are based on
// a single system parameter, i.e., the CPU load".
type CPUOnly struct {
	P Params
}

// Name implements Policy.
func (CPUOnly) Name() string { return "CPU Only" }

// Choose implements Policy: pick the available node with the lowest CPU
// load, preferring local on ties. A queue length is not a time, so the
// decision carries no estimate.
func (c CPUOnly) Choose(req Request, local int, loads []NodeLoad) Decision {
	if mustServeLocally(req, c.P) {
		return Decision{Target: local}
	}
	best := math.Inf(1)
	bestNode := -1
	for i, ld := range loads {
		if !ld.Available {
			continue
		}
		switch {
		case ld.CPULoad < best-1e-12:
			best = ld.CPULoad
			bestNode = i
		case math.Abs(ld.CPULoad-best) <= 1e-12 && i == local:
			bestNode = i // prefer local on ties: no pointless redirect
		}
	}
	if bestNode < 0 {
		return Decision{Target: local}
	}
	return Decision{Target: bestNode}
}
