package simsrv

import (
	"fmt"
	"math"

	"sweb/internal/core"
	"sweb/internal/des"
	"sweb/internal/model"
	"sweb/internal/nodeobs"
	"sweb/internal/stats"
	"sweb/internal/trace"
)

// request carries one HTTP request through the four-phase lifecycle. Its
// Facts are what the broker knows — the manifest entry (Path always set),
// the oracle's demand, the hop count and, refreshed by each node that
// analyzes it, the residency signals; the rest is executor state.
//
// The executor is a step machine: a request has at most one callback in
// flight, always next (step, bound once when the request is issued), and
// stage says where step resumes. Every CPU job, disk job, transfer and
// delay a request arms calls next, so arming a step allocates nothing.
type request struct {
	core.Facts
	domain string

	c     *Cluster
	next  func() // step, bound once
	stage stage  // where next resumes
	// node is where the request last arrived: where a refusal is
	// attributed and, once admitted, the node that answers the client.
	node int

	issued   des.Time
	mark     des.Time // start of the current phase
	servedBy int
	tid      int64 // trace request id (-1 when tracing is off)
	ph       stats.PhaseBreakdown

	// plan is the spine's answer at the node that last analyzed the
	// request; fetch is how the serving node obtained the bytes.
	plan  core.Plan
	fetch core.Fetch

	// The response body, streamed a chunk at a time from off. source is
	// the node the bytes come from — node itself, the NFS peer, or the
	// worker a forwarded request is relayed from — and srcCached whether
	// its page cache holds them. pin bytes of buffer stay pinned at node,
	// and at the worker when relaying, until the server side finishes.
	body      bodyKind
	bodyLen   int64
	off       int64
	chunk     int64
	last      bool
	source    int
	srcCached bool
	pin       int64

	// Flight-recorder state: the connection id and when the first
	// response byte left the server.
	id      int64
	ttfbAt  des.Time
	hasTTFB bool
}

// stage names the step a request's armed callback resumes at.
type stage uint8

const (
	stConnected  stage = iota // the client's connection is set up
	stParsed                  // preprocessing CPU done
	stAnalyzed                // cost-estimation CPU done
	stRedirected              // the 302 is generated
	stHopped                  // the client followed the Location
	stForwarded               // forwarding CPU done
	stOpened                  // static handler set up
	stForked                  // CGI handler set up
	stGenerated               // CGI output or error page generated
	stFetched                 // chunk read off the NFS source's disk
	stInMemory                // chunk in the serving node's memory
	stWorkerRead              // relayed chunk in the worker's memory
	stWorkerSent              // relayed chunk processed by the worker
	stRelayed                 // relayed chunk arrived at the proxy
	stPump                    // start the chunk at off
	stPacketized              // chunk processed for the client link
	stSent                    // chunk left the server site
	stDelivered               // last byte reached the client
)

// bodyKind is where a response body's chunks come from.
type bodyKind uint8

const (
	bodyGenerated bodyKind = iota // made in memory: CGI output, error pages
	bodyFile                      // a static file, read at the serving node
	bodyRelay                     // read at a worker, relayed by the proxy
)

const errorResponseBytes = 512 // a 404 body plus headers

// noop is the delivery callback of every chunk but a body's last: the
// client receiving it changes nothing, but the event still fires.
func noop() {}

// arm records the stage the request resumes at and returns its
// continuation, for the one callback the request is about to put in
// flight.
func (rs *request) arm(s stage) func() {
	rs.stage = s
	return rs.next
}

// step resumes the request when its armed callback fires.
func (rs *request) step() {
	c, x := rs.c, rs.node
	switch rs.stage {
	case stConnected:
		rs.ph.Network += (c.Sim.Now() - rs.mark).ToSeconds()
		c.arrive(rs, x)
	case stParsed:
		d := (c.Sim.Now() - rs.mark).ToSeconds()
		rs.ph.Preprocess += d
		c.trace(rs, trace.EvParsed, x, "")
		c.obs[x].Event(trace.EvParsed)
		c.obs[x].Phase("parse", d)
		// The broker's cost estimation, then the decision.
		rs.mark = c.Sim.Now()
		c.nodes[x].CPUWork(model.ActSchedule, c.cfg.AnalysisOps, rs.arm(stAnalyzed))
	case stAnalyzed:
		d := (c.Sim.Now() - rs.mark).ToSeconds()
		rs.ph.Analysis += d
		c.obs[x].Phase("analyze", d)
		c.decide(rs, x)
	case stRedirected:
		c.redirected(rs, x)
	case stHopped:
		target := rs.plan.Target
		rs.ph.Redirect += (c.Sim.Now() - rs.mark).ToSeconds()
		if c.up[target] {
			// The hop is measured where the redirected connection
			// lands, matching the live redirect_hop cell.
			c.obs[target].Phase("redirect_hop", c.connectTime().ToSeconds())
		}
		c.arrive(rs, target)
	case stForwarded:
		c.forwarded(rs, x)
	case stOpened:
		c.streamFile(rs, x)
	case stForked:
		c.nodes[x].CPUWork(model.ActCGI, rs.CGIOps+rs.Demand.CGIOps, rs.arm(stGenerated))
	case stGenerated:
		// Generated bytes are streamed straight from memory.
		rs.body, rs.pin = bodyGenerated, rs.bodyLen
		c.nodes[x].Pin(rs.pin)
		c.pump(rs)
	case stFetched:
		c.net.InternalTransfer(rs.source, x, rs.chunk, rs.arm(stInMemory))
	case stInMemory:
		node := c.nodes[x]
		if rs.last && rs.fetch != core.FetchCache {
			// The whole file has now passed through memory; it lands
			// in the serving node's page cache, and on a remote read
			// the source's NFS server cached it too.
			node.Cache.Insert(rs.Path, rs.Size)
			if rs.fetch == core.FetchPeer && !rs.srcCached {
				c.nodes[rs.source].Cache.Insert(rs.Path, rs.Size)
			}
		}
		node.CPUWork(model.ActFulfill, rs.Demand.OpsPerByte*float64(rs.chunk), rs.arm(stPacketized))
	case stWorkerRead:
		worker := c.nodes[rs.source]
		if rs.last && rs.fetch != core.FetchCache {
			worker.Cache.Insert(rs.Path, rs.Size)
		}
		worker.CPUWork(model.ActFulfill, rs.Demand.OpsPerByte*float64(rs.chunk), rs.arm(stWorkerSent))
	case stWorkerSent:
		c.net.InternalTransfer(rs.source, x, rs.chunk, rs.arm(stRelayed))
	case stRelayed:
		const relayOpsPerByte = 0.06 // proxy-side copy between sockets
		c.nodes[x].CPUWork(model.ActFulfill, relayOpsPerByte*float64(rs.chunk), rs.arm(stPacketized))
	case stPump:
		c.pump(rs)
	case stPacketized:
		c.send(rs)
	case stSent:
		if !rs.last {
			rs.off += rs.chunk
			c.pump(rs)
			return
		}
		c.finishServerSide(rs)
		rs.stage = stDelivered
	case stDelivered:
		c.complete(rs)
	}
}

// arrive runs the accept path at node x: the connection is refused if the
// node is down or its accept capacity (process table + listen backlog) is
// exhausted; otherwise the request enters preprocessing.
func (c *Cluster) arrive(rs *request, x int) {
	rs.node = x
	if !c.up[x] {
		c.trace(rs, trace.EvRefused, x, "node down")
		c.drop(rs, stats.DropUnavailable)
		return
	}
	if c.inflight[x] >= c.cfg.Specs[x].AcceptQueue {
		c.trace(rs, trace.EvRefused, x, "accept capacity")
		c.obs[x].Event(trace.EvRefused)
		c.obs[x].Drop("refused")
		c.drop(rs, stats.DropRefused)
		return
	}
	c.inflight[x]++
	c.trace(rs, trace.EvConnected, x, "")
	c.obs[x].Event(trace.EvConnected)
	rs.mark = c.Sim.Now()
	// "The server parses the HTTP commands, and completes the pathname
	// given, determining appropriate permissions along the way."
	c.nodes[x].CPUWork(model.ActParse, c.cfg.PreprocessOps, rs.arm(stParsed))
}

// loadsAt renders node x's view of the cluster's load into the cluster's
// scratch rows, its own row measured live: a node knows its own load
// precisely. The rows hold until the next call; the DES is single-threaded
// and no decision keeps them.
func (c *Cluster) loadsAt(x int) []core.NodeLoad {
	c.loads = c.tables[x].SnapshotInto(c.loads, len(c.nodes), c.nowSec())
	c.loads[x] = c.liveRow(x)
	return c.loads
}

// decide asks the spine where the request goes and executes the answer:
// fulfill here, or hand it to the target by 302 (or by proxy).
func (c *Cluster) decide(rs *request, x int) {
	if rs.Found {
		rs.CachedLocal = c.nodes[x].Cache.Peek(rs.Path)
		if c.cfg.CacheHints > 0 {
			// Cooperative caching: mark peers whose last digest said they
			// hold this document in memory.
			rs.CachedAt = make([]bool, len(c.nodes))
			rs.CachedAt[x] = rs.CachedLocal
			for y := range c.nodes {
				if y != x && c.tables[x].CachedAt(y, rs.Path, c.nowSec()) {
					rs.CachedAt[y] = true
				}
			}
		}
	}
	loads := c.loadsAt(x)
	if c.cfg.Dispatcher && x == 0 && rs.Redirects == 0 && rs.Found && !rs.CGI {
		// The distributor places without predicting: a NaN estimate
		// records none.
		rs.plan = core.Plan{Action: core.Redirect, Target: c.dispatcherChoose(rs.Request(x), loads),
			Decision: core.Decision{Estimate: math.NaN()}}
		if rs.plan.Target == x {
			rs.plan.Action = core.Serve
		}
	} else {
		rs.plan = core.Analyze(c.policy, &rs.Facts, x, loads)
	}
	target := rs.plan.Target
	if c.cfg.Trace.Enabled() {
		c.trace(rs, trace.EvAnalyzed, x, fmt.Sprintf("target=%d", target))
	}
	c.obs[x].Event(trace.EvAnalyzed)
	if rs.plan.Action != core.Redirect {
		c.fulfill(rs, x)
		return
	}
	if c.cfg.Reassign == ReassignForward {
		// Server-side forwarding: the request never returns to the
		// client; node x proxies it to the target and relays the
		// response. The client keeps one connection; the cluster pays
		// double handling (the cost the paper avoided with redirection).
		c.tables[x].Bump(target)
		if c.cfg.Trace.Enabled() {
			c.trace(rs, trace.EvForwarded, x, fmt.Sprintf("to=%d", target))
		}
		c.obs[x].Event(trace.EvForwarded)
		rs.mark = c.Sim.Now()
		c.nodes[x].CPUWork(model.ActSchedule, c.cfg.RedirectOps, rs.arm(stForwarded))
		return
	}
	// Redirect: bump the local view of the chosen peer so the next stale
	// decision does not dogpile it, charge the 302 generation, then the
	// client follows the Location header to the new node.
	c.tables[x].Bump(target)
	if c.cfg.Trace.Enabled() {
		c.trace(rs, trace.EvRedirected, x, fmt.Sprintf("to=%d", target))
	}
	rs.mark = c.Sim.Now()
	c.nodes[x].CPUWork(model.ActSchedule, c.cfg.RedirectOps, rs.arm(stRedirected))
}

// redirected runs once node x has generated the 302: the handler exits
// and the client reconnects to the target.
func (c *Cluster) redirected(rs *request, x int) {
	target := rs.plan.Target
	c.inflight[x]--
	rs.Redirects++
	c.obs[x].Event(trace.EvRedirected)
	c.obs[x].Redirect(target)
	c.obs[x].Phase("redirect", (c.Sim.Now() - rs.mark).ToSeconds())
	// "Twice the estimated latency of the connection between the server
	// and the client plus the time for a server to set up a connection."
	c.Sim.After(c.connectTime(), rs.arm(stHopped))
}

// forwarded runs once proxy x has set up the forward: the target serves,
// unless it has left the pool.
func (c *Cluster) forwarded(rs *request, x int) {
	target := rs.plan.Target
	rs.Redirects++
	if !c.up[target] {
		// Forwarding has no second chance: the relay fails.
		c.inflight[x]--
		c.trace(rs, trace.EvRefused, target, "forward target down")
		c.obs[x].Drop("unavailable")
		c.drop(rs, stats.DropUnavailable)
		return
	}
	rs.ph.Redirect += (c.Sim.Now() - rs.mark).ToSeconds()
	c.fulfillForwarded(rs, x, target)
}

// dispatcherChoose is the centralized assignment: the distributor never
// serves documents itself; it picks the minimum-estimate worker (or, for
// non-SWEB policies, rotates).
func (c *Cluster) dispatcherChoose(req core.Request, loads []core.NodeLoad) int {
	sweb, ok := c.policy.(*core.SWEB)
	if !ok {
		// Baseline dispatcher: rotate over live workers.
		n := len(c.nodes)
		for k := 1; k < n; k++ {
			w := 1 + int(c.dispatchNext)%(n-1)
			c.dispatchNext++
			if c.up[w] {
				return w
			}
		}
		return 0
	}
	best, bestNode := 0.0, 0 // no feasible worker: node 0 serves
	for w := 1; w < len(c.nodes); w++ {
		if cb := sweb.EstimateCost(req, 0, w, loads); !cb.Infeasible && (bestNode == 0 || cb.Total < best) {
			best, bestNode = cb.Total, w
		}
	}
	return bestNode
}

// fulfillForwarded serves the request at worker y while relaying every
// chunk back through proxy x to the client. Both nodes hold a handler slot
// for the duration; the worker's bytes cross the interconnect twice as
// often as under redirection.
func (c *Cluster) fulfillForwarded(rs *request, x, y int) {
	rs.servedBy = y
	if c.inflight[y] >= c.cfg.Specs[y].AcceptQueue {
		c.inflight[x]--
		c.trace(rs, trace.EvRefused, y, "forward target full")
		c.obs[y].Event(trace.EvRefused)
		c.obs[y].Drop("refused")
		c.drop(rs, stats.DropRefused)
		return
	}
	c.inflight[y]++
	worker := c.nodes[y]
	f := rs.File
	rs.mark = c.Sim.Now()
	rs.body, rs.bodyLen, rs.source, rs.pin = bodyRelay, f.Size, y, f.Size
	worker.Pin(rs.pin)
	c.nodes[x].Pin(rs.pin)
	// The worker reads its own memory or disk: forwarding has no NFS leg.
	rs.fetch = core.FetchDisk
	if worker.Cache.Contains(f.Path) {
		rs.fetch = core.FetchCache
		worker.Cache.Touch(f.Path)
	}
	if f.Size == 0 {
		c.finishServerSide(rs)
		c.complete(rs)
		return
	}
	worker.CPUWork(model.ActFulfill, rs.Demand.BaseOps, rs.arm(stPump))
}

// fulfill serves the request at node x "in the normal HTTP server manner".
func (c *Cluster) fulfill(rs *request, x int) {
	rs.servedBy = x
	node := c.nodes[x]
	rs.mark = c.Sim.Now()
	if rs.plan.Action == core.NotFound {
		// 404: a small generated body, no disk involved.
		c.obs[x].Drop("not_found")
		rs.bodyLen = errorResponseBytes
		node.CPUWork(model.ActFulfill, rs.Demand.BaseOps+float64(errorResponseBytes)*rs.Demand.OpsPerByte, rs.arm(stGenerated))
		return
	}
	if rs.CGI {
		// CGI: fork + compute, then stream the generated result (no static
		// file fetch).
		c.fetchStep(rs, x, rs.Fetch(x, false), "")
		rs.bodyLen = rs.Size
		node.CPUWork(model.ActFulfill, rs.Demand.BaseOps, rs.arm(stForked))
		return
	}
	// Static fetch: fork + handler setup, then the chunked
	// read-process-write loop.
	node.CPUWork(model.ActFulfill, rs.Demand.BaseOps, rs.arm(stOpened))
}

// fetchStep records how node x fulfills rs, as the spine classified it.
func (c *Cluster) fetchStep(rs *request, x int, fetch core.Fetch, detail string) {
	rs.fetch = fetch
	kind, _ := nodeobs.FetchStep(fetch)
	c.trace(rs, kind, x, detail)
	c.obs[x].Event(kind)
}

// chunkAt sizes the chunk of a size-byte body that starts at off and
// reports whether it is the last.
func (c *Cluster) chunkAt(off, size int64) (int64, bool) {
	chunk := min(c.cfg.ChunkBytes, size-off)
	return chunk, off+chunk >= size
}

// pump arms the first step of the body's chunk at rs.off: generated bytes
// are processed at once; a file chunk is read first, from the page cache,
// the local disk or the NFS source; a relayed chunk is read at the worker.
func (c *Cluster) pump(rs *request) {
	rs.chunk, rs.last = c.chunkAt(rs.off, rs.bodyLen)
	chunk := float64(rs.chunk)
	node, src := c.nodes[rs.node], c.nodes[rs.source]
	switch {
	case rs.body == bodyGenerated:
		node.CPUWork(model.ActFulfill, rs.Demand.OpsPerByte*chunk, rs.arm(stPacketized))
	case rs.body == bodyRelay && rs.fetch == core.FetchCache:
		src.CPUWork(model.ActFulfill, c.cfg.CopyOpsPerByte*chunk, rs.arm(stWorkerRead))
	case rs.body == bodyRelay:
		readDisk(src, chunk, rs.chunk, rs.arm(stWorkerRead))
	case rs.fetch == core.FetchCache:
		// Buffer-cache hit: just the memory copy.
		node.CPUWork(model.ActFulfill, c.cfg.CopyOpsPerByte*chunk, rs.arm(stInMemory))
	case rs.fetch == core.FetchDisk:
		readDisk(node, rs.diskPerByte()*chunk, rs.chunk, rs.arm(stInMemory))
	case rs.srcCached:
		// The NFS server answers from its page cache.
		c.net.InternalTransfer(rs.source, rs.node, rs.chunk, rs.arm(stInMemory))
	default:
		readDisk(src, rs.diskPerByte()*chunk, rs.chunk, rs.arm(stFetched))
	}
}

// diskPerByte is the disk work one body byte costs.
func (rs *request) diskPerByte() float64 {
	if rs.Demand.DiskBytesPerByte <= 0 {
		return 1
	}
	return rs.Demand.DiskBytesPerByte
}

// send hands one processed chunk to the client link, counting its bytes
// and the first-byte instant. The request resumes once the chunk has left
// the server site and, after the last chunk, once the client has it.
func (c *Cluster) send(rs *request) {
	x := rs.node
	c.bytesOut[x] += rs.chunk
	if !rs.hasTTFB {
		rs.ttfbAt, rs.hasTTFB = c.Sim.Now(), true
	}
	delivered := noop
	if rs.last {
		delivered = rs.next
	}
	c.net.ClientTransfer(x, c.cfg.Client, rs.chunk, rs.arm(stSent), delivered)
}

// readDisk charges one chunk's read to node n's disk — work inflated by
// the swap penalty under memory pressure — and counts it.
func readDisk(n *model.Node, work float64, chunk int64, then func()) {
	if n.MemoryPressure() {
		work *= n.Spec.SwapPenalty
		n.SwappedOps++
	}
	n.DiskReads++
	n.DiskBytes += chunk
	n.Disk.Submit(work, then)
}

// streamFile starts the chunked read → packetize → write loop for a static
// file, fetching from the local disk, the page cache, or the owning node
// over the interconnect.
func (c *Cluster) streamFile(rs *request, x int) {
	node := c.nodes[x]
	f := rs.File
	rs.body, rs.bodyLen, rs.pin = bodyFile, f.Size, f.Size
	node.Pin(rs.pin)

	// One cache decision per file: partial files are not cached.
	cachedHere := node.Cache.Contains(f.Path)
	if cachedHere {
		node.Cache.Touch(f.Path)
	}
	fetch := rs.Fetch(x, cachedHere)
	rs.source, rs.srcCached = x, false
	detail := ""
	if fetch == core.FetchPeer {
		rs.source = c.fetchSource(rs, x)
		rs.srcCached = c.nodes[rs.source].Cache.Peek(f.Path)
		if c.cfg.Trace.Enabled() {
			detail = fmt.Sprintf("source=%d", rs.source)
		}
		c.obs[x].ReplicaFetch(f.Path, rs.source)
	}
	c.fetchStep(rs, x, fetch, detail)
	if f.Size == 0 {
		c.finishServerSide(rs)
		c.complete(rs)
		return
	}
	c.pump(rs)
}

// fetchSource names the replica node x pulls rs's bytes from: the spine's
// cheapest-first order over a fetch-time load snapshot, skipping nodes that
// are out of the pool — ground truth the gossip table may not have learned
// yet; the collapsed-to-zero-time analogue of the live relay's
// try-next-source failover — with the primary owner as the last resort.
func (c *Cluster) fetchSource(rs *request, x int) int {
	for _, rep := range rs.Sources(x, c.loadsAt(x)) {
		if c.up[rep] {
			return rep
		}
	}
	return rs.Owner
}

// finishServerSide releases the handler slot and the pinned buffers — the
// forwarding worker's too — once the last byte has left the server site;
// the tail of the transfer is pure network drain.
func (c *Cluster) finishServerSide(rs *request) {
	x := rs.node
	served := (c.Sim.Now() - rs.mark).ToSeconds()
	rs.ph.Transfer += served
	rs.mark = c.Sim.Now()
	c.trace(rs, trace.EvSent, x, "")
	c.obs[x].Event(trace.EvSent)
	if rs.plan.Action == core.Serve {
		// Only a request the spine placed here has a fetch phase and an
		// estimate to score. Actual t_s is the server-side portion of the
		// lifecycle; the client-network drain the broker never modelled
		// stays out. The simulated broker exposes only its target's total
		// estimate, so the comparison is whole-t_s — the cells a live node
		// fills when its policy lacks a full cost table.
		_, cell := nodeobs.FetchStep(rs.fetch)
		c.obs[x].Phase(cell, served)
		cpu := rs.ph.Preprocess + rs.ph.Analysis
		c.obs[x].Prediction(core.Decision{Estimate: rs.plan.Decision.Estimate}, cpu, rs.ph.Transfer, cpu+rs.ph.Transfer)
	}
	if rs.body == bodyRelay {
		c.nodes[rs.source].Unpin(rs.pin)
		c.inflight[rs.source]--
	}
	c.nodes[x].Unpin(rs.pin)
	c.inflight[x]--
}

// complete records the client-observed outcome.
func (c *Cluster) complete(rs *request) {
	rs.ph.Network += (c.Sim.Now() - rs.mark).ToSeconds()
	resp := (c.Sim.Now() - rs.issued).ToSeconds()
	c.outstanding--
	c.lastDone = c.Sim.Now()
	if resp > c.cfg.ClientTimeout.ToSeconds() {
		c.trace(rs, trace.EvTimedOut, rs.servedBy, "")
		c.obs[rs.servedBy].Drop("timeout")
		c.observe(rs, rs.servedBy, 0, rs.File.Size, true)
		c.res.RecordDrop(stats.DropTimeout)
		return
	}
	c.trace(rs, trace.EvDelivered, rs.servedBy, "")
	status, bytes := 200, rs.File.Size
	if !rs.Found {
		status, bytes = 404, errorResponseBytes
	}
	c.observe(rs, rs.servedBy, status, bytes, true)
	c.res.RecordSuccess(resp, rs.servedBy, rs.Redirects > 0, rs.ph)
}
