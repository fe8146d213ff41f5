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
type request struct {
	core.Facts
	domain string

	issued   des.Time
	mark     des.Time // start of the current phase
	servedBy int
	tid      int64 // trace request id (-1 when tracing is off)
	ph       stats.PhaseBreakdown

	// plan is the spine's answer at the node that last analyzed the
	// request; fetch is how the serving node obtained the bytes.
	plan  core.Plan
	fetch core.Fetch

	// Flight-recorder state: the connection id, the node the request last
	// arrived at (where a refusal is attributed), and when the first
	// response byte left the server.
	id      int64
	entry   int
	ttfbAt  des.Time
	hasTTFB bool
}

const errorResponseBytes = 512 // a 404 body plus headers

// arrive runs the accept path at node x: the connection is refused if the
// node is down or its accept capacity (process table + listen backlog) is
// exhausted; otherwise the request enters preprocessing.
func (c *Cluster) arrive(rs *request, x int) {
	rs.entry = x
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
	c.nodes[x].CPUWork(model.ActParse, c.cfg.PreprocessOps, func() {
		d := (c.Sim.Now() - rs.mark).ToSeconds()
		rs.ph.Preprocess += d
		c.trace(rs, trace.EvParsed, x, "")
		c.obs[x].Event(trace.EvParsed)
		c.obs[x].Phase("parse", d)
		c.analyze(rs, x)
	})
}

// analyze charges the broker's cost-estimation CPU, then decides.
func (c *Cluster) analyze(rs *request, x int) {
	rs.mark = c.Sim.Now()
	c.nodes[x].CPUWork(model.ActSchedule, c.cfg.AnalysisOps, func() {
		d := (c.Sim.Now() - rs.mark).ToSeconds()
		rs.ph.Analysis += d
		c.obs[x].Phase("analyze", d)
		c.decide(rs, x)
	})
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
	loads := c.tables[x].Snapshot(len(c.nodes), c.nowSec())
	loads[x] = c.liveRow(x) // a node knows its own load precisely
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
		c.nodes[x].CPUWork(model.ActSchedule, c.cfg.RedirectOps, func() {
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
		})
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
	c.nodes[x].CPUWork(model.ActSchedule, c.cfg.RedirectOps, func() {
		c.inflight[x]--
		rs.Redirects++
		c.obs[x].Event(trace.EvRedirected)
		c.obs[x].Redirect(target)
		c.obs[x].Phase("redirect", (c.Sim.Now() - rs.mark).ToSeconds())
		// "Twice the estimated latency of the connection between the
		// server and the client plus the time for a server to set up a
		// connection."
		travel := 2*c.cfg.Client.LatencyOneWay + des.Seconds(c.cfg.Params.ConnectSeconds)
		hopFrom := c.Sim.Now()
		c.Sim.After(travel, func() {
			rs.ph.Redirect += (c.Sim.Now() - rs.mark).ToSeconds()
			if c.up[target] {
				// The hop is measured where the redirected connection
				// lands, matching the live redirect_hop cell.
				c.obs[target].Phase("redirect_hop", (c.Sim.Now() - hopFrom).ToSeconds())
			}
			c.arrive(rs, target)
		})
	})
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
	proxy := c.nodes[x]
	f := rs.File
	rs.mark = c.Sim.Now()
	releaseY := worker.PinBuffer(f.Size)
	releaseX := proxy.PinBuffer(f.Size)
	// The worker reads its own memory or disk: forwarding has no NFS leg.
	cached := worker.Cache.Contains(f.Path)
	rs.fetch = core.FetchDisk
	if cached {
		rs.fetch = core.FetchCache
		worker.Cache.Touch(f.Path)
	}
	const relayOpsPerByte = 0.06 // proxy-side copy between sockets
	release := func() {
		releaseY()
		c.inflight[y]--
		releaseX()
	}
	var pump func(off int64)
	pump = func(off int64) {
		chunk, last := c.chunkAt(off, f.Size)
		relay := func() {
			if last && !cached {
				worker.Cache.Insert(f.Path, f.Size)
			}
			worker.CPUWork(model.ActFulfill, rs.Demand.OpsPerByte*float64(chunk), func() {
				c.net.InternalTransfer(y, x, chunk, func() {
					proxy.CPUWork(model.ActFulfill, relayOpsPerByte*float64(chunk), func() {
						c.send(rs, x, chunk, last, release, pump, off+chunk)
					})
				})
			})
		}
		if cached {
			worker.CPUWork(model.ActFulfill, c.cfg.CopyOpsPerByte*float64(chunk), relay)
		} else {
			readDisk(worker, float64(chunk), chunk, relay)
		}
	}
	if f.Size == 0 {
		c.finishServerSide(rs, x, release)
		c.complete(rs)
		return
	}
	worker.CPUWork(model.ActFulfill, rs.Demand.BaseOps, func() { pump(0) })
}

// fulfill serves the request at node x "in the normal HTTP server manner".
func (c *Cluster) fulfill(rs *request, x int) {
	rs.servedBy = x
	node := c.nodes[x]
	rs.mark = c.Sim.Now()
	if rs.plan.Action == core.NotFound {
		// 404: a small generated body, no disk involved.
		c.obs[x].Drop("not_found")
		node.CPUWork(model.ActFulfill, rs.Demand.BaseOps+float64(errorResponseBytes)*rs.Demand.OpsPerByte, func() {
			c.sendOnly(rs, x, errorResponseBytes)
		})
		return
	}
	if rs.CGI {
		// CGI: fork + compute, then stream the generated result (no static
		// file fetch).
		c.fetchStep(rs, x, rs.Fetch(x, false), "")
		node.CPUWork(model.ActFulfill, rs.Demand.BaseOps, func() {
			node.CPUWork(model.ActCGI, rs.CGIOps+rs.Demand.CGIOps, func() {
				c.sendOnly(rs, x, rs.Size)
			})
		})
		return
	}
	// Static fetch: fork + handler setup, then the chunked
	// read-process-write loop.
	node.CPUWork(model.ActFulfill, rs.Demand.BaseOps, func() {
		c.streamFile(rs, x)
	})
}

// fetchStep records how node x fulfills rs, as the spine classified it.
func (c *Cluster) fetchStep(rs *request, x int, fetch core.Fetch, detail string) {
	rs.fetch = fetch
	kind, _ := nodeobs.FetchStep(fetch)
	c.trace(rs, kind, x, detail)
	c.obs[x].Event(kind)
}

// sendOnly streams size generated bytes (CGI output, error bodies) to the
// client without touching the disk.
func (c *Cluster) sendOnly(rs *request, x int, size int64) {
	node := c.nodes[x]
	release := node.PinBuffer(size)
	var sendChunk func(off int64)
	sendChunk = func(off int64) {
		chunk, last := c.chunkAt(off, size)
		node.CPUWork(model.ActFulfill, rs.Demand.OpsPerByte*float64(chunk), func() {
			c.send(rs, x, chunk, last, release, sendChunk, off+chunk)
		})
	}
	sendChunk(0)
}

// chunkAt sizes the chunk of a size-byte body that starts at off and
// reports whether it is the last.
func (c *Cluster) chunkAt(off, size int64) (int64, bool) {
	chunk := min(c.cfg.ChunkBytes, size-off)
	return chunk, off+chunk >= size
}

// send hands one processed chunk from x to the client link, counting its
// bytes and the first-byte instant. After the last chunk the handler slot
// is freed (release) and the request completes on delivery; before it,
// next(off) pumps the following chunk.
func (c *Cluster) send(rs *request, x int, chunk int64, last bool, release func(), next func(int64), off int64) {
	c.bytesOut[x] += chunk
	if !rs.hasTTFB {
		rs.ttfbAt, rs.hasTTFB = c.Sim.Now(), true
	}
	c.net.ClientTransfer(x, c.cfg.Client, chunk,
		func() {
			if last {
				c.finishServerSide(rs, x, release)
			} else {
				next(off)
			}
		},
		func() {
			if last {
				c.complete(rs)
			}
		})
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

// streamFile runs the chunked read → packetize → write loop for a static
// file, fetching from the local disk, the page cache, or the owning node
// over the interconnect.
func (c *Cluster) streamFile(rs *request, x int) {
	node := c.nodes[x]
	f := rs.File
	release := node.PinBuffer(f.Size)

	// One cache decision per file: partial files are not cached.
	cachedHere := node.Cache.Contains(f.Path)
	if cachedHere {
		node.Cache.Touch(f.Path)
	}
	fetch := rs.Fetch(x, cachedHere)
	source, srcCached, detail := x, false, ""
	if fetch == core.FetchPeer {
		source = c.fetchSource(rs, x)
		srcCached = c.nodes[source].Cache.Peek(f.Path)
		if c.cfg.Trace.Enabled() {
			detail = fmt.Sprintf("source=%d", source)
		}
		c.obs[x].ReplicaFetch(f.Path, source)
	}
	c.fetchStep(rs, x, fetch, detail)
	srcNode := c.nodes[source]
	diskPerByte := rs.Demand.DiskBytesPerByte
	if diskPerByte <= 0 {
		diskPerByte = 1
	}

	// read obtains one chunk into local memory, then calls then().
	read := func(chunk int64, then func()) {
		switch {
		case fetch == core.FetchCache:
			// Buffer-cache hit: just the memory copy.
			node.CPUWork(model.ActFulfill, c.cfg.CopyOpsPerByte*float64(chunk), then)
		case fetch == core.FetchDisk:
			readDisk(node, diskPerByte*float64(chunk), chunk, then)
		case srcCached:
			// The NFS server answers from its page cache.
			c.net.InternalTransfer(source, x, chunk, then)
		default:
			readDisk(srcNode, diskPerByte*float64(chunk), chunk, func() {
				c.net.InternalTransfer(source, x, chunk, then)
			})
		}
	}

	var pump func(off int64)
	pump = func(off int64) {
		chunk, last := c.chunkAt(off, f.Size)
		read(chunk, func() {
			if last && fetch != core.FetchCache {
				// The whole file has now passed through memory; it
				// lands in the serving node's page cache, and on a
				// remote read the source's NFS server cached it too.
				node.Cache.Insert(f.Path, f.Size)
				if fetch == core.FetchPeer && !srcCached {
					srcNode.Cache.Insert(f.Path, f.Size)
				}
			}
			node.CPUWork(model.ActFulfill, rs.Demand.OpsPerByte*float64(chunk), func() {
				c.send(rs, x, chunk, last, release, pump, off+chunk)
			})
		})
	}
	if f.Size == 0 {
		c.finishServerSide(rs, x, release)
		c.complete(rs)
		return
	}
	pump(0)
}

// fetchSource names the replica node x pulls rs's bytes from: the spine's
// cheapest-first order over a fetch-time load snapshot, skipping nodes that
// are out of the pool — ground truth the gossip table may not have learned
// yet; the collapsed-to-zero-time analogue of the live relay's
// try-next-source failover — with the primary owner as the last resort.
func (c *Cluster) fetchSource(rs *request, x int) int {
	loads := c.tables[x].Snapshot(len(c.nodes), c.nowSec())
	loads[x] = c.liveRow(x)
	for _, rep := range rs.Sources(x, loads) {
		if c.up[rep] {
			return rep
		}
	}
	return rs.Owner
}

// finishServerSide releases the handler slot once the last byte has left
// the server site; the tail of the transfer is pure network drain.
func (c *Cluster) finishServerSide(rs *request, x int, release func()) {
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
	release()
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
