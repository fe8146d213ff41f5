package simsrv

import (
	"fmt"
	"math"

	"sweb/internal/core"
	"sweb/internal/des"
	"sweb/internal/model"
	"sweb/internal/oracle"
	"sweb/internal/stats"
	"sweb/internal/storage"
	"sweb/internal/trace"
)

// request carries one HTTP request through the four-phase lifecycle.
type request struct {
	path   string
	domain string
	file   storage.File
	found  bool
	demand oracle.Demand

	issued    des.Time
	mark      des.Time // start of the current phase
	redirects int
	servedBy  int
	tid       int64 // trace request id (-1 when tracing is off)
	ph        stats.PhaseBreakdown

	fetchPhase string  // phase-histogram cell the fulfill path lands in
	predicted  float64 // broker's t_s estimate for serving here
	hasPred    bool

	// Flight-recorder state: the connection id, the node the request last
	// arrived at (where a refusal is attributed), whether fulfillment hit
	// the page cache, and when the first response byte left the server.
	id       int64
	entry    int
	cacheHit bool
	ttfbAt   des.Time
	hasTTFB  bool
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

// decide consults the policy and either fulfills locally or redirects.
func (c *Cluster) decide(rs *request, x int) {
	req := core.Request{
		Path:          rs.path,
		Arrived:       x,
		RedirectCount: rs.redirects,
	}
	if rs.found {
		req.Size = rs.file.Size
		req.Owner = rs.file.Owner
		req.Replicas = rs.file.Replicas
		req.CachedLocal = c.nodes[x].Cache.Peek(rs.path)
		if c.cfg.CacheHints > 0 {
			// Cooperative caching: mark peers whose last digest said they
			// hold this document in memory.
			req.CachedAt = make([]bool, len(c.nodes))
			req.CachedAt[x] = req.CachedLocal
			for y := range c.nodes {
				if y != x && c.tables[x].CachedAt(y, rs.path, c.nowSec()) {
					req.CachedAt[y] = true
				}
			}
		}
		d := rs.demand
		req.Ops = d.BaseOps + d.OpsPerByte*float64(rs.file.Size) + d.CGIOps + rs.file.CGIOps
		req.DiskBytes = d.DiskBytesPerByte * float64(rs.file.Size)
		req.PinnedLocal = rs.file.CGI
	} else {
		// Errors are "always completed at x" (Sec. 3.2 step 2).
		req.PinnedLocal = true
		req.Owner = x
	}
	loads := c.tables[x].Snapshot(len(c.nodes), c.nowSec())
	loads[x] = c.liveRow(x) // a node knows its own load precisely
	var target int
	est := math.NaN()
	if c.cfg.Dispatcher && x == 0 && rs.redirects == 0 && !req.PinnedLocal {
		target = c.dispatcherChoose(req, loads)
	} else {
		dec := c.policy.Choose(req, x, loads)
		target = dec.Target
		est = dec.Estimate
	}
	if target < 0 || target >= len(c.nodes) {
		target = x
	}
	if c.cfg.Trace.Enabled() {
		c.trace(rs, trace.EvAnalyzed, x, fmt.Sprintf("target=%d", target))
	}
	c.obs[x].Event(trace.EvAnalyzed)
	if target == x {
		if !math.IsNaN(est) && !math.IsInf(est, 0) {
			rs.predicted = est
			rs.hasPred = true
		}
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
			rs.redirects++
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
		rs.redirects++
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
	best, bestNode := -1.0, -1
	for w := 1; w < len(c.nodes); w++ {
		cb := sweb.EstimateCost(req, 0, w, loads)
		if cb.Infeasible {
			continue
		}
		if bestNode < 0 || cb.Total < best {
			best, bestNode = cb.Total, w
		}
	}
	if bestNode < 0 {
		return 0
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
	f := rs.file
	if !rs.found || f.CGI {
		// Errors and CGI are pinned and never reach here (PinnedLocal).
		c.inflight[y]--
		c.fulfill(rs, x)
		return
	}
	rs.mark = c.Sim.Now()
	releaseY := worker.PinBuffer(f.Size)
	releaseX := proxy.PinBuffer(f.Size)
	cached := worker.Cache.Contains(f.Path)
	rs.cacheHit = cached
	if cached {
		worker.Cache.Touch(f.Path)
	}
	const relayOpsPerByte = 0.06 // proxy-side copy between sockets
	finishWorker := func() {
		releaseY()
		c.inflight[y]--
	}
	var pump func(off int64)
	pump = func(off int64) {
		chunk := c.cfg.ChunkBytes
		if off+chunk > f.Size {
			chunk = f.Size - off
		}
		last := off+chunk >= f.Size
		fetch := func(then func()) {
			if cached {
				worker.CPUWork(model.ActFulfill, c.cfg.CopyOpsPerByte*float64(chunk), then)
				return
			}
			work := float64(chunk)
			if worker.MemoryPressure() {
				work *= worker.Spec.SwapPenalty
				worker.SwappedOps++
			}
			worker.DiskReads++
			worker.DiskBytes += chunk
			worker.Disk.Submit(work, then)
		}
		fetch(func() {
			if last && !cached {
				worker.Cache.Insert(f.Path, f.Size)
			}
			worker.CPUWork(model.ActFulfill, rs.demand.OpsPerByte*float64(chunk), func() {
				c.net.InternalTransfer(y, x, chunk, func() {
					proxy.CPUWork(model.ActFulfill, relayOpsPerByte*float64(chunk), func() {
						c.bytesOut[x] += chunk
						if !rs.hasTTFB {
							rs.ttfbAt, rs.hasTTFB = c.Sim.Now(), true
						}
						c.net.ClientTransfer(x, c.cfg.Client, chunk,
							func() {
								if last {
									finishWorker()
									c.finishServerSide(rs, x, releaseX)
								} else {
									pump(off + chunk)
								}
							},
							func() {
								if last {
									c.complete(rs)
								}
							})
					})
				})
			})
		})
	}
	if f.Size == 0 {
		finishWorker()
		c.finishServerSide(rs, x, releaseX)
		c.complete(rs)
		return
	}
	worker.CPUWork(model.ActFulfill, rs.demand.BaseOps, func() { pump(0) })
}

// fulfill serves the request at node x "in the normal HTTP server manner".
func (c *Cluster) fulfill(rs *request, x int) {
	rs.servedBy = x
	node := c.nodes[x]
	if !rs.found {
		// 404: a small generated body, no disk involved.
		c.obs[x].Drop("not_found")
		rs.mark = c.Sim.Now()
		node.CPUWork(model.ActFulfill, rs.demand.BaseOps+float64(errorResponseBytes)*rs.demand.OpsPerByte, func() {
			c.sendOnly(rs, x, errorResponseBytes)
		})
		return
	}
	f := rs.file
	rs.mark = c.Sim.Now()
	if f.CGI {
		c.trace(rs, trace.EvCGI, x, "")
		c.obs[x].Event(trace.EvCGI)
		rs.fetchPhase = "cgi"
		// CGI: fork + compute, then stream the generated result (no
		// static file fetch).
		node.CPUWork(model.ActFulfill, rs.demand.BaseOps, func() {
			node.CPUWork(model.ActCGI, f.CGIOps+rs.demand.CGIOps, func() {
				c.sendOnly(rs, x, f.Size)
			})
		})
		return
	}
	// Static fetch: fork + handler setup, then the chunked
	// read-process-write loop.
	node.CPUWork(model.ActFulfill, rs.demand.BaseOps, func() {
		c.streamFile(rs, x)
	})
}

// sendOnly streams size generated bytes (CGI output, error bodies) to the
// client without touching the disk.
func (c *Cluster) sendOnly(rs *request, x int, size int64) {
	node := c.nodes[x]
	release := node.PinBuffer(size)
	var sendChunk func(off int64)
	sendChunk = func(off int64) {
		chunk := c.cfg.ChunkBytes
		if off+chunk > size {
			chunk = size - off
		}
		last := off+chunk >= size
		node.CPUWork(model.ActFulfill, rs.demand.OpsPerByte*float64(chunk), func() {
			c.bytesOut[x] += chunk
			if !rs.hasTTFB {
				rs.ttfbAt, rs.hasTTFB = c.Sim.Now(), true
			}
			c.net.ClientTransfer(x, c.cfg.Client, chunk,
				func() {
					if last {
						c.finishServerSide(rs, x, release)
					} else {
						sendChunk(off + chunk)
					}
				},
				func() {
					if last {
						c.complete(rs)
					}
				})
		})
	}
	sendChunk(0)
}

// streamFile runs the chunked read → packetize → write loop for a static
// file, fetching from the local disk, the page cache, or the owning node
// over the interconnect.
func (c *Cluster) streamFile(rs *request, x int) {
	node := c.nodes[x]
	f := rs.file
	release := node.PinBuffer(f.Size)

	// One cache decision per file: partial files are not cached.
	cachedHere := node.Cache.Contains(f.Path)
	rs.cacheHit = cachedHere
	if cachedHere {
		node.Cache.Touch(f.Path)
	}
	remote := !f.HasReplica(x)
	source := x
	if remote {
		source = c.pickFetchSource(rs, x)
	}
	srcNode := c.nodes[source]
	srcCached := false
	if remote && !cachedHere {
		srcCached = srcNode.Cache.Peek(f.Path)
	}
	diskPerByte := rs.demand.DiskBytesPerByte
	if diskPerByte <= 0 {
		diskPerByte = 1
	}

	if remote && !cachedHere {
		if c.cfg.Trace.Enabled() {
			c.trace(rs, trace.EvFetchNFS, x, fmt.Sprintf("source=%d", source))
		}
		c.obs[x].Event(trace.EvFetchNFS)
		c.obs[x].ReplicaFetch(f.Path, source)
		rs.fetchPhase = "fetch_nfs"
	} else {
		c.trace(rs, trace.EvFetchLocal, x, "")
		c.obs[x].Event(trace.EvFetchLocal)
		rs.fetchPhase = "fetch_local"
	}
	// fetch obtains one chunk into local memory, then calls then().
	fetch := func(chunk int64, then func()) {
		switch {
		case cachedHere:
			// Buffer-cache hit: just the memory copy.
			node.CPUWork(model.ActFulfill, c.cfg.CopyOpsPerByte*float64(chunk), then)
		case !remote:
			work := diskPerByte * float64(chunk)
			if node.MemoryPressure() {
				work *= node.Spec.SwapPenalty
				node.SwappedOps++
			}
			node.DiskReads++
			node.DiskBytes += chunk
			node.Disk.Submit(work, then)
		case srcCached:
			// The NFS server answers from its page cache.
			c.net.InternalTransfer(source, x, chunk, then)
		default:
			work := diskPerByte * float64(chunk)
			if srcNode.MemoryPressure() {
				work *= srcNode.Spec.SwapPenalty
				srcNode.SwappedOps++
			}
			srcNode.DiskReads++
			srcNode.DiskBytes += chunk
			srcNode.Disk.Submit(work, func() {
				c.net.InternalTransfer(source, x, chunk, then)
			})
		}
	}

	var pump func(off int64)
	pump = func(off int64) {
		chunk := c.cfg.ChunkBytes
		if off+chunk > f.Size {
			chunk = f.Size - off
		}
		last := off+chunk >= f.Size
		fetch(chunk, func() {
			if last && !cachedHere {
				// The whole file has now passed through memory; it
				// lands in the serving node's page cache, and on a
				// remote read the source's NFS server cached it too.
				node.Cache.Insert(f.Path, f.Size)
				if remote && !srcCached {
					srcNode.Cache.Insert(f.Path, f.Size)
				}
			}
			node.CPUWork(model.ActFulfill, rs.demand.OpsPerByte*float64(chunk), func() {
				c.bytesOut[x] += chunk
				if !rs.hasTTFB {
					rs.ttfbAt, rs.hasTTFB = c.Sim.Now(), true
				}
				c.net.ClientTransfer(x, c.cfg.Client, chunk,
					func() {
						if last {
							c.finishServerSide(rs, x, release)
						} else {
							pump(off + chunk)
						}
					},
					func() {
						if last {
							c.complete(rs)
						}
					})
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

// finishServerSide releases the handler slot once the last byte has left
// the server site; the tail of the transfer is pure network drain.
func (c *Cluster) finishServerSide(rs *request, x int, release func()) {
	served := (c.Sim.Now() - rs.mark).ToSeconds()
	rs.ph.Transfer += served
	rs.mark = c.Sim.Now()
	c.trace(rs, trace.EvSent, x, "")
	c.obs[x].Event(trace.EvSent)
	if rs.fetchPhase != "" {
		c.obs[x].Phase(rs.fetchPhase, served)
	}
	if rs.hasPred {
		// Actual t_s is the server-side portion of the lifecycle; the
		// client-network drain the broker never modelled stays out. The
		// simulated broker exposes only its target's total estimate, so
		// the comparison is whole-t_s — the cells a live node fills when
		// its policy lacks a full cost table.
		cpu := rs.ph.Preprocess + rs.ph.Analysis
		c.obs[x].Prediction(core.Decision{Estimate: rs.predicted}, cpu, rs.ph.Transfer, cpu+rs.ph.Transfer)
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
		c.observe(rs, rs.servedBy, 0, rs.file.Size, true)
		c.res.RecordDrop(stats.DropTimeout)
		return
	}
	c.trace(rs, trace.EvDelivered, rs.servedBy, "")
	status, bytes := 200, rs.file.Size
	if !rs.found {
		status, bytes = 404, errorResponseBytes
	}
	c.observe(rs, rs.servedBy, status, bytes, true)
	c.res.RecordSuccess(resp, rs.servedBy, rs.redirects > 0, rs.ph)
}
