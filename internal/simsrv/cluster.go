package simsrv

import (
	"fmt"
	"math/rand"
	"sort"

	"sweb/internal/core"
	"sweb/internal/des"
	"sweb/internal/dnsrr"
	"sweb/internal/loadd"
	"sweb/internal/model"
	"sweb/internal/netsim"
	"sweb/internal/nodeobs"
	"sweb/internal/stats"
	"sweb/internal/trace"
	"sweb/internal/workload"
)

// Cluster is one simulated SWEB deployment.
type Cluster struct {
	Sim *des.Simulator

	cfg      Config
	nodes    []*model.Node
	net      netsim.Network
	tables   []*loadd.Table
	policy   core.Policy
	resolver *dnsrr.Resolver
	rng      *rand.Rand

	inflight []int               // admitted, not yet finished server-side, per node
	up       []bool              // node in the resource pool
	bytesOut []int64             // response body bytes sent, per node
	obs      []*nodeobs.Observer // per-node telemetry: registry, flight, heat
	reqSeq   int64               // sim analogue of the live connection id
	loads    []core.NodeLoad     // scratch rows for loadsAt

	res            *stats.RunResult
	outstanding    int64
	lastDone       des.Time // completion time of the latest request
	lostBroadcasts int64
	dispatchNext   int64 // rotation cursor for the baseline dispatcher
	stopped        bool
}

// New builds a cluster from cfg. The returned cluster is ready for
// RunSchedule.
func New(cfg Config) (*Cluster, error) {
	if err := cfg.fillDefaults(); err != nil {
		return nil, err
	}
	sim := des.New()
	n := len(cfg.Specs)
	c := &Cluster{
		Sim:      sim,
		cfg:      cfg,
		rng:      rand.New(rand.NewSource(cfg.Seed)),
		inflight: make([]int, n),
		up:       make([]bool, n),
		bytesOut: make([]int64, n),
		res:      &stats.RunResult{PerNodeServed: make([]int64, n)},
	}
	nics := make([]*des.PSResource, 0, n)
	for i, spec := range cfg.Specs {
		node, err := model.NewNode(sim, i, spec)
		if err != nil {
			return nil, err
		}
		c.nodes = append(c.nodes, node)
		nics = append(nics, node.NIC)
		c.up[i] = true
	}
	switch cfg.Net {
	case NetMeiko:
		c.net = netsim.NewFatTree(sim, nics)
	case NetNOW:
		c.net = netsim.NewEthernetBus(sim, nics, cfg.BusRate, cfg.BusBackground)
	}
	// The oracle's remote penalty comes from the interconnect unless the
	// caller overrode it.
	if !cfg.HaveParams {
		c.cfg.Params.RemotePenalty = c.net.RemotePenalty()
	}
	var err error
	c.policy, err = core.NewPolicy(cfg.Policy, c.cfg.Params)
	if err != nil {
		return nil, fmt.Errorf("simsrv: %w", err)
	}
	ids := make([]int, n)
	for i := range ids {
		ids[i] = i
	}
	c.resolver, err = dnsrr.New(ids, cfg.DNSCacheTTL)
	if err != nil {
		return nil, err
	}
	for i := 0; i < n; i++ {
		c.tables = append(c.tables, loadd.NewTable(i, cfg.LoaddTimeout, c.cfg.Params.Delta))
	}
	// Per-node telemetry needs the tables in place for the gossip gauges.
	for i := 0; i < n; i++ {
		c.obs = append(c.obs, newObserver(c, i))
	}
	// Warm the tables (the daemons were already running before the test
	// bursts start) and kick off the periodic broadcasts, staggered so
	// nodes do not gossip in lockstep.
	for i := 0; i < n; i++ {
		c.broadcast(i)
		stagger := des.Time(i) * 100 * des.Millisecond
		c.scheduleLoadd(i, stagger+c.nextPeriod())
	}
	return c, nil
}

// Nodes returns the cluster size.
func (c *Cluster) Nodes() int { return len(c.nodes) }

// Node exposes the i-th simulated node for inspection in tests.
func (c *Cluster) Node(i int) *model.Node { return c.nodes[i] }

// PolicyName reports the active scheduling policy.
func (c *Cluster) PolicyName() string { return c.policy.Name() }

// Result returns the accumulating run result.
func (c *Cluster) Result() *stats.RunResult { return c.res }

// nowSec is the simulation clock in seconds, the unit loadd and dnsrr use.
func (c *Cluster) nowSec() float64 { return c.Sim.Now().ToSeconds() }

func (c *Cluster) nextPeriod() des.Time {
	j := c.cfg.LoaddJitter
	if j <= 0 {
		return c.cfg.LoaddPeriod
	}
	return c.cfg.LoaddPeriod + des.Time(c.rng.Int63n(int64(2*j))) - j
}

// scheduleLoadd arms node x's next broadcast.
func (c *Cluster) scheduleLoadd(x int, at des.Time) {
	c.Sim.At(at, func() {
		if c.stopped {
			return
		}
		if c.up[x] {
			// Collecting /proc statistics and sending the datagrams
			// costs a little CPU (~0.2% in the paper).
			c.nodes[x].CPUWork(model.ActLoadd, c.cfg.LoaddOps, func() {})
			c.broadcast(x)
		}
		c.scheduleLoadd(x, c.Sim.Now()+c.nextPeriod())
	})
}

// netLoadOf measures node x's network pressure: its own attachment link
// plus, on the NOW, the shared bus occupancy — on a real Ethernet the load
// daemon sees segment utilization directly (collision/defer rates).
func (c *Cluster) netLoadOf(x, nic int) float64 {
	load := float64(nic)
	if eb, ok := c.net.(*netsim.EthernetBus); ok {
		load += float64(eb.BusLoad())
	}
	return load
}

// sampleOf captures node x's current load vector, with its hottest
// cached paths as the digest when hints > 0.
func (c *Cluster) sampleOf(x, hints int) loadd.Sample {
	cpu, disk, nic := c.nodes[x].LoadVector()
	spec := c.cfg.Specs[x]
	smp := loadd.Sample{
		Node:            x,
		CPULoad:         float64(cpu),
		DiskLoad:        float64(disk),
		NetLoad:         c.netLoadOf(x, nic),
		CPUOpsPerSec:    spec.CPUOpsPerSec,
		DiskBytesPerSec: spec.DiskBytesPerSec,
		NetBytesPerSec:  c.advertisedNetRate(x),
		SentAt:          c.nowSec(),
	}
	if hints > 0 {
		smp.CacheHints = c.nodes[x].Cache.Hot(hints)
	}
	return smp
}

// advertisedNetRate is b2, the remote-fetch bandwidth the broker plans
// with: the attachment link on the fat tree or the shared bus on the NOW,
// discounted by the measured NFS protocol penalty.
func (c *Cluster) advertisedNetRate(x int) float64 {
	rate := c.cfg.Specs[x].NICBytesPerSec
	if c.cfg.Net == NetNOW && c.cfg.BusRate < rate {
		rate = c.cfg.BusRate
	}
	return rate / c.net.RemotePenalty()
}

// broadcast distributes node x's sample to every table, including its own.
// Datagrams to peers are lossy when LoaddLossRate is set — UDP over a
// congested segment drops, and the gossip protocol must tolerate it.
func (c *Cluster) broadcast(x int) {
	s := c.sampleOf(x, c.cfg.CacheHints)
	for y := range c.nodes {
		y := y
		if y == x {
			if err := c.tables[x].Update(s, c.nowSec()); err != nil {
				panic(err) // own samples are always valid
			}
			continue
		}
		if c.cfg.LoaddLossRate > 0 && c.rng.Float64() < c.cfg.LoaddLossRate {
			c.lostBroadcasts++
			continue
		}
		c.Sim.After(c.net.ControlLatency(), func() {
			// Ignore the error: a corrupt datagram is dropped, exactly
			// what the live daemon does.
			_ = c.tables[y].Update(s, c.nowSec())
		})
	}
}

// LostBroadcasts reports how many loadd datagrams the loss injection ate.
func (c *Cluster) LostBroadcasts() int64 { return c.lostBroadcasts }

// Makespan returns the time of the last request completion — the active
// portion of the run, excluding the idle timeout tail.
func (c *Cluster) Makespan() des.Time { return c.lastDone }

// liveRow builds the broker's view of its own node from current counters
// rather than the last broadcast: a node always knows its own load.
func (c *Cluster) liveRow(x int) core.NodeLoad {
	row := c.sampleOf(x, 0).Load()
	row.Available = c.up[x]
	return row
}

// FailNodeAt removes node x from the pool at time t: it stops broadcasting
// (peers will time it out) and refuses new connections. In-flight requests
// finish. The DNS keeps resolving to it — exactly the failure mode the
// paper's loadd timeout exists for.
func (c *Cluster) FailNodeAt(t des.Time, x int) {
	c.Sim.At(t, func() { c.up[x] = false })
}

// RecoverNodeAt returns node x to the pool at time t; its next broadcast
// re-announces it to the peers.
func (c *Cluster) RecoverNodeAt(t des.Time, x int) {
	c.Sim.At(t, func() {
		c.up[x] = true
		c.broadcast(x)
	})
}

// issue starts the request for arrival a at its instant: DNS resolution
// (or the dispatcher), then the client's connection set-up.
func (c *Cluster) issue(a *workload.Arrival) {
	var node int
	if c.cfg.Dispatcher {
		// Centralized architecture: every request goes through the
		// single distributor on node 0.
		node = 0
	} else {
		n, err := c.resolver.Resolve(a.Domain, c.nowSec())
		if err != nil {
			c.drop(nil, stats.DropUnavailable)
			return
		}
		node = n
	}
	c.reqSeq++
	rs := &request{c: c, domain: a.Domain, issued: c.Sim.Now(), id: c.reqSeq, node: node}
	rs.next = rs.step
	rs.tid = c.cfg.Trace.NewRequest()
	c.trace(rs, trace.EvIssued, -1, nodeobs.Str("path", a.Path))
	c.trace(rs, trace.EvResolved, node, nodeobs.Detail{})
	rs.File, rs.Found = c.cfg.Store.Lookup(a.Path)
	rs.Path = a.Path
	if rs.Found {
		rs.Demand = c.cfg.Oracle.Characterize(a.Path)
	}
	// DNS answer in hand, the client opens the TCP connection.
	rs.mark = c.Sim.Now()
	c.Sim.After(c.connectTime(), rs.arm(stConnected))
}

// connectTime is how long a client takes to open a connection to a node:
// one round trip plus server-side accept processing.
func (c *Cluster) connectTime() des.Time {
	return 2*c.cfg.Client.LatencyOneWay + des.Seconds(c.cfg.Params.ConnectSeconds)
}

// trace records one event that is not a node's lifecycle step when
// recording is on: the client's own (issued, resolved, delivered, timed
// out), and a refusal at a node that is down, which counts nothing.
func (c *Cluster) trace(rs *request, kind trace.Kind, node int, d nodeobs.Detail) {
	if c.cfg.Trace.Enabled() {
		c.cfg.Trace.Record(rs.tid, c.nowSec(), kind, node, d.String())
	}
}

// RunSchedule feeds every arrival to the simulator, runs the simulation
// until all requests have either completed or exceeded the client timeout,
// and returns the finalized result. It must be called at most once per
// cluster. Arrivals fire in order of At, ties in slice order, exactly as
// if each had been scheduled with Sim.At in slice order.
func (c *Cluster) RunSchedule(arrivals []workload.Arrival) *stats.RunResult {
	byAt := func(i, j int) bool { return arrivals[i].At < arrivals[j].At }
	if !sort.SliceIsSorted(arrivals, byAt) {
		arrivals = append([]workload.Arrival(nil), arrivals...)
		sort.SliceStable(arrivals, byAt)
	}
	ats := make([]des.Time, len(arrivals))
	for i := range arrivals {
		ats[i] = arrivals[i].At
	}
	c.res.Offered += int64(len(arrivals))
	c.outstanding += int64(len(arrivals))
	c.Sim.Feed(ats, func(i int) { c.issue(&arrivals[i]) })
	var last des.Time
	if n := len(ats); n > 0 {
		last = ats[n-1]
	}
	horizon := last + c.cfg.ClientTimeout + 5*des.Second
	c.Sim.Run(horizon)
	c.finalize()
	return c.res
}

// finalize classifies unfinished requests as timeouts and computes the
// whole-run derived statistics.
func (c *Cluster) finalize() {
	c.stopped = true
	for ; c.outstanding > 0; c.outstanding-- {
		c.res.RecordDrop(stats.DropTimeout)
	}
	// CPU shares are measured over the active makespan, not the idle tail
	// the timeout horizon adds after the last completion.
	elapsed := c.lastDone.ToSeconds()
	if elapsed == 0 {
		elapsed = c.Sim.Now().ToSeconds()
	}
	if elapsed > 0 {
		var totalCapacity float64
		byAct := make(map[string]float64)
		for i, node := range c.nodes {
			totalCapacity += c.cfg.Specs[i].CPUOpsPerSec * elapsed
			for act, ops := range node.CPUByActivity() {
				byAct[string(act)] += ops
			}
		}
		c.res.CPUShare = make(map[string]float64, len(byAct))
		for act, ops := range byAct {
			c.res.CPUShare[act] = ops / totalCapacity
		}
	}
	var hits, misses int64
	for _, node := range c.nodes {
		st := node.Cache.Stats()
		hits += st.Hits
		misses += st.Misses
	}
	if hits+misses > 0 {
		c.res.CacheHitRate = float64(hits) / float64(hits+misses)
	}
}

func (c *Cluster) drop(rs *request, cause stats.DropCause) {
	c.res.RecordDrop(cause)
	c.outstanding--
	c.lastDone = c.Sim.Now()
	if rs != nil {
		// Refused and unreachable requests still leave black-box evidence:
		// a 503 record at the node that turned them away, with no target
		// (the broker never placed them anywhere).
		c.observe(rs, rs.node, 503, 0, false)
	}
}
